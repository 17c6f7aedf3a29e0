"""One-variable language equations X ⊕ L = R and L ⊕ X = R.

⊕ is site-directed insertion or its alphabetic variant, with regular
constants L and R.  Deleting the known operand from the complement of R
along the matching inverse trajectory set yields the complement of the
maximal candidate: a superset of every solution.  A solution exists
exactly when that candidate is itself a solution, which is checked by
substituting it back: one equivalence search between C ⊕ L and R, whose
least distinguishing word is the certificate of an unsolvable equation.
Both the search and the built candidate step one value, the deletion
product d (`_deletion`), its epsilon moves folded on demand
(`automata._folded`).  The search steps the unmasked subset rule over d,
so an unsolvable equation costs only the product keys and candidate
states its witness reaches, and only that candidate's language matters
there.  The bytes come from the candidate built whole (`_built_candidate`):
the subset rule masked to the co-reachable states of d stepped to the
end, the searched d for a solvable equation, else a fresh one, on first
read or when the search hits the state budget.  A solvable equation is
never reported without the full search.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .automata import (
    Dfa,
    InputError,
    Nfa,
    ResourceLimitError,
    Word,
    _coreachable,
    _explore,
    _folded,
    _OnDemand,
    _require_same_alphabet,
    _subset_parts,
    complement,
    equivalence_witness,
    equivalent,
)
from .constructions import _insertion_parts
from .oracle import SdiVariant
from .trajectories import _deletion_parts, named_trajectory


class UnknownSide(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class EquationSpec:
    side: UnknownSide
    variant: SdiVariant
    known: Nfa
    result: Nfa

    def __post_init__(self):
        if self.variant not in (SdiVariant.GENERAL, SdiVariant.ALPHABETIC):
            raise InputError("equations support the general and alphabetic variants only")
        _require_same_alphabet(self.known.alphabet, self.result)


@dataclass(frozen=True)
class EquationSolution:
    """The verdict of `solve` on `spec`.  `witness` is the length-lex least word in
    exactly one of R and C ⊕ L, for the maximal candidate C, or None iff the equation
    is solvable.  `candidate` is C, built by `solve` from its own deletion product if
    solvable, else by `candidate(spec)` on first read."""

    witness: Word | None
    spec: EquationSpec

    @property
    def solvable(self) -> bool:
        return self.witness is None

    @cached_property
    def candidate(self) -> Dfa:
        return candidate(self.spec)


class EquationResourceError(ResourceLimitError):
    """Resource cap hit mid-solve; carries the candidate, built whole."""

    def __init__(self, message: str, candidate: Dfa):
        super().__init__(message)
        self.candidate = candidate


_TRAJECTORY_FOR_CASE = {
    (UnknownSide.LEFT, SdiVariant.GENERAL): "T1",
    (UnknownSide.RIGHT, SdiVariant.GENERAL): "T2",
    (UnknownSide.LEFT, SdiVariant.ALPHABETIC): "T1a",
    (UnknownSide.RIGHT, SdiVariant.ALPHABETIC): "T2a",
}


def _deletion(spec: EquationSpec) -> _OnDemand:
    """The deletion product d, epsilon-folded and stepped on demand: the
    known operand deleted from the complement of the result (made here,
    once per solve) along the inverse trajectories for the unknown side."""
    traj = named_trajectory(_TRAJECTORY_FOR_CASE[(spec.side, spec.variant)]).language
    return _OnDemand(*_folded(_deletion_parts(complement(spec.result), spec.known, traj)))


def _built_candidate(d: _OnDemand) -> Dfa:
    """The maximal candidate, built whole from d stepped to the end: the
    subset rule, masked to the co-reachable states and flipped, which gives
    `complement(trim(d))` renumbered.  Its structure, and so its bytes, is
    the one the same rule gives over `_explore` of d's construction value."""
    return _explore(*_subset_parts(d, True, _coreachable(d)), Dfa)


def candidate(spec: EquationSpec) -> Dfa:
    """Maximal solution candidate: the complement of the deletion of the
    known operand from the complement of the result along the inverse
    trajectories for the unknown side."""
    return _built_candidate(_deletion(spec))


def _apply(solution: Nfa | _OnDemand, spec: EquationSpec) -> _OnDemand:
    """The left-hand side with `solution` for X, built on demand."""
    host, inserted = (solution, spec.known) if spec.side is UnknownSide.LEFT else (spec.known, solution)
    return _OnDemand(*_insertion_parts(spec.variant, host, inserted))


def verify_solution(solution: Nfa, spec: EquationSpec) -> bool:
    """Does substituting `solution` for X satisfy the equation exactly?"""
    return equivalent(_apply(solution, spec), spec.result)


def solve(spec: EquationSpec) -> EquationSolution:
    """Decide the equation, with its witness or its maximal candidate.

    The candidate C is a superset of all solutions, and the equation is
    solvable iff C ⊕ L = R.  That equivalence search steps C on demand:
    the flipped subset rule over the deletion product d, itself stepped
    with its epsilon moves folded (`_folded`), so it numbers only the keys
    of d and the states of C it reaches.  The whole of C is built from the
    same d (`_built_candidate`) only when the search finds no witness.  The
    searched C has C's language, so within the state budget the answer is
    the one the built candidate gives.  When the search hits the budget,
    C is built from a fresh d (the error may stop d mid-step): its own
    budget error propagates as it is, else an EquationResourceError carries it.
    """
    d = _deletion(spec)
    try:
        witness = equivalence_witness(_apply(_OnDemand(*_subset_parts(d, True)), spec), spec.result)
    except ResourceLimitError as exc:
        raise EquationResourceError(f"verification hit the state cap: {exc}", candidate(spec)) from exc
    solution = EquationSolution(witness, spec)
    if witness is None:  # built in the solve, under the budget, from the d it stepped
        vars(solution)["candidate"] = _built_candidate(d)
    return solution
