"""One-variable language equations X ⊕ L = R and L ⊕ X = R.

⊕ is site-directed insertion or its alphabetic variant, with regular
constants L and R.  Deleting the known operand from the complement of R
along the matching inverse trajectory set yields the complement of the
maximal candidate: a superset of every solution.  A solution exists
exactly when that candidate is itself a solution, which is checked by
substituting it back: one equivalence search between C ⊕ L and R, whose
least distinguishing word is the certificate of an unsolvable equation.
`solve` runs that search on a candidate built on demand, one subset at a
time, and builds the whole candidate only when the search finds no word,
so an unsolvable equation costs only the candidate states its witness
reaches, and a solvable one is never reported without the full search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .automata import (
    Dfa,
    InputError,
    Nfa,
    ResourceLimitError,
    Word,
    _complement_on_demand,
    _explore,
    _OnDemand,
    _require_same_alphabet,
    complement,
    equivalence_witness,
    equivalent,
    trim,
)
from .constructions import _asdi_parts, _sdi_parts
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
    """The verdict of `solve`.  `witness` is the length-lex least word in
    exactly one of R and C ⊕ L, for the maximal candidate C, or None iff
    the equation is solvable.  `candidate` is C; `solve` builds it for a
    solvable equation, and for an unsolvable one it is built on first
    read from the deletion product kept in `_product`."""

    witness: Word | None
    _product: Nfa = field(repr=False)

    @property
    def solvable(self) -> bool:
        return self.witness is None

    @cached_property
    def candidate(self) -> Dfa:
        return complement(trim(self._product))


class EquationResourceError(ResourceLimitError):
    """Resource cap hit mid-solve; carries the candidate when one exists."""

    def __init__(self, message: str, candidate: Dfa | None = None):
        super().__init__(message)
        self.candidate = candidate


_TRAJECTORY_FOR_CASE = {
    (UnknownSide.LEFT, SdiVariant.GENERAL): "T1",
    (UnknownSide.RIGHT, SdiVariant.GENERAL): "T2",
    (UnknownSide.LEFT, SdiVariant.ALPHABETIC): "T1a",
    (UnknownSide.RIGHT, SdiVariant.ALPHABETIC): "T2a",
}


def _deletion(spec: EquationSpec) -> Nfa:
    """The untrimmed, ε-folded deletion of the known operand from the
    complement of the result, along the inverse trajectories for the
    unknown side: the candidate's complement, before trimming."""
    traj = named_trajectory(_TRAJECTORY_FOR_CASE[(spec.side, spec.variant)]).language
    return _explore(*_deletion_parts(complement(spec.result), spec.known, traj))


def candidate(spec: EquationSpec) -> Dfa:
    """Maximal solution candidate: the complement of the (trimmed)
    deletion of the known operand from the complement of the result
    along the inverse trajectories for the unknown side."""
    return complement(trim(_deletion(spec)))


def _apply(solution: Nfa | _OnDemand, spec: EquationSpec) -> _OnDemand:
    """The left-hand side with `solution` for X, built on demand."""
    parts = _sdi_parts if spec.variant is SdiVariant.GENERAL else _asdi_parts
    host, inserted = (solution, spec.known) if spec.side is UnknownSide.LEFT else (spec.known, solution)
    return _OnDemand(spec.known.alphabet, *parts(host, inserted))


def verify_solution(solution: Nfa, spec: EquationSpec) -> bool:
    """Does substituting `solution` for X satisfy the equation exactly?"""
    return equivalent(_apply(solution, spec), spec.result)


def solve(spec: EquationSpec) -> EquationSolution:
    """Decide the equation, with its witness or its maximal candidate.

    The candidate C is a superset of all solutions, and the equation is
    solvable iff C ⊕ L = R.  That equivalence search runs on C built on
    demand (`_complement_on_demand` of the deletion product), so it
    numbers only the states of C it reaches; the whole of C is built,
    from the same product, only when the search finds no witness.
    Within the state budget the answer is the one the built candidate
    gives.  When the search hits the budget, C is built whole: its own
    budget error propagates as it is, and otherwise an
    EquationResourceError carries it.
    """
    product = _deletion(spec)
    try:
        witness = equivalence_witness(_apply(_complement_on_demand(product), spec), spec.result)
    except ResourceLimitError as exc:
        cand = complement(trim(product))  # its own budget error propagates as it is
        raise EquationResourceError(f"verification hit the state cap: {exc}", cand) from exc
    solution = EquationSolution(witness, product)
    if witness is None:
        solution.candidate  # built in the solve, under the budget
    return solution
