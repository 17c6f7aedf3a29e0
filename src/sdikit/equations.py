"""One-variable language equations X ⊕ L = R and L ⊕ X = R.

⊕ is site-directed insertion or its alphabetic variant, with regular
constants L and R.  Deleting the known operand from the complement of R
along the matching inverse trajectory set yields the complement of the
maximal candidate: a superset of every solution.  A solution exists
exactly when that candidate is itself a solution, which is verified
explicitly by substituting it back, so `solve` never reports a solvable
equation without a machine-checked witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .automata import (
    Dfa,
    InputError,
    Nfa,
    ResourceLimitError,
    _OnDemand,
    _require_same_alphabet,
    complement,
    equivalent,
)
from .constructions import _asdi_parts, _sdi_parts
from .oracle import SdiVariant
from .trajectories import deletion_nfa, named_trajectory


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
    solvable: bool
    candidate: Dfa


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


def candidate(spec: EquationSpec) -> Dfa:
    """Maximal solution candidate: the complement of deleting the known
    operand from the complement of the result along the inverse
    trajectories for the unknown side."""
    traj = named_trajectory(_TRAJECTORY_FOR_CASE[(spec.side, spec.variant)]).language
    return complement(deletion_nfa(complement(spec.result), spec.known, traj))


def _apply(solution: Nfa, spec: EquationSpec) -> _OnDemand:
    """The left-hand side with `solution` for X, built on demand."""
    parts = _sdi_parts if spec.variant is SdiVariant.GENERAL else _asdi_parts
    host, inserted = (solution, spec.known) if spec.side is UnknownSide.LEFT else (spec.known, solution)
    return _OnDemand(spec.known.alphabet, *parts(host, inserted))


def verify_solution(solution: Nfa, spec: EquationSpec) -> bool:
    """Does substituting `solution` for X satisfy the equation exactly?"""
    return equivalent(_apply(solution, spec), spec.result)


def solve(spec: EquationSpec) -> EquationSolution:
    """Decide the equation and produce the maximal candidate.

    The candidate is a superset of all solutions; the equation is solvable
    iff the candidate verifies.
    """
    cand = candidate(spec)
    try:
        ok = verify_solution(cand, spec)
    except ResourceLimitError as exc:
        raise EquationResourceError(f"verification hit the state cap: {exc}", cand) from exc
    return EquationSolution(solvable=ok, candidate=cand)
