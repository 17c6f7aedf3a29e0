"""Decision procedures: freeness, independence, closure, solvability.

Freeness of L(a) w.r.t. L(b) means no word of L(b) can be inserted into a
word of L(a).  Independence means inserting a nonempty middle into L(a)
never lands in L(b); this uses the insertion-proper construction, where
the inserted middle z must be nonempty (otherwise every language whose
words admit a site would trivially fail against itself).  The maximal
and minimal variants of both predicates coincide with the general ones,
because an insertion site admits a maximal/minimal insertion exactly
when it admits any.  Freeness and independence are one `shortest_word`
search over the construction (for independence, its product with L(b)),
stepped on demand, so a false answer stops at its least witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .automata import (
    Nfa,
    Word,
    _meet_parts,
    _OnDemand,
    inclusion_witness,
    membership,
    product_intersection,  # unused here; bench/tests patches `decide.product_intersection`
    shortest_word,
)
from .constructions import (
    _insertion_membership,
    _insertion_parts,
    bounded_insertion_words,
    regular_max_sdi_finite,
)
from .oracle import SdiVariant


@dataclass(frozen=True)
class DecisionReport:
    predicate: str
    answer: bool
    witness: Word | None = None
    #: Sizes behind the verdict: `explored_states` counts the states of
    #: an on-demand construction (or product) that the search numbered;
    #: `construction_states` counts the states of an automaton built whole.
    resources: dict[str, int] = field(default_factory=dict)

    def __str__(self) -> str:
        parts = [f"{self.predicate}: {'true' if self.answer else 'false'}"]
        if self.witness is not None:
            parts.append(f"witness: {self.witness!r}")
        for key in sorted(self.resources):
            parts.append(f"{key}={self.resources[key]}")
        return "  ".join(parts)


def _emptiness_report(predicate: str, search: _OnDemand) -> DecisionReport:
    witness = shortest_word(search)
    return DecisionReport(predicate, witness is None, witness, {"explored_states": search.state_count})


def is_free(variant: SdiVariant, a: Nfa, b: Nfa) -> DecisionReport:
    """L(a) ⊕ L(b) = ∅ for the variant.  Max/min freeness coincides with
    general freeness: a site admits a maximal (minimal) insertion iff it
    admits any insertion."""
    search = _OnDemand(*_insertion_parts(variant, a, b))
    return _emptiness_report(f"{variant.value}-free", search)


def is_independent(variant: SdiVariant, a: Nfa, b: Nfa) -> DecisionReport:
    """(L(a) ⊕ nonempty-middle insertions) ∩ L(b) = ∅ for the variant.
    Max/min independence coincides with general independence: inserting
    into a host with the whole remaining word as matched outfix is always
    maximal, and single-letter outfixes are always minimal."""
    grown = _insertion_parts(variant, a, Nfa.sigma_plus(a.alphabet), True)
    search = _OnDemand(*_meet_parts(grown, b))
    return _emptiness_report(f"{variant.value}-independent", search)


def is_closed_under_sdi(a: Nfa) -> DecisionReport:
    """L(a) ⊕ L(a) ⊆ L(a)?  Polynomial for DFA input; NFA input may
    exceed the state budget, reported as a resource error."""
    grown = _OnDemand(*_insertion_parts(SdiVariant.GENERAL, a, a))
    witness = inclusion_witness(grown, a)
    return DecisionReport(
        "closed-sdi", witness is None, witness, {"explored_states": grown.state_count}
    )


def closed_under_finite_maxmin(variant: SdiVariant, a: Nfa, words: set[Word] | list[Word]) -> DecisionReport:
    """L(a) max/min-inserted with a finite language stays inside L(a)?"""
    grown = regular_max_sdi_finite(a, words, variant)
    witness = inclusion_witness(grown, a)
    return DecisionReport(
        f"{variant.value}-closed-finite",
        witness is None,
        witness,
        {"construction_states": grown.state_count},
    )


def two_var_solvable(r: Nfa) -> DecisionReport:
    """Does X1 ⊕ X2 = L(r) admit any solution pair?

    Solvable exactly when every word of L(r) has length at least two;
    an insertion output always contains the nonempty matched prefix and
    suffix, so no output is shorter than two symbols.  The length-lex
    least word is also a shortest one: the witness if it is that short.
    """
    shortest = shortest_word(r)
    witness = shortest if shortest is not None and len(shortest) < 2 else None
    return DecisionReport("two-var-solvable", witness is None, witness, {})


def closure_counterexample_search(
    variant: SdiVariant, a: Nfa, max_len: int
) -> Word | None:
    """Bounded probe: the length-lex least word of (L(a) ⊕ L(a)) − L(a)
    of length ≤ max_len, or None.

    Walks the words of the general (or alphabetic) construction lazily
    in length-lex order (`bounded_insertion_words`) and keeps the words
    outside L(a); for max/min it then keeps only those the polynomial
    membership decider accepts, so words that stay in L(a) never pay for
    the decider.  It stops at the first word kept: no word past the
    witness is enumerated.  Exact, since every max/min output is a
    general output.  Absence of a counterexample at the bound proves
    nothing about closure.
    """
    base = variant if variant is SdiVariant.ALPHABETIC else SdiVariant.GENERAL
    escaped = (w for w in bounded_insertion_words(base, a, a, max_len) if not membership(a, w))
    if variant is not base:
        escaped = (w for w in escaped if _insertion_membership(variant, w, a, a))
    return next(escaped, None)
