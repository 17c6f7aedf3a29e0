"""Nondeterministic state complexity experiments.

A fooling set for L is a list of pairs (x_i, w_i) with every x_i·w_i in L
and, for i != j, x_i·w_j or x_j·w_i outside L; its size lower-bounds the
number of states of any NFA for L.  The search here is a seeded greedy
probe over candidate pairs: found sets are real certificates, absence of
one proves nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .automata import Alphabet, InputError, Nfa, Word, length_lex_words, membership
from .constructions import insertion_nfa
from .oracle import SdiVariant

_RESTARTS = 30  # greedy passes of `fooling_set_search`, the first in candidate order
_CANDIDATE_LIMIT = 400  # split pairs it draws from the accepted words
_FINAL_DENSITY = 0.4  # chance that a state of `random_nfa` is final
_AUDIT_ALPHABET = Alphabet.from_string("ab")  # the alphabet of the random operands of `size_audit`


@dataclass(frozen=True)
class FoolingSet:
    pairs: tuple[tuple[Word, Word], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if len(set(self.pairs)) != len(self.pairs):
            raise InputError("fooling set pairs must be distinct")

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class FoolingCheck:
    """bound is len(P) when P is a valid fooling set, else None and the
    offending index pairs are listed: (i, i) marks x_i·w_i not accepted,
    (i, j) marks a pair where both cross words are accepted."""

    bound: int | None
    violations: tuple[tuple[int, int], ...] = ()


def fooling_set_check(a: Nfa, fooling: FoolingSet) -> FoolingCheck:
    """Validate the two fooling-set conditions against L(a)."""
    violations: list[tuple[int, int]] = []
    accepted = [membership(a, x + w) for x, w in fooling.pairs]
    for idx, ok in enumerate(accepted):
        if not ok:
            violations.append((idx, idx))
    n = len(fooling.pairs)
    for i in range(n):
        xi, wi = fooling.pairs[i]
        for j in range(i + 1, n):
            xj, wj = fooling.pairs[j]
            if membership(a, xi + wj) and membership(a, xj + wi):
                violations.append((i, j))
    if violations:
        return FoolingCheck(None, tuple(violations))
    return FoolingCheck(len(fooling.pairs), ())


def _candidate_pairs(a: Nfa, max_len: int, limit: int) -> list[tuple[Word, Word]]:
    """Splittings x·w of accepted words with both parts of length <= max_len,
    the first `limit` of them: the words are walked lazily in length-lex
    order (`length_lex_words`) and the walk stops once `limit` are found."""
    pairs: list[tuple[Word, Word]] = []
    for word in length_lex_words(a, 2 * max_len):  # distinct words: distinct splittings
        cuts = range(max(0, len(word) - max_len), min(len(word), max_len) + 1)
        pairs.extend((word[:cut], word[cut:]) for cut in cuts)
        if len(pairs) >= limit:
            break
    return pairs[:limit]


def fooling_set_search(
    a: Nfa,
    target: int,
    max_len: int,
    seed: int = 0,
) -> FoolingSet | None:
    """Greedy seeded search for a fooling set of size >= target.

    Candidates are split points of accepted words.  Each restart grows a
    set in a shuffled order, keeping pairs compatible with everything
    chosen so far.  Absence of a find is not an upper bound.
    """
    if target < 1:
        raise InputError("target must be positive")
    pairs = _candidate_pairs(a, max_len, _CANDIDATE_LIMIT)
    if not pairs:
        return None

    cache: dict[Word, bool] = {}

    def in_lang(word: Word) -> bool:
        if word not in cache:
            cache[word] = membership(a, word)
        return cache[word]

    def compatible(p: tuple[Word, Word], q: tuple[Word, Word]) -> bool:
        return not (in_lang(p[0] + q[1]) and in_lang(q[0] + p[1]))

    rng = random.Random(seed)
    for attempt in range(_RESTARTS):
        order = list(pairs)
        if attempt:
            rng.shuffle(order)
        chosen: list[tuple[Word, Word]] = []
        for cand in order:
            if all(compatible(cand, other) for other in chosen):
                chosen.append(cand)
            if len(chosen) >= target:
                return FoolingSet(tuple(chosen))
    return None


@dataclass(frozen=True)
class SizeAudit:
    construction: str
    m: int
    n: int
    bound: int
    actual: int


_BOUNDS = {
    "sdi": lambda m, n: 3 * m * n + 2 * m,
    "asdi": lambda m, n: m * n + 2 * m,
}


def random_nfa(
    rng: random.Random,
    n_states: int,
    alphabet: Alphabet,
    density: float = 0.4,
) -> Nfa:
    """Random NFA with initial state 0 and at least one final state."""
    trans = {
        (src, sym, dst)
        for src in range(n_states)
        for sym in alphabet
        for dst in range(n_states)
        if rng.random() < density
    }
    finals = {q for q in range(n_states) if rng.random() < _FINAL_DENSITY}
    if not finals:
        finals = {rng.randrange(n_states)}
    return Nfa(alphabet, n_states, 0, frozenset(finals), frozenset(trans))


def size_audit(
    construction: str,
    m_range: tuple[int, int],
    n_range: tuple[int, int],
    samples: int,
    seed: int = 0,
) -> list[SizeAudit]:
    """State counts of random construction instances against the formula.

    The recorded `actual` is the reachable construction size with no
    dead-state removal, so the bound check is not vacuous.
    """
    if construction not in _BOUNDS:
        raise InputError(f"unknown construction {construction!r}; known: sdi, asdi")
    if m_range[0] < 1 or n_range[0] < 1 or m_range[1] < m_range[0] or n_range[1] < n_range[0]:
        raise InputError("state ranges must be nonempty and positive")
    rng = random.Random(seed)
    variant, bound_of = SdiVariant(construction), _BOUNDS[construction]
    audits: list[SizeAudit] = []
    for m in range(m_range[0], m_range[1] + 1):
        for n in range(n_range[0], n_range[1] + 1):
            for _ in range(samples):
                left = random_nfa(rng, m, _AUDIT_ALPHABET)
                right = random_nfa(rng, n, _AUDIT_ALPHABET)
                built = insertion_nfa(variant, left, right)
                audits.append(SizeAudit(construction, m, n, bound_of(m, n), built.state_count))
    return audits
