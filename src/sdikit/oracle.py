"""Brute-force string semantics for the insertion and trajectory operations.

Everything here works by direct enumeration of decompositions and is the
ground truth that the automaton constructions are validated against.  It
is a reference for the tests only: no CLI command calls it.  Bounded
max/min probes walk the general SDI automaton and filter its words with
the polynomial membership decider (`constructions.bounded_insertion_words`).

Site-directed insertion of y into x matches a nontrivial outfix (u, v) of
y = u·z·v against a substring u·v of x = x1·u·v·x2 and yields x1·u·z·v·x2.
The variants restrict the match: alphabetic needs |u| = |v| = 1, maximal
forbids extending the matched outfix into x1/x2, minimal needs u and v
unbordered.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

Word = str


class SdiVariant(Enum):
    GENERAL = "sdi"
    ALPHABETIC = "asdi"
    MAXIMAL = "maxsdi"
    MINIMAL = "minsdi"


def unbordered(word: Word) -> bool:
    """No proper nonempty prefix of `word` is also a suffix."""
    return not any(word[:k] == word[-k:] for k in range(1, len(word)))


def _decompositions(x: Word, y: Word) -> Iterable[tuple[Word, Word, Word, Word, Word]]:
    """All (x1, u, z, v, x2) with x = x1·u·v·x2, y = u·z·v, u, v nonempty."""
    for i in range(1, len(y)):  # u = y[:i]
        for m in range(1, len(y) - i + 1):  # v = y[len(y)-m:]
            u, z, v = y[:i], y[i : len(y) - m], y[len(y) - m :]
            uv = u + v
            start = 0
            while True:
                p = x.find(uv, start)
                if p < 0:
                    break
                yield x[:p], u, z, v, x[p + len(uv) :]
                start = p + 1


def sdi_strings(x: Word, y: Word, require_insertion: bool = False) -> set[Word]:
    """Site-directed insertion of y into x.

    With require_insertion=True only decompositions with a nonempty
    inserted middle z count, so every result properly extends x.
    """
    out = set()
    for x1, u, z, v, x2 in _decompositions(x, y):
        if require_insertion and not z:
            continue
        out.add(x1 + u + z + v + x2)
    return out


def asdi_strings(x: Word, y: Word, require_insertion: bool = False) -> set[Word]:
    """Alphabetic variant: matched prefix and suffix are single letters."""
    out = set()
    if len(y) < 2:
        return out
    if require_insertion and len(y) < 3:
        return out
    a, b = y[0], y[-1]
    for p in range(len(x) - 1):
        if x[p] == a and x[p + 1] == b:
            out.add(x[:p] + y + x[p + 2 :])
    return out


def _site_is_maximal(x1: Word, u: Word, z: Word, v: Word, x2: Word) -> bool:
    """No nonempty extension pair: y != x1'·u·z'·v·x2' for every suffix x1'
    of x1 and prefix x2' of x2 with x1'·x2' nonempty."""
    y = u + z + v
    for lp in range(len(x1) + 1):
        head = x1[len(x1) - lp :] + u
        if not y.startswith(head):
            continue
        for lq in range(len(x2) + 1):
            if lp == 0 and lq == 0:
                continue
            tail = v + x2[:lq]
            if len(head) + len(tail) <= len(y) and y.endswith(tail):
                return False
    return True


def max_sdi_strings(x: Word, y: Word) -> set[Word]:
    """Maximal variant: the matched outfix cannot be extended at the site."""
    out = set()
    for x1, u, z, v, x2 in _decompositions(x, y):
        if _site_is_maximal(x1, u, z, v, x2):
            out.add(x1 + u + z + v + x2)
    return out


def min_sdi_strings(x: Word, y: Word) -> set[Word]:
    """Minimal variant: u and v must be unbordered."""
    out = set()
    for x1, u, z, v, x2 in _decompositions(x, y):
        if unbordered(u) and unbordered(v):
            out.add(x1 + u + z + v + x2)
    return out


_VARIANT_OPS = {
    SdiVariant.GENERAL: sdi_strings,
    SdiVariant.ALPHABETIC: asdi_strings,
    SdiVariant.MAXIMAL: max_sdi_strings,
    SdiVariant.MINIMAL: min_sdi_strings,
}


def bounded_language_op(
    variant: SdiVariant, lang1: Iterable[Word], lang2: Iterable[Word]
) -> set[Word]:
    """Union of the per-pair operation over two finite languages."""
    op = _VARIANT_OPS[variant]
    out: set[Word] = set()
    for x in lang1:
        for y in lang2:
            out |= op(x, y)
    return out


# -- trajectory semantics -------------------------------------------------


def shuffle_on_trajectory(x: Word, y: Word, t: Word) -> Word | None:
    """Semantic shuffle of x and y on trajectory t over {0,1,s}.

    0 consumes the next symbol of x, 1 of y, and s consumes one symbol of
    both, which must coincide and is emitted once.  Returns None when the
    trajectory does not fit.
    """
    i = j = 0
    out: list[str] = []
    for c in t:
        if c == "0":
            if i == len(x):
                return None
            out.append(x[i])
            i += 1
        elif c == "1":
            if j == len(y):
                return None
            out.append(y[j])
            j += 1
        elif c == "s":
            if i == len(x) or j == len(y) or x[i] != y[j]:
                return None
            out.append(x[i])
            i += 1
            j += 1
        else:
            raise ValueError(f"bad shuffle trajectory symbol {c!r}")
    if i != len(x) or j != len(y):
        return None
    return "".join(out)


def delete_on_trajectory(x: Word, y: Word, t: Word) -> Word | None:
    """Deletion of y from x along trajectory t over {i,d,s}.

    i emits the next symbol of x; d consumes matching symbols of x and y
    silently; s consumes matching symbols of x and y and emits the symbol.
    Defined only when |t| = |x| and y is consumed exactly.
    """
    if len(t) != len(x):
        return None
    j = 0
    out: list[str] = []
    for pos, c in enumerate(t):
        if c == "i":
            out.append(x[pos])
        elif c in ("d", "s"):
            if j == len(y) or x[pos] != y[j]:
                return None
            if c == "s":
                out.append(x[pos])
            j += 1
        else:
            raise ValueError(f"bad deletion trajectory symbol {c!r}")
    if j != len(y):
        return None
    return "".join(out)


# -- decomposition scans over whole words ---------------------------------
#
# For w = x1·u·z·v·x2 the host is x = w[:b] + w[c:] and the inserted word
# is y = w[a:d], where a < b <= c < d mark |x1|, |x1 u|, |x1 u z| and
# |x1 u z v|.  These scans decide membership directly from enumerated
# operand sets and are the oracle side for language-level comparisons.


def scan_member(
    variant: SdiVariant,
    w: Word,
    hosts: set[Word],
    inserted: set[Word] | None,
) -> bool:
    """Is w producible by inserting a word of `inserted` into a host?

    `inserted=None` means every nonempty word is available (Σ+).
    """
    n = len(w)
    for b in range(1, n):
        for c in range(b, n):
            if w[:b] + w[c:] not in hosts:
                continue
            for a in range(b):
                for d in range(c + 1, n + 1):
                    if inserted is not None and w[a:d] not in inserted:
                        continue
                    if variant is SdiVariant.GENERAL:
                        return True
                    if variant is SdiVariant.ALPHABETIC:
                        if b - a == 1 and d - c == 1:
                            return True
                    elif variant is SdiVariant.MAXIMAL:
                        if _site_is_maximal(w[:a], w[a:b], w[b:c], w[c:d], w[d:]):
                            return True
                    elif variant is SdiVariant.MINIMAL:
                        if unbordered(w[a:b]) and unbordered(w[c:d]):
                            return True
    return False


def scan_language(
    variant: SdiVariant,
    candidates: Iterable[Word],
    hosts: set[Word],
    inserted: set[Word] | None,
) -> set[Word]:
    """All candidates producible by the variant from the given operand sets."""
    if variant is SdiVariant.GENERAL and inserted is not None:
        return {w for w in candidates if _scan_general(w, hosts, inserted)}
    return {w for w in candidates if scan_member(variant, w, hosts, inserted)}


def _scan_general(w: Word, hosts: set[Word], inserted: set[Word]) -> bool:
    # window[a][d] records whether some y-window [a', d'] with a' <= a,
    # d' >= d lies in `inserted`; the site (b, c) then only needs the
    # corner lookup at (b-1, c+1).
    n = len(w)
    hit = [[w[a:d] in inserted for d in range(n + 1)] + [False] for a in range(n + 1)]
    for a in range(n + 1):
        for d in range(n, -1, -1):
            hit[a][d] = hit[a][d] or hit[a][d + 1]
            if a > 0:
                hit[a][d] = hit[a][d] or hit[a - 1][d]
    for b in range(1, n):
        for c in range(b, n):
            if hit[b - 1][c + 1] and w[:b] + w[c:] in hosts:
                return True
    return False
