"""Direct NFA constructions for site-directed insertion variants.

The general construction runs in five phases over the host word
x1·u·z·v·x2: simulate the host automaton alone, jointly with the insert
automaton on u, the insert automaton alone on z with the host state
frozen, jointly again on v, then the host alone.  Entering and leaving
each overlap phase consumes at least one symbol, which enforces u, v
nonempty.  Reachable states only, so the sizes stay within m + 3mn + m
for the general and m + mn + m for the alphabetic variant.  Max/min
insertion into finite host words is one walk of the same phases along
the hosts, with two offset sets for the maximality windows.  Each walk
here is an `_explore` run, bounded by the one state budget.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

from .automata import Alphabet, InputError, Nfa, Word, _advance, _bits, _explore, _mask, _require_same_alphabet
from .automata import length_lex_words, trim, union_all
from .oracle import SdiVariant, unbordered


def sdi_nfa_direct(a: Nfa, b: Nfa, require_insertion: bool = False) -> Nfa:
    """NFA for site-directed insertion of L(b) into L(a).

    With require_insertion=True the inserted middle must be nonempty
    (the z phase cannot be skipped).
    """
    return _explore(*_sdi_parts(a, b, require_insertion))


def _sdi_parts(a: Nfa, b: Nfa, require_insertion: bool = False) -> tuple:
    """The construction value (alphabet, start, expand, is_final) of
    `sdi_nfa_direct`."""
    alphabet = _require_same_alphabet(a.alphabet, b)

    def expand(key):
        phase = key[0]
        if phase == "pre":
            _, p = key
            for sym in alphabet:
                a_moves = a.successors(p, sym)
                for p2 in a_moves:
                    yield sym, ("pre", p2)
                b_entry = b.successors(b.initial, sym)
                for p2 in a_moves:
                    for q2 in b_entry:
                        yield sym, ("u", p2, q2)
        elif phase == "u":
            _, p, q = key
            for sym in alphabet:
                a_moves = a.successors(p, sym)
                b_moves = b.successors(q, sym)
                for p2 in a_moves:
                    for q2 in b_moves:
                        yield sym, ("u", p2, q2)
                        if not require_insertion:
                            yield sym, ("v", p2, q2)
                for q2 in b_moves:
                    yield sym, ("z", p, q2)
        elif phase == "z":
            _, p, q = key
            for sym in alphabet:
                b_moves = b.successors(q, sym)
                for q2 in b_moves:
                    yield sym, ("z", p, q2)
                for p2 in a.successors(p, sym):
                    for q2 in b_moves:
                        yield sym, ("v", p2, q2)
        elif phase == "v":
            _, p, q = key
            for sym in alphabet:
                a_moves = a.successors(p, sym)
                b_moves = b.successors(q, sym)
                for p2 in a_moves:
                    for q2 in b_moves:
                        yield sym, ("v", p2, q2)
                if q in b.finals:
                    for p2 in a_moves:
                        yield sym, ("post", p2)
        else:  # post
            _, p = key
            for sym in alphabet:
                for p2 in a.successors(p, sym):
                    yield sym, ("post", p2)

    def is_final(key) -> bool:
        if key[0] == "v":
            return key[1] in a.finals and key[2] in b.finals
        return key[0] == "post" and key[1] in a.finals

    return alphabet, ("pre", a.initial), expand, is_final


def asdi_nfa_direct(a: Nfa, b: Nfa, require_insertion: bool = False) -> Nfa:
    """NFA for alphabetic site-directed insertion of L(b) into L(a).

    Three phases: host alone, insert automaton alone between the two
    single-letter joint steps, host alone again.
    """
    return _explore(*_asdi_parts(a, b, require_insertion))


def _asdi_parts(a: Nfa, b: Nfa, require_insertion: bool = False) -> tuple:
    """The construction value (alphabet, start, expand, is_final) of
    `asdi_nfa_direct`."""
    alphabet = _require_same_alphabet(a.alphabet, b)

    def expand(key):
        phase = key[0]
        if phase == "pre":
            _, p = key
            for sym in alphabet:
                a_moves = a.successors(p, sym)
                for p2 in a_moves:
                    yield sym, ("pre", p2)
                for p2 in a_moves:
                    for q2 in b.successors(b.initial, sym):
                        # last field: may the inserted middle end here
                        yield sym, ("mid", p2, q2, not require_insertion)
        elif phase == "mid":
            _, p, q, inserted = key
            for sym in alphabet:
                b_moves = b.successors(q, sym)
                for q2 in b_moves:
                    yield sym, ("mid", p, q2, True)
                if inserted and any(q2 in b.finals for q2 in b_moves):
                    for p2 in a.successors(p, sym):
                        yield sym, ("post", p2)
        else:  # post
            _, p = key
            for sym in alphabet:
                for p2 in a.successors(p, sym):
                    yield sym, ("post", p2)

    return alphabet, ("pre", a.initial), expand, lambda key: key[0] == "post" and key[1] in a.finals


def _insertion_parts(variant: SdiVariant, a: Nfa, b: Nfa, require_insertion: bool = False) -> tuple:
    """The one variant-to-construction rule: the alphabetic construction's
    value for ALPHABETIC, the general one's for every other variant."""
    parts = _asdi_parts if variant is SdiVariant.ALPHABETIC else _sdi_parts
    return parts(a, b, require_insertion)


def insertion_nfa(variant: SdiVariant, a: Nfa, b: Nfa) -> Nfa:
    if variant is SdiVariant.GENERAL:
        return sdi_nfa_direct(a, b)
    if variant is SdiVariant.ALPHABETIC:
        return asdi_nfa_direct(a, b)
    raise InputError(f"no regular construction for {variant.value} on two automata")


# -- single fixed inserted word, maximal / minimal ------------------------


def _single_nfa(a: Nfa, y: Word, maximal: bool) -> Nfa:
    """The maximal (or minimal) site-directed insertion of the word y into L(a).

    Guesses the split y = y1·y2·y3 and the insertion site; minimal guesses
    only splits with unbordered y1 and y3 and needs no further check.
    While reading the prefix, the maximal walk keeps a window of the last
    |y|-2 symbols, enough to refuse splits where a nonempty host suffix
    extends the matched prefix y1 into y1·y2.  After y, it matches the
    first host symbols against the precomputed forbidden continuations
    of y3 (a track of None: none is left).  A post key keeps the split
    only in the maximal walk.
    """
    if len(y) < 2:
        raise InputError("inserted word must have length at least 2")
    a.alphabet.check_word(y)
    k = len(y)
    width = k - 2 if maximal else 0  # the window; (s + sym)[-0:] would keep all of s
    splits = [
        (i, j)
        for i in range(1, k)
        for j in range(i, k)
        if maximal or (unbordered(y[:i]) and unbordered(y[j:]))
    ]
    forbidden: dict[tuple[int, int], frozenset[str]] = {}
    for i, j in splits:
        y23, y3 = y[i:], y[j:]
        tails = [y23[-(len(y3) + pp) :] for pp in range(1, j - i + 1)] if maximal else []
        forbidden[i, j] = frozenset(tail[len(y3) :] for tail in tails if tail[: len(y3)] == y3)

    def blocked_left(window: str, i: int, j: int) -> bool:
        limit = min(len(window), j - i)
        return any(window[-off:] + y[:i] == y[: off + i] for off in range(1, limit + 1))

    def expand(key):
        phase = key[0]
        if phase == "pre":
            _, p, window = key
            for sym in a.alphabet:
                a_moves = a.successors(p, sym)
                shifted = (window + sym)[-width:] if width else ""
                for p2 in a_moves:
                    yield sym, ("pre", p2, shifted)
                if sym == y[0]:
                    for i, j in splits:
                        if blocked_left(window, i, j):
                            continue
                        for p2 in a_moves:
                            yield sym, ("y", (i, j), 1, p2)
        elif phase == "y":
            _, split, pos, p = key
            i, j = split
            sym = y[pos]
            targets = (p,) if i <= pos < j else a.successors(p, sym)
            for p2 in targets:
                if pos + 1 == k:
                    track = "" if forbidden[split] else None
                    yield sym, ("post", split if maximal else None, p2, track)
                else:
                    yield sym, ("y", split, pos + 1, p2)
        else:  # post
            _, split, p, track = key
            for sym in a.alphabet:
                nxt = None
                if track is not None:
                    extended = track + sym
                    if extended in forbidden[split]:
                        continue
                    nxt = None if len(extended) >= split[1] - split[0] else extended
                for p2 in a.successors(p, sym):
                    yield sym, ("post", split, p2, nxt)

    start = ("pre", a.initial, "")
    return trim(_explore(a.alphabet, start, expand, lambda key: key[0] == "post" and key[2] in a.finals))


def max_sdi_single_nfa(a: Nfa, y: Word) -> Nfa:
    """NFA for the maximal site-directed insertion of the word y into L(a)."""
    return _single_nfa(a, y, True)


def min_sdi_single_nfa(a: Nfa, y: Word) -> Nfa:
    """NFA for the minimal site-directed insertion of the word y into L(a)."""
    return _single_nfa(a, y, False)


def _finite_operand(variant: SdiVariant, words: set[Word] | list[Word], alphabet: Alphabet) -> list[Word]:
    """The distinct words of a finite operand in (len, w) order, which
    fixes the bytes built from them, each checked against `alphabet`."""
    if variant not in (SdiVariant.MAXIMAL, SdiVariant.MINIMAL):
        raise InputError("variant must be maximal or minimal")
    ordered = sorted(set(words), key=lambda w: (len(w), w))
    for w in ordered:
        alphabet.check_word(w)
    return ordered


def regular_max_sdi_finite(a: Nfa, words: set[Word] | list[Word], variant: SdiVariant) -> Nfa:
    """L(a) max/min-inserted with each word of a finite language.

    Every word is checked against the alphabet first; words shorter
    than 2 admit no nontrivial outfix and are then skipped.
    """
    ordered = _finite_operand(variant, words, a.alphabet)
    build = max_sdi_single_nfa if variant is SdiVariant.MAXIMAL else min_sdi_single_nfa
    parts = [build(a, y) for y in ordered if len(y) >= 2]
    return trim(union_all(parts, a.alphabet))


# -- finite host language, regular inserted language ----------------------


def finite_into_regular(variant: SdiVariant, words: set[Word] | list[Word], a: Nfa) -> Nfa:
    """Max/min insertion of the regular language L(a) into finite host words.

    One walk reads w = x1·u·z·v·x2 for a host x = x1·u·v·x2 and y = u·z·v
    in L(a): u and v with x and `a` together, z with `a` alone, host
    prefixes and suffixes shared by the hosts.  Minimal needs u and v
    unbordered.  Maximal keeps `_maximal_site_in_word`'s two windows open
    with two sets over z: `left`, the unmatched lengths of the x[b-m:b]
    with x[p-m:b-m] = u (z matching one whole gives x1'·u = u·z'), and
    `right`, the m with z ending in x[b:b+m] (x[b+m:e+m] = v then gives
    v·x2' = z''·v).  The state budget bounds the keys of the whole walk.
    """
    hosts = _finite_operand(variant, words, a.alphabet)
    maximal = variant is SdiVariant.MAXIMAL
    prefixes = {x[:i] for x in hosts for i in range(len(x) + 1)}

    def expand(key):
        phase = key[0]
        if phase == "pre":
            _, s = key
            p = len(s)
            for sym in a.alphabet:
                if s + sym in prefixes:
                    yield sym, ("pre", s + sym)
            for x in hosts:
                if len(x) > p + 1 and x.startswith(s):
                    for q in a.successors(a.initial, x[p]):
                        yield x[p], ("u", x, p, p + 1, q)
        elif phase == "u":  # u = x[p:b], and v = x[b:e] is still to come
            _, x, p, b, q = key
            if b + 1 < len(x):
                for q2 in a.successors(q, x[b]):
                    yield x[b], ("u", x, p, b + 1, q2)
            if maximal or unbordered(x[p:b]):
                left = frozenset(m for m in range(1, p + 1) if maximal and x[p - m : b - m] == x[p:b])
                yield None, ("z", x, b, q, left, frozenset())
        elif phase == "z":
            _, x, b, q, left, right = key
            for q2 in a.successors(q, x[b]):
                yield x[b], ("v", x, b, b + 1, q2, right)
            for sym in a.alphabet:
                if 1 in left and x[b - 1] == sym:  # z completes a piece: x1'·u = u·z'
                    continue
                left2 = frozenset(r - 1 for r in left if r > 1 and x[b - r] == sym)
                right2 = frozenset(
                    m + 1 for m in (0, *right) if maximal and b + m + 1 < len(x) and x[b + m] == sym
                )
                for q2 in a.successors(q, sym):
                    yield sym, ("z", x, b, q2, left2, right2)
        elif phase == "v":
            _, x, b, e, q, right = key
            if e < len(x):
                for q2 in a.successors(q, x[e]):
                    yield x[e], ("v", x, b, e + 1, q2, right)
            v = x[b:e]
            if q in a.finals and (maximal or unbordered(v)) and all(x[b + m : e + m] != v for m in right):
                yield None, ("post", x[e:])
        else:  # post
            _, rest = key
            if rest:
                yield rest[0], ("post", rest[1:])

    return trim(_explore(a.alphabet, ("pre", ""), expand, lambda key: key == ("post", "")))


# -- polynomial membership deciders ---------------------------------------


def _maximal_site_in_word(w: Word, a_: int, b_: int, c_: int, d_: int) -> bool:
    """Maximality of the site w = w[:a]·u·z·v·w[d:] with u = w[a:b],
    z = w[b:c], v = w[c:d], checked through the two one-sided window
    conditions (independent of the oracle's formulation)."""
    for off in range(1, min(a_, c_ - b_) + 1):
        if w[a_ - off : b_] == w[a_ : b_ + off]:
            return False
    for off in range(1, min(len(w) - d_, c_ - b_) + 1):
        if w[c_ : d_ + off] == w[c_ - off : d_]:
            return False
    return True


def _insertion_membership(variant: SdiVariant, w: Word, a: Nfa, b: Nfa) -> bool:
    """Scan the sites w = w[:aa]·u·z·v·w[dd:] (u = w[aa:bb], z = w[bb:cc],
    v = w[cc:dd]) for one valid for the variant.  A forward and a backward
    run of `a` over w make each host test w[:bb] + w[cc:] one bitset AND; at
    most |w| runs of `b`, one per start aa, give the ends dd of the accepted
    inserted words w[aa:dd] as one bitset.  The site predicate, O(|w|^2),
    runs only where both are accepted (O(|w|^4) sites at worst), and the
    first valid site ends the scan."""
    _require_same_alphabet(a.alphabet, b)
    a.alphabet.check_word(w)
    n, masks = len(w), a._masks
    reached = [1 << a.initial]  # reached[i]: the states of `a` after w[:i]
    for sym in w:
        reached.append(reached[-1] and _advance(reached[-1], masks[sym]))
    alive = [0] * n + [a._final_bits]  # alive[j]: the states from which w[j:] is accepted
    for j in range(n - 1, -1, -1):
        alive[j] = _mask(q for q, succ in enumerate(masks[w[j]]) if succ & alive[j + 1])

    @cache
    def ends(aa: int) -> int:  # the bitset of the dd with w[aa:dd] in L(b)
        states, found = 1 << b.initial, 0
        for dd in range(aa + 1, n + 1):
            states = _advance(states, b._masks[w[dd - 1]])
            if not states:
                break
            if states & b._final_bits:
                found |= 1 << dd
        return found

    for bb in range(1, n):
        for cc in range(bb, n):
            if not reached[bb] & alive[cc]:  # the host w[:bb] + w[cc:] is not in L(a)
                continue
            for aa in range(bb):
                for dd in _bits(ends(aa) & (-1 << (cc + 1))):
                    if variant is SdiVariant.MAXIMAL:
                        if _maximal_site_in_word(w, aa, bb, cc, dd):
                            return True
                    elif unbordered(w[aa:bb]) and unbordered(w[cc:dd]):
                        return True
    return False


def max_sdi_membership(w: Word, a: Nfa, b: Nfa) -> bool:
    """Does maximal insertion of some word of L(b) into L(a) produce w?

    Polynomial: one forward and one backward run of `a` over w, at most
    |w| runs of `b`, and the maximality check only at the sites whose host
    and inserted words are accepted (see `_insertion_membership`).
    """
    return _insertion_membership(SdiVariant.MAXIMAL, w, a, b)


def min_sdi_membership(w: Word, a: Nfa, b: Nfa) -> bool:
    """Does minimal insertion of some word of L(b) into L(a) produce w?
    Same scan and cost as `max_sdi_membership`."""
    return _insertion_membership(SdiVariant.MINIMAL, w, a, b)


# -- bounded enumeration of any variant -----------------------------------


def bounded_insertion_words(variant: SdiVariant, a: Nfa, b: Nfa, max_len: int) -> Iterator[Word]:
    """The words of L(a) op L(b) of length <= max_len, lazily, in length-lex order.

    Maximal and minimal insertion of two regular languages need not be
    regular, so for them this walks the general construction and keeps
    the words the polynomial decider accepts.  That is exact: every
    max/min output is a general output whose site is maximal/minimal.
    The walk is `length_lex_words`, so a caller that stops at a word
    enumerates nothing past it.
    """
    if variant in (SdiVariant.GENERAL, SdiVariant.ALPHABETIC):
        yield from length_lex_words(insertion_nfa(variant, a, b), max_len)
        return
    for w in length_lex_words(sdi_nfa_direct(a, b), max_len):
        if _insertion_membership(variant, w, a, b):
            yield w
