"""Shuffle and deletion guided by regular trajectory languages.

A shuffle trajectory over {0,1,s} interleaves two words: 0 takes a symbol
from the left operand, 1 from the right, s synchronizes one matching
symbol of both.  A deletion trajectory over {i,d,s} rebuilds the left
operand while deleting the right: i keeps a symbol, d deletes a matched
symbol, s keeps a matched symbol.  Both operations preserve regularity
for regular trajectory sets: each is one product walk (`_product`) over
(state of the left operand, state of the right, trajectory state), and
`shuffle_nfa` and `deletion_nfa` differ only in their row of the letter
table `_LETTERS`, which says for each trajectory letter which operands
advance and whether it writes the symbol.  Both are the trimmed
`_explore` run of that walk; the equation solver reuses the untrimmed
deletion product (`_deletion_parts`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .automata import Alphabet, InputError, Nfa, _explore, _reach, _require_same_alphabet, trim

SHUFFLE_ALPHABET = Alphabet.from_string("01s")
DELETION_ALPHABET = Alphabet.from_string("ids")


class TrajectoryKind(Enum):
    SHUFFLE = "shuffle"
    DELETION = "deletion"


_KIND_ALPHABETS = {
    TrajectoryKind.SHUFFLE: SHUFFLE_ALPHABET,
    TrajectoryKind.DELETION: DELETION_ALPHABET,
}


@dataclass(frozen=True)
class TrajectoryLanguage:
    kind: TrajectoryKind
    automaton: Nfa

    def __post_init__(self):
        expected = _KIND_ALPHABETS[self.kind]
        if self.automaton.alphabet != expected:
            raise InputError(
                f"{self.kind.value} trajectory automaton must use alphabet "
                f"{{{','.join(expected)}}}"
            )


@dataclass(frozen=True)
class NamedTrajectory:
    name: str
    language: TrajectoryLanguage


def _two_sync_blocks(loop_sym: str, mid_sym: str, alphabet: Alphabet, plus: bool) -> Nfa:
    """Automaton for  loop* s-block mid* s-block loop*  where an s-block is
    s+ (plus=True) or a single s."""
    if plus:
        # 0: leading loop, 1: first s-block, 2: middle, 3: second s-block,
        # 4: trailing loop
        trans = {
            (0, loop_sym, 0),
            (0, "s", 1),
            (1, "s", 1),
            (1, mid_sym, 2),
            (1, "s", 3),
            (2, mid_sym, 2),
            (2, "s", 3),
            (3, "s", 3),
            (3, loop_sym, 4),
            (4, loop_sym, 4),
        }
        return Nfa(alphabet, 5, 0, frozenset({3, 4}), frozenset(trans))
    trans = {
        (0, loop_sym, 0),
        (0, "s", 1),
        (1, mid_sym, 1),
        (1, "s", 2),
        (2, loop_sym, 2),
    }
    return Nfa(alphabet, 3, 0, frozenset({2}), frozenset(trans))


_NAMED_SHAPES = {
    # shuffle trajectories guiding insertion: x-symbols on 0, y on 1
    "T_sdi": (TrajectoryKind.SHUFFLE, "0", "1", True),
    "T_asdi": (TrajectoryKind.SHUFFLE, "0", "1", False),
    # deletion trajectories for the two inverse directions
    "T1": (TrajectoryKind.DELETION, "i", "d", True),
    "T1a": (TrajectoryKind.DELETION, "i", "d", False),
    "T2": (TrajectoryKind.DELETION, "d", "i", True),
    "T2a": (TrajectoryKind.DELETION, "d", "i", False),
}

NAMED_TRAJECTORIES = tuple(sorted(_NAMED_SHAPES))


def named_trajectory(name: str) -> NamedTrajectory:
    try:
        kind, loop, mid, plus = _NAMED_SHAPES[name]
    except KeyError:
        raise InputError(
            f"unknown trajectory {name!r}; known: {', '.join(NAMED_TRAJECTORIES)}"
        ) from None
    automaton = _two_sync_blocks(loop, mid, _KIND_ALPHABETS[kind], plus)
    return NamedTrajectory(name, TrajectoryLanguage(kind, automaton))


def shuffle_nfa(a: Nfa, b: Nfa, t: TrajectoryLanguage) -> Nfa:
    """NFA for the semantic shuffle of L(a) and L(b) on trajectories L(t).

    A 0-step reads a symbol of a, a 1-step one of b and an s-step the
    same symbol of both; each advances t.  Built by `_product` from the
    shuffle row of `_LETTERS`: groups of the 0-steps (a advances), the
    1-steps (a stays) and the s-steps (a advances).
    """
    return trim(_explore(*_product(a, b, t, TrajectoryKind.SHUFFLE)))


def deletion_nfa(a: Nfa, b: Nfa, t: TrajectoryLanguage) -> Nfa:
    """NFA for deleting L(b) from L(a) along trajectories L(t).

    An i-step keeps a symbol of a, an s-step keeps a symbol that b reads
    too, and a d-step deletes such a symbol, so it is an epsilon move of
    the result; each advances t.  Built by `_product` from the deletion
    row of `_LETTERS`: one group (a advances) of the i-, s- and d-steps.
    """
    return trim(_explore(*_deletion_parts(a, b, t)))


def _deletion_parts(a: Nfa, b: Nfa, t: TrajectoryLanguage) -> tuple:
    """The construction value of the deletion product (`deletion_nfa`), untrimmed."""
    return _product(a, b, t, TrajectoryKind.DELETION)


# What each trajectory letter does, per kind: groups (a advances, letters),
# each letter (label, b advances, emits); a letter that does not emit the
# symbol is an epsilon move.  The order of groups and letters fixes the ids.
_LETTERS = {
    TrajectoryKind.SHUFFLE: (
        (True, (("0", False, True),)), (False, (("1", True, True),)), (True, (("s", True, True),))),
    TrajectoryKind.DELETION: ((True, (("i", False, True), ("s", True, True), ("d", True, False))),),
}


def _product(a: Nfa, b: Nfa, t: TrajectoryLanguage, kind: TrajectoryKind) -> tuple:
    """The construction value (alphabet, start, expand, is_final) of the
    product of a, b and t's automaton over reachable keys (p, q, r), a
    state of each, stepped by the letters of `kind` in `_LETTERS`.  A key
    steps through the entries (symbol, a advances, moves) that
    `_live_moves` lists for (q, r), and in each to (p2, q2, r2) for every
    move (label, q2, r2), with p2 every successor of p on the symbol if a
    advances, else p itself; label None is an epsilon move, which
    `_explore` folds away.  So the order, which fixes the ids, is symbol,
    group, successor of p, letter, successor of q, successor of r.
    """
    if t.kind is not kind:
        raise InputError(f"{kind.value}_nfa needs a {kind.value}-kind trajectory language")
    _require_same_alphabet(a.alphabet, b)
    traj = t.automaton
    table, successors = _live_moves(b, traj, _LETTERS[kind]), a.successors

    def expand(key: tuple[int, int, int]):
        p, q, r = key
        for sym, advances, moves in table[q, r]:
            for p2 in successors(p, sym) if advances else (p,):
                for label, q2, r2 in moves:
                    yield label, (p2, q2, r2)

    return a.alphabet, (a.initial, b.initial, traj.initial), expand, _all_final(a, b, traj)


def _live_moves(b: Nfa, traj: Nfa, letters: tuple) -> dict:
    """The move table of a product with b and traj, built from `letters`
    (a row of `_LETTERS`): for each pair (q, r) of a state of b and a
    state of traj, the entries (symbol, a advances, moves) by symbol,
    then group, each move (label, q2, r2) labelled None if its letter
    does not emit the symbol; only the moves into live pairs are kept,
    and only the entries left with a move.

    A pair is live if the pair graph of the moves reaches from it a pair
    of a final of b and a final of traj.  Every path of the product with
    a projects onto a path of the pair graph, so a key over a dead pair
    reaches no final key.  Such keys lead only to keys over dead pairs,
    so leaving them out of `_explore`'s walk leaves the order in which
    it visits the other keys, and their relative ids, as they were; an
    epsilon closure loses only targets over dead pairs, and `trim` drops
    all of these keys anyway.  So the trimmed automaton keeps its bytes,
    and the state budget counts only keys over live pairs.
    """
    pairs = itertools.product(range(b.state_count), range(traj.state_count))
    moves = {(q, r): [(sym, advances, [(sym if emits else None, q2, r2) for label, b_advances, emits in group
                                      for q2 in (b.successors(q, sym) if b_advances else (q,))
                                      for r2 in traj.successors(r, label)])
                      for sym in b.alphabet for advances, group in letters] for q, r in pairs}
    back: dict = {}
    for pair, row in moves.items():
        for _, _, group in row:
            for _, q2, r2 in group:
                back.setdefault((q2, r2), []).append(pair)
    live = _reach(itertools.product(b.finals, traj.finals), back)
    return {pair: [(sym, advances, kept) for sym, advances, group in row
                   if (kept := [m for m in group if m[1:] in live])] for pair, row in moves.items()}


def _all_final(a: Nfa, b: Nfa, traj: Nfa):
    """Finality of a product key (state of a, state of b, state of traj)."""
    return lambda key: key[0] in a.finals and key[1] in b.finals and key[2] in traj.finals
