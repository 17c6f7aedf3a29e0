"""Shuffle and deletion guided by regular trajectory languages.

A shuffle trajectory over {0,1,s} interleaves two words: 0 takes a symbol
from the left operand, 1 from the right, s synchronizes one matching
symbol of both.  A deletion trajectory over {i,d,s} rebuilds the left
operand while deleting the right: i keeps a symbol, d deletes a matched
symbol, s keeps a matched symbol.  Both operations preserve regularity
for regular trajectory sets, via product constructions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .automata import Alphabet, InputError, Nfa, _explore, _reach, trim

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


_NAMED_BUILDERS = {
    # shuffle trajectories guiding insertion: x-symbols on 0, y on 1
    "T_sdi": lambda: TrajectoryLanguage(
        TrajectoryKind.SHUFFLE, _two_sync_blocks("0", "1", SHUFFLE_ALPHABET, plus=True)
    ),
    "T_asdi": lambda: TrajectoryLanguage(
        TrajectoryKind.SHUFFLE, _two_sync_blocks("0", "1", SHUFFLE_ALPHABET, plus=False)
    ),
    # deletion trajectories for the two inverse directions
    "T1": lambda: TrajectoryLanguage(
        TrajectoryKind.DELETION, _two_sync_blocks("i", "d", DELETION_ALPHABET, plus=True)
    ),
    "T1a": lambda: TrajectoryLanguage(
        TrajectoryKind.DELETION, _two_sync_blocks("i", "d", DELETION_ALPHABET, plus=False)
    ),
    "T2": lambda: TrajectoryLanguage(
        TrajectoryKind.DELETION, _two_sync_blocks("d", "i", DELETION_ALPHABET, plus=True)
    ),
    "T2a": lambda: TrajectoryLanguage(
        TrajectoryKind.DELETION, _two_sync_blocks("d", "i", DELETION_ALPHABET, plus=False)
    ),
}

NAMED_TRAJECTORIES = tuple(sorted(_NAMED_BUILDERS))


def named_trajectory(name: str) -> NamedTrajectory:
    try:
        builder = _NAMED_BUILDERS[name]
    except KeyError:
        raise InputError(
            f"unknown trajectory {name!r}; known: {', '.join(NAMED_TRAJECTORIES)}"
        ) from None
    return NamedTrajectory(name, builder())


def plain_shuffle_trajectories() -> TrajectoryLanguage:
    """All of {0,1}*: ordinary (unsynchronized) shuffle."""
    trans = {(0, "0", 0), (0, "1", 0)}
    return TrajectoryLanguage(
        TrajectoryKind.SHUFFLE, Nfa(SHUFFLE_ALPHABET, 1, 0, frozenset({0}), frozenset(trans))
    )


def shuffle_nfa(a: Nfa, b: Nfa, t: TrajectoryLanguage) -> Nfa:
    """NFA for the semantic shuffle of L(a) and L(b) on trajectories L(t).

    Product over reachable triples (state of a, state of b, state of t):
    a 0-step advances a and t, a 1-step advances b and t, an s-step
    advances all three on the same input symbol.  The moves of b and t
    come from a table of their live pairs (`_live_moves`), built once per
    call: for each pair (q, r) and symbol, the targets (q, r2) of the
    0-steps, then (q2, r2) of the 1-steps, then of the s-steps, in the
    order the product yields them.  Keys over dead pairs reach no final
    key and are never numbered; the other keys keep their relative ids,
    so the result is byte for byte the one the full product trims to
    (see `_live_moves`).
    """
    if t.kind is not TrajectoryKind.SHUFFLE:
        raise InputError("shuffle_nfa needs a shuffle-kind trajectory language")
    alphabet = a.alphabet
    if b.alphabet != alphabet:
        raise InputError("operand alphabets differ")
    traj = t.automaton

    def steps(q: int, r: int, sym: str):
        zero, one, sync = (traj.successors(r, label) for label in "01s")
        targets = b.successors(q, sym)
        return (
            [(q, r2) for r2 in zero],
            [(q2, r2) for q2 in targets for r2 in one],
            [(q2, r2) for q2 in targets for r2 in sync],
        )

    table, successors = _live_moves(b, traj, steps), a.successors

    def expand(key: tuple[int, int, int]):
        p, q, r = key
        for sym, zeros, ones, syncs in table[q, r]:
            targets = successors(p, sym)
            for p2 in targets:
                for _, r2 in zeros:
                    yield sym, (p2, q, r2)
            for q2, r2 in ones:
                yield sym, (p, q2, r2)
            for p2 in targets:
                for q2, r2 in syncs:
                    yield sym, (p2, q2, r2)

    return trim(_explore(alphabet, (a.initial, b.initial, traj.initial), expand, _all_final(a, b, traj)))


def deletion_nfa(a: Nfa, b: Nfa, t: TrajectoryLanguage) -> Nfa:
    """NFA for deleting L(b) from L(a) along trajectories L(t).

    Product over reachable triples (state of a, state of b, state of t):
    an i-step advances a and t, an s-step all three on the same symbol,
    a d-step too, but it consumes no input symbol, so the product is
    explored with internal epsilon moves, which `_explore` folds away
    before it builds the automaton.  The moves of b and t come from a
    table of their live pairs (`_live_moves`), built once per call: for
    each pair (q, r) and symbol, the steps (label, q2, r2) of the
    i-steps, then the s-steps, then the d-steps (label None), in the
    order the product yields them, so a key costs one `a.successors`
    call per symbol.  Keys over dead pairs reach no final key and are
    never numbered; the other keys keep their relative ids and lose only
    epsilon targets over dead pairs, so the result is byte for byte the
    one the full product trims to (see `_live_moves`).
    """
    if t.kind is not TrajectoryKind.DELETION:
        raise InputError("deletion_nfa needs a deletion-kind trajectory language")
    alphabet = a.alphabet
    if b.alphabet != alphabet:
        raise InputError("operand alphabets differ")
    traj = t.automaton

    def steps(q: int, r: int, sym: str):
        keep, drop, sync = (traj.successors(r, label) for label in "ids")
        targets = b.successors(q, sym)
        return (
            [(sym, q, r2) for r2 in keep]
            + [(sym, q2, r2) for q2 in targets for r2 in sync]
            + [(None, q2, r2) for q2 in targets for r2 in drop],
        )

    table, successors = _live_moves(b, traj, steps), a.successors

    def expand(key: tuple[int, int, int]):
        p, q, r = key
        for sym, moves in table[q, r]:
            for p2 in successors(p, sym):
                for label, q2, r2 in moves:
                    yield label, (p2, q2, r2)

    return trim(_explore(alphabet, (a.initial, b.initial, traj.initial), expand, _all_final(a, b, traj)))


def _live_moves(b: Nfa, traj: Nfa, steps: Callable[[int, int, str], tuple[list, ...]]) -> dict:
    """The move table of a product with b and traj: for each pair (q, r)
    of a state of b and a state of traj, the entries (symbol, *lists) of
    `steps(q, r, symbol)`, lists of steps that each end in their target
    pair, with only the steps into live pairs, and only the symbols left
    with a step.

    A pair is live if the pair graph of the steps reaches from it a pair
    of a final of b and a final of traj.  Every path of the product with
    a projects onto a path of the pair graph, so a key over a dead pair
    reaches no final key.  Such keys lead only to keys over dead pairs,
    so leaving them out of `_explore`'s walk leaves the order in which
    it visits the other keys, and their relative ids, as they were; an
    epsilon closure loses only targets over dead pairs, and `trim` drops
    all of these keys anyway.  So the trimmed automaton keeps its bytes,
    and the state cap counts only keys over live pairs.
    """
    pairs = itertools.product(range(b.state_count), range(traj.state_count))
    moves = {(q, r): [(sym, *steps(q, r, sym)) for sym in b.alphabet] for q, r in pairs}
    back: dict = {}
    for pair, row in moves.items():
        for _, *lists in row:
            for step in itertools.chain.from_iterable(lists):
                back.setdefault(step[-2:], []).append(pair)
    live = _reach(itertools.product(b.finals, traj.finals), back)
    table = {}
    for pair, row in moves.items():
        entries = [(sym, *([s for s in kept if s[-2:] in live] for kept in lists)) for sym, *lists in row]
        table[pair] = [entry for entry in entries if any(entry[1:])]
    return table


def reversed_deletion(a: Nfa, b: Nfa, t: TrajectoryLanguage) -> Nfa:
    """Deletion with the operand roles swapped: delete L(a) from L(b)."""
    return deletion_nfa(b, a, t)


def _all_final(a: Nfa, b: Nfa, traj: Nfa):
    """Finality of a product key (state of a, state of b, state of traj)."""
    return lambda key: key[0] in a.finals and key[1] in b.finals and key[2] in traj.finals

