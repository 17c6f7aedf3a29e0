"""Shuffle and deletion guided by regular trajectory languages.

A shuffle trajectory over {0,1,s} interleaves two words: 0 takes a symbol
from the left operand, 1 from the right, s synchronizes one matching
symbol of both.  A deletion trajectory over {i,d,s} rebuilds the left
operand while deleting the right: i keeps a symbol, d deletes a matched
symbol, s keeps a matched symbol.  Both operations preserve regularity
for regular trajectory sets, via product constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .automata import Alphabet, InputError, Nfa, _explore, trim

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
    advances all three on the same input symbol.
    """
    if t.kind is not TrajectoryKind.SHUFFLE:
        raise InputError("shuffle_nfa needs a shuffle-kind trajectory language")
    alphabet = a.alphabet
    if b.alphabet != alphabet:
        raise InputError("operand alphabets differ")
    traj = t.automaton

    def expand(key: tuple[int, int, int]):
        p, q, r = key
        zero_steps = traj.successors(r, "0")
        one_steps = traj.successors(r, "1")
        sync_steps = traj.successors(r, "s")
        for sym in alphabet:
            for p2 in a.successors(p, sym):
                for r2 in zero_steps:
                    yield sym, (p2, q, r2)
            for q2 in b.successors(q, sym):
                for r2 in one_steps:
                    yield sym, (p, q2, r2)
            if sync_steps:
                for p2 in a.successors(p, sym):
                    for q2 in b.successors(q, sym):
                        for r2 in sync_steps:
                            yield sym, (p2, q2, r2)

    return trim(_explore(alphabet, (a.initial, b.initial, traj.initial), expand, _all_final(a, b, traj)))


def deletion_nfa(a: Nfa, b: Nfa, t: TrajectoryLanguage) -> Nfa:
    """NFA for deleting L(b) from L(a) along trajectories L(t).

    d-steps consume no input symbol, so the product is explored with
    internal epsilon moves, which `_explore` folds away before it builds
    the automaton.
    """
    if t.kind is not TrajectoryKind.DELETION:
        raise InputError("deletion_nfa needs a deletion-kind trajectory language")
    alphabet = a.alphabet
    if b.alphabet != alphabet:
        raise InputError("operand alphabets differ")
    traj = t.automaton

    def expand(key: tuple[int, int, int]):
        p, q, r = key
        keep_steps = traj.successors(r, "i")
        del_steps = traj.successors(r, "d")
        sync_steps = traj.successors(r, "s")
        for sym in alphabet:
            for p2 in a.successors(p, sym):
                for r2 in keep_steps:
                    yield sym, (p2, q, r2)
                if sync_steps:
                    for q2 in b.successors(q, sym):
                        for r2 in sync_steps:
                            yield sym, (p2, q2, r2)
                if del_steps:
                    for q2 in b.successors(q, sym):
                        for r2 in del_steps:
                            yield None, (p2, q2, r2)

    return trim(_explore(alphabet, (a.initial, b.initial, traj.initial), expand, _all_final(a, b, traj)))


def reversed_deletion(a: Nfa, b: Nfa, t: TrajectoryLanguage) -> Nfa:
    """Deletion with the operand roles swapped: delete L(a) from L(b)."""
    return deletion_nfa(b, a, t)


def _all_final(a: Nfa, b: Nfa, traj: Nfa):
    """Finality of a product key (state of a, state of b, state of traj)."""
    return lambda key: key[0] in a.finals and key[1] in b.finals and key[2] in traj.finals

