import itertools
import random

import pytest

from sdikit import automata
from sdikit import (
    InputError,
    Nfa,
    SdiVariant,
    TrajectoryKind,
    TrajectoryLanguage,
    complement,
    delete_on_trajectory,
    deletion_nfa,
    enumerate_language,
    membership,
    named_trajectory,
    scan_language,
    shuffle_nfa,
    trim,
)
from sdikit.complexity import random_nfa
from sdikit.textio import serialize_automaton
from sdikit.trajectories import DELETION_ALPHABET, NAMED_TRAJECTORIES, SHUFFLE_ALPHABET, _all_final

from conftest import AB, ABC, all_words, blowup, count_numbered, plain_shuffle, wide_random_nfa


def test_named_trajectory_membership():
    t_asdi = named_trajectory("T_asdi").language.automaton
    assert membership(t_asdi, "ss")
    assert membership(t_asdi, "0ss0")
    assert not membership(t_asdi, "ss0s")
    t_sdi = named_trajectory("T_sdi").language.automaton
    assert not membership(t_sdi, "")
    assert not membership(t_sdi, "000")
    assert not membership(t_sdi, "0s0")  # only one sync block
    assert membership(t_sdi, "0s1s0")
    assert membership(t_sdi, "ss")
    t1 = named_trajectory("T1").language.automaton
    assert membership(t1, "isdsi")
    with pytest.raises(InputError):
        named_trajectory("T3")


def _pattern_words(loop, mid, plus, max_len):
    """Expected words of loop* block mid* block loop* for cross-checking."""
    out = set()
    for total in range(max_len + 1):
        for split in itertools.product(range(total + 1), repeat=4):
            a, b, c, d = split
            e = total - a - b - c - d
            if e < 0:
                continue
            if plus and (b < 1 or d < 1):
                continue
            if not plus and (b != 1 or d != 1):
                continue
            out.add(loop * a + "s" * b + mid * c + "s" * d + loop * e)
    return out


@pytest.mark.parametrize(
    "name,loop,mid,plus",
    [
        ("T_sdi", "0", "1", True),
        ("T_asdi", "0", "1", False),
        ("T1", "i", "d", True),
        ("T1a", "i", "d", False),
        ("T2", "d", "i", True),
        ("T2a", "d", "i", False),
    ],
)
def test_named_trajectory_languages(name, loop, mid, plus):
    auto = named_trajectory(name).language.automaton
    got = set(enumerate_language(auto, 6))
    assert got == _pattern_words(loop, mid, plus, 6)


def test_trajectory_alphabet_validation():
    with pytest.raises(InputError):
        TrajectoryLanguage(TrajectoryKind.SHUFFLE, Nfa.universal(AB))
    with pytest.raises(InputError):
        TrajectoryLanguage(TrajectoryKind.SHUFFLE, Nfa.universal(DELETION_ALPHABET))


def _interleavings(x, y):
    if not x:
        return {y}
    if not y:
        return {x}
    return {x[0] + w for w in _interleavings(x[1:], y)} | {
        y[0] + w for w in _interleavings(x, y[1:])
    }


def test_plain_shuffle_is_ordinary_interleaving():
    astar = Nfa(AB, 1, 0, frozenset({0}), frozenset({(0, "a", 0)}))
    bstar = Nfa(AB, 1, 0, frozenset({0}), frozenset({(0, "b", 0)}))
    got = set(enumerate_language(shuffle_nfa(astar, bstar, plain_shuffle()), 5))
    expected = set()
    for la in range(6):
        for lb in range(6 - la):
            expected |= _interleavings("a" * la, "b" * lb)
    assert got == expected


def test_empty_trajectory_set_gives_empty_language():
    t = TrajectoryLanguage(
        TrajectoryKind.SHUFFLE, Nfa.empty_language(SHUFFLE_ALPHABET)
    )
    rng = random.Random(61)
    a, b = random_nfa(rng, 3, AB), random_nfa(rng, 3, AB)
    assert enumerate_language(shuffle_nfa(a, b, t), 6) == []


def test_shuffle_tsdi_matches_oracle():
    rng = random.Random(67)
    t_sdi = named_trajectory("T_sdi").language
    candidates = all_words("ab", 7)
    for _ in range(25):
        a = random_nfa(rng, rng.randint(1, 3), AB)
        b = random_nfa(rng, rng.randint(1, 3), AB)
        got = set(enumerate_language(shuffle_nfa(a, b, t_sdi), 7))
        hosts = set(enumerate_language(a, 7))
        inserted = set(enumerate_language(b, 7))
        assert got == scan_language(SdiVariant.GENERAL, candidates, hosts, inserted)


def test_shuffle_kind_mismatch():
    t1 = named_trajectory("T1").language
    with pytest.raises(InputError, match="^shuffle_nfa needs a shuffle-kind trajectory language$"):
        shuffle_nfa(Nfa.universal(AB), Nfa.universal(AB), t1)
    t_sdi = named_trajectory("T_sdi").language
    with pytest.raises(InputError, match="^deletion_nfa needs a deletion-kind trajectory language$"):
        deletion_nfa(Nfa.universal(AB), Nfa.universal(AB), t_sdi)


@pytest.mark.parametrize("build,name", [(shuffle_nfa, "T_sdi"), (deletion_nfa, "T1")])
def test_operand_alphabets_must_match(build, name):
    with pytest.raises(InputError, match="^operand alphabets differ: 'ab' vs 'abc'$"):
        build(Nfa.universal(AB), Nfa.universal(ABC), named_trajectory(name).language)


def test_deletion_idistar_contains_expected():
    from sdikit import Alphabet

    sig = Alphabet.from_string("abc")
    x = Nfa.from_word("abc", sig)
    y = Nfa.from_word("b", sig)
    traj = TrajectoryLanguage(
        TrajectoryKind.DELETION,
        Nfa(DELETION_ALPHABET, 2, 0, frozenset({0, 1}),
            frozenset({(0, "i", 0), (0, "d", 1), (1, "i", 1)})),
    )
    assert enumerate_language(deletion_nfa(x, y, traj), 4) == ["ac"]


def _t1_trajectories(xlen):
    """Words of i^a s^b d^c s^d i^e of total length xlen with b, d >= 1."""
    for a in range(xlen + 1):
        for b in range(1, xlen - a + 1):
            for c in range(xlen - a - b + 1):
                for d in range(1, xlen - a - b - c + 1):
                    e = xlen - a - b - c - d
                    yield "i" * a + "s" * b + "d" * c + "s" * d + "i" * e


def test_deletion_t1_matches_trajectory_oracle():
    # finite deleted language keeps the bounded comparison exhaustive:
    # outputs of length <= 4 need hosts of length <= 4 + max|y| = 7
    rng = random.Random(89)
    t1 = named_trajectory("T1").language
    for _ in range(10):
        a = random_nfa(rng, rng.randint(1, 3), AB)
        ys = {w for w in all_words("ab", 3) if rng.random() < 0.3}
        b = Nfa.from_words(ys, AB)
        got = {w for w in enumerate_language(deletion_nfa(a, b, t1), 4)}
        expected = set()
        for x in enumerate_language(a, 7):
            for t in _t1_trajectories(len(x)):
                for y in ys:
                    out = delete_on_trajectory(x, y, t)
                    if out is not None and len(out) <= 4:
                        expected.add(out)
        assert got == expected


def _full_shuffle(a, b, traj):
    """`shuffle_nfa` as a walk over every move of b and traj, dead pairs
    included: the reference for the live-pair table."""

    def expand(key):
        p, q, r = key
        zero_steps, one_steps, sync_steps = (traj.successors(r, label) for label in "01s")
        for sym in a.alphabet:
            for p2 in a.successors(p, sym):
                for r2 in zero_steps:
                    yield sym, (p2, q, r2)
            for q2 in b.successors(q, sym):
                for r2 in one_steps:
                    yield sym, (p, q2, r2)
            for p2 in a.successors(p, sym):
                for q2 in b.successors(q, sym):
                    for r2 in sync_steps:
                        yield sym, (p2, q2, r2)

    return trim(automata._explore(a.alphabet, (a.initial, b.initial, traj.initial), expand, _all_final(a, b, traj)))


def _full_deletion(a, b, traj):
    """`deletion_nfa` as a walk over every move of b and traj, dead pairs
    included: the reference for the live-pair table."""

    def expand(key):
        p, q, r = key
        keep_steps, del_steps, sync_steps = (traj.successors(r, label) for label in "ids")
        for sym in a.alphabet:
            for p2 in a.successors(p, sym):
                for r2 in keep_steps:
                    yield sym, (p2, q, r2)
                for q2 in b.successors(q, sym):
                    for r2 in sync_steps:
                        yield sym, (p2, q2, r2)
                for q2 in b.successors(q, sym):
                    for r2 in del_steps:
                        yield None, (p2, q2, r2)

    return trim(automata._explore(a.alphabet, (a.initial, b.initial, traj.initial), expand, _all_final(a, b, traj)))


def _random_trajectory(rng, alphabet):
    """A random trajectory automaton, any initial state, possibly no final
    state, with a state that reaches no final state."""
    n = rng.randint(1, 4)
    trans = {(src, label, rng.randrange(n + 1)) for src in range(n) for label in alphabet if rng.random() < 0.6}
    trans |= {(n, label, n) for label in alphabet}  # n: dead
    finals = rng.sample(range(n), rng.choice([0, 1, 1, 2]) if n > 1 else 1)
    return TrajectoryLanguage(
        TrajectoryKind.SHUFFLE if alphabet is SHUFFLE_ALPHABET else TrajectoryKind.DELETION,
        Nfa(alphabet, n + 1, rng.randrange(n), frozenset(finals), frozenset(trans)),
    )


@pytest.mark.parametrize(
    "build,reference,alphabet",
    [(shuffle_nfa, _full_shuffle, SHUFFLE_ALPHABET), (deletion_nfa, _full_deletion, DELETION_ALPHABET)],
)
def test_live_pair_table_keeps_the_full_product_bytes(monkeypatch, build, reference, alphabet):
    rng = random.Random(101)
    numbered = count_numbered(monkeypatch)
    named = [named_trajectory(name).language for name in NAMED_TRAJECTORIES]
    named = [t for t in named if t.automaton.alphabet == alphabet]
    pruned, sizes, wide = 0, set(), False
    for _ in range(20):
        a, b = wide_random_nfa(rng), wide_random_nfa(rng)
        while b.state_count > 6:  # b is the small factor, as in the equation candidate
            b = wide_random_nfa(rng)
        b = Nfa(a.alphabet, b.state_count, b.initial, b.finals,
                frozenset(t for t in b.transitions if t[1] in a.alphabet))
        t = rng.choice(named) if rng.random() < 0.3 else _random_trajectory(rng, alphabet)
        numbered.clear()
        expected = reference(a, b, t.automaton)
        full = len(numbered)
        numbered.clear()
        assert serialize_automaton(build(a, b, t)) == serialize_automaton(expected)
        assert len(numbered) <= full
        pruned += len(numbered) < full
        sizes.add(bool(expected.finals))
        wide |= a.state_count > 64
    assert pruned and sizes == {False, True} and wide


def test_deletion_numbers_keys_over_live_pairs_only(monkeypatch):
    host, deleted = complement(blowup(6)), Nfa.from_words(["ab", "ba", "abb"], AB)
    numbered, counts = count_numbered(monkeypatch), {}
    for name in ("T1", "T2", "T1a", "T2a"):
        traj = named_trajectory(name).language
        numbered.clear()
        full = _full_deletion(host, deleted, traj.automaton)
        full_keys = len(numbered)
        numbered.clear()
        result = deletion_nfa(host, deleted, traj)
        counts[name] = [full_keys, len(numbered), full.state_count, result.state_count]
    assert counts == {
        "T1": [880, 784, 752, 752],
        "T2": [875, 613, 500, 500],
        "T1a": [720, 672, 640, 640],
        "T2a": [838, 578, 497, 497],
    }
