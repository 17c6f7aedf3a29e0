"""Property-based cross-layer tests (hypothesis, derandomized profile
from conftest.py)."""

from collections import defaultdict

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from sdikit import (
    Nfa,
    SdiVariant,
    delete_on_trajectory,
    deletion_nfa,
    enumerate_language,
    max_sdi_membership,
    min_sdi_membership,
    named_trajectory,
    scan_member,
    sdi_strings,
    shuffle_nfa,
    shuffle_on_trajectory,
)

from conftest import AB, plain_shuffle


@st.composite
def small_nfas(draw, max_states=4):
    """Small NFAs over {a, b}: any initial state, dead and unreachable
    states.  At least one final state, or most examples would have an
    empty language (operands without one are in test_constructions)."""
    n = draw(st.integers(1, max_states))
    states = st.integers(0, n - 1)
    trans = draw(st.frozensets(st.tuples(states, st.sampled_from("ab"), states), min_size=n, max_size=2 * n * n))
    return Nfa(AB, n, draw(states), draw(st.frozensets(states, min_size=1)), trans)


@given(small_nfas(), small_nfas(), st.data())
def test_max_min_deciders_equal_the_oracle_scan(a, b, data):
    # any word, or a general SDI output of short operand words
    hosts, inserted = enumerate_language(a, 4)[:5], enumerate_language(b, 4)[:5]
    outputs = sorted({w for x in hosts for y in inserted for w in sdi_strings(x, y) if len(w) <= 7})
    words = st.text("ab", max_size=7)
    w = data.draw(st.sampled_from(outputs) | words if outputs else words)
    hosts, inserted = set(enumerate_language(a, len(w))), set(enumerate_language(b, len(w)))
    assert max_sdi_membership(w, a, b) == scan_member(SdiVariant.MAXIMAL, w, hosts, inserted)
    assert min_sdi_membership(w, a, b) == scan_member(SdiVariant.MINIMAL, w, hosts, inserted)


def _trajectory_words(t, max_len, key):
    """The words of trajectory language t up to `max_len`, grouped by `key`."""
    words = defaultdict(list)
    for word in enumerate_language(t.automaton, max_len):
        words[key(word)].append(word)
    return words


# deletion trajectories by (length, number of deleted-word symbols they consume)
_DELETION_WORDS = {
    name: _trajectory_words(named_trajectory(name).language, 6, lambda t: (len(t), len(t) - t.count("i")))
    for name in ("T1", "T1a", "T2", "T2a")
}


@given(small_nfas(), st.frozensets(st.text("ab", max_size=3), max_size=4), st.sampled_from(sorted(_DELETION_WORDS)))
def test_deletion_equals_the_trajectory_oracle(a, deleted, name):
    # L(b) is finite, so an output of length <= 3 comes from a host of
    # length <= 3 + 3: the bounded comparison is exhaustive
    got = enumerate_language(deletion_nfa(a, Nfa.from_words(deleted, AB), named_trajectory(name).language), 3)
    trajectories = _DELETION_WORDS[name]
    expected = {
        out
        for x in enumerate_language(a, 6)
        for y in deleted
        for t in trajectories[len(x), len(y)]
        if (out := delete_on_trajectory(x, y, t)) is not None and len(out) <= 3
    }
    assert set(got) == expected


_SHUFFLES = {name: named_trajectory(name).language for name in ("T_sdi", "T_asdi")} | {"{0,1}*": plain_shuffle()}
# shuffle trajectories by the lengths of the two words they interleave
_SHUFFLE_WORDS = {
    name: _trajectory_words(t, 4, lambda t: (len(t) - t.count("1"), len(t) - t.count("0")))
    for name, t in _SHUFFLES.items()
}


@given(small_nfas(), small_nfas(), st.sampled_from(sorted(_SHUFFLES)))
def test_shuffle_equals_the_trajectory_oracle(a, b, name):
    # an output is as long as its trajectory and no shorter than either
    # operand word, so the bounded comparison up to length 4 is exhaustive
    got = enumerate_language(shuffle_nfa(a, b, _SHUFFLES[name]), 4)
    trajectories = _SHUFFLE_WORDS[name]
    expected = {
        out
        for x in enumerate_language(a, 4)
        for y in enumerate_language(b, 4)
        for t in trajectories[len(x), len(y)]
        if (out := shuffle_on_trajectory(x, y, t)) is not None
    }
    assert set(got) == expected
