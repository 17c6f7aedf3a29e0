"""Property-based cross-layer tests (hypothesis, derandomized profile
from conftest.py)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from sdikit import Nfa, SdiVariant, enumerate_language, max_sdi_membership, min_sdi_membership, scan_member, sdi_strings

from conftest import AB


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
