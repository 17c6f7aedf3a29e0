import random

import pytest

from sdikit import (
    FoolingSet,
    InputError,
    Nfa,
    fooling_set_check,
    fooling_set_search,
    membership,
    size_audit,
)
from sdikit.complexity import random_nfa

from conftest import AB


def test_fooling_check_singleton():
    lang = Nfa.from_word("ab", AB)
    assert fooling_set_check(lang, FoolingSet((("a", "b"),))).bound == 1


def test_fooling_check_unary_blocks():
    k = 5
    lang = Nfa.from_word("a" * k, AB)
    pairs = tuple(("a" * i, "a" * (k - i)) for i in range(k + 1))
    assert fooling_set_check(lang, FoolingSet(pairs)).bound == k + 1


def test_fooling_check_reports_condition_one_violation():
    lang = Nfa.from_word("ab", AB)
    check = fooling_set_check(lang, FoolingSet((("a", "b"), ("b", "a"))))
    assert check.bound is None
    assert (1, 1) in check.violations


def test_fooling_check_reports_condition_two_violation():
    # both cross products stay in a* so every pair collides
    astar = Nfa(AB, 1, 0, frozenset({0}), frozenset({(0, "a", 0)}))
    check = fooling_set_check(astar, FoolingSet((("a", "a"), ("aa", "aa"))))
    assert check.bound is None
    assert (0, 1) in check.violations


def test_fooling_set_rejects_duplicates():
    with pytest.raises(InputError):
        FoolingSet((("a", "b"), ("a", "b")))


def test_fooling_search_finds_trivial():
    lang = Nfa.from_word("ab", AB)
    found = fooling_set_search(lang, 1, 3)
    assert found is not None and len(found) >= 1
    assert fooling_set_check(lang, found).bound == len(found)


def test_fooling_search_unreachable_target():
    lang = Nfa.from_word("ab", AB)
    assert fooling_set_search(lang, 50, 2) is None
    with pytest.raises(InputError):
        fooling_set_search(lang, 0, 3)


def test_fooling_search_results_recheck():
    rng = random.Random(191)
    for _ in range(10):
        a = random_nfa(rng, 3, AB)
        found = fooling_set_search(a, 3, 4, seed=7)
        if found is not None:
            assert fooling_set_check(a, found).bound == len(found)
            for x, w in found.pairs:
                assert membership(a, x + w)


def test_fooling_search_deterministic():
    rng = random.Random(193)
    a = random_nfa(rng, 3, AB)
    first = fooling_set_search(a, 3, 4, seed=11)
    second = fooling_set_search(a, 3, 4, seed=11)
    assert (first.pairs if first else None) == (second.pairs if second else None)


def test_size_audit_respects_bounds():
    for construction in ("sdi", "asdi"):
        audits = size_audit(construction, (1, 4), (1, 4), samples=3, seed=5)
        assert audits
        for audit in audits:
            assert audit.actual <= audit.bound


def test_size_audit_formulas():
    audits = size_audit("asdi", (2, 2), (2, 2), samples=1, seed=0)
    assert audits[0].bound == 2 * 2 + 2 * 2
    audits = size_audit("sdi", (3, 3), (2, 2), samples=1, seed=0)
    assert audits[0].bound == 3 * 3 * 2 + 2 * 3


def test_size_audit_degenerate_n():
    audits = size_audit("asdi", (1, 3), (1, 1), samples=2, seed=2)
    for audit in audits:
        assert audit.actual <= audit.bound


def test_size_audit_validates_input():
    with pytest.raises(InputError):
        size_audit("chop", (1, 2), (1, 2), 1)
    with pytest.raises(InputError):
        size_audit("sdi", (2, 1), (1, 2), 1)


def test_fooling_probe_on_asdi_construction():
    # experimental probe at the construction bound: outcome (found or not)
    # is data, but any found certificate must re-check
    from sdikit import asdi_nfa_direct

    rng = random.Random(197)
    outcomes = []
    for _ in range(4):
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        left = random_nfa(rng, m, AB)
        right = random_nfa(rng, n, AB)
        built = asdi_nfa_direct(left, right)
        target = m * n + 2 * m
        found = fooling_set_search(built, target, max_len=8, seed=3)
        outcomes.append(found is not None)
        if found is not None:
            assert fooling_set_check(built, found).bound == len(found) >= target
    assert len(outcomes) == 4
