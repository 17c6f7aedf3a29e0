"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import random
import time

import pytest

from sdikit import (
    FoolingSet,
    Nfa,
    SdiVariant,
    asdi_nfa_direct,
    bounded_language_op,
    closed_under_finite_maxmin,
    determinize,
    enumerate_language,
    fooling_set_check,
    is_closed_under_sdi,
    is_independent,
    max_sdi_membership,
    max_sdi_single_nfa,
    max_sdi_strings,
    membership,
    min_sdi_membership,
    named_trajectory,
    scan_language,
    scan_member,
    sdi_nfa_direct,
    sdi_strings,
    shuffle_nfa,
    solve,
    two_var_solvable,
)
from sdikit.complexity import random_nfa
from sdikit.equations import EquationSpec, UnknownSide
from sdikit.oracle import asdi_strings, min_sdi_strings

from conftest import AB, ABC, all_words, ba_blocks


def _verdict(label: str, ok: bool, detail: str = ""):
    print(f"\nacceptance {label}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{label} failed: {detail}"


GOLDEN = {"acbabab", "abacbab", "ababacbab"}


def test_criterion_01_golden_max_sdi_example():
    started = time.monotonic()
    host = Nfa.from_words({"ababab"}, ABC)
    built = set(enumerate_language(max_sdi_single_nfa(host, "acbab"), 12))
    oracle = max_sdi_strings("ababab", "acbab")
    in_general = "abacbabab" in sdi_strings("ababab", "acbab")
    not_in_max = "abacbabab" not in oracle and not membership(
        max_sdi_single_nfa(host, "acbab"), "abacbabab"
    )
    elapsed = time.monotonic() - started
    ok = built == GOLDEN and oracle == GOLDEN and in_general and not_in_max and elapsed < 1.0
    _verdict("criterion 1 (golden max-sdi example)", ok, f"{elapsed:.2f}s")


@pytest.fixture(scope="module")
def triple_agreement_runs():
    rng = random.Random(20260808)
    t_sdi = named_trajectory("T_sdi").language
    t_asdi = named_trajectory("T_asdi").language
    candidates = all_words("ab", 8)
    runs = []
    started = time.monotonic()
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a, b = random_nfa(rng, m, AB), random_nfa(rng, n, AB)
        hosts = set(enumerate_language(a, 8))
        inserted = set(enumerate_language(b, 8))
        general_direct = sdi_nfa_direct(a, b)
        alpha_direct = asdi_nfa_direct(a, b)
        runs.append(
            {
                "m": m,
                "n": n,
                "general_states": general_direct.state_count,
                "alpha_states": alpha_direct.state_count,
                "general": (
                    set(enumerate_language(general_direct, 8)),
                    set(enumerate_language(shuffle_nfa(a, b, t_sdi), 8)),
                    scan_language(SdiVariant.GENERAL, candidates, hosts, inserted),
                ),
                "alpha": (
                    set(enumerate_language(alpha_direct, 8)),
                    set(enumerate_language(shuffle_nfa(a, b, t_asdi), 8)),
                    scan_language(SdiVariant.ALPHABETIC, candidates, hosts, inserted),
                ),
            }
        )
    return runs, time.monotonic() - started


def test_criterion_02_triple_agreement(triple_agreement_runs):
    runs, elapsed = triple_agreement_runs
    mismatches = sum(
        1
        for run in runs
        for key in ("general", "alpha")
        if not (run[key][0] == run[key][1] == run[key][2])
    )
    ok = len(runs) >= 200 and mismatches == 0 and elapsed < 300
    _verdict(
        "criterion 2 (triple agreement, 200 instances)",
        ok,
        f"mismatches={mismatches} elapsed={elapsed:.1f}s",
    )


def test_criterion_03_size_bounds(triple_agreement_runs):
    runs, _ = triple_agreement_runs
    violations = [
        run
        for run in runs
        if run["general_states"] > 3 * run["m"] * run["n"] + 2 * run["m"]
        or run["alpha_states"] > run["m"] * run["n"] + 2 * run["m"]
    ]
    _verdict("criterion 3 (construction size bounds)", not violations, f"violations={len(violations)}")


def test_criterion_04_nonregularity_witnesses():
    lang1 = ba_blocks(2, "$")
    lang2 = ba_blocks(2, "%$")
    hosts = enumerate_language(lang1, 14)
    inserted = enumerate_language(lang2, 14)

    filter3 = ba_blocks(3, "%$")
    produced_max = bounded_language_op(SdiVariant.MAXIMAL, hosts, inserted)
    got_max = {w for w in produced_max if len(w) <= 14 and membership(filter3, w)}
    expected_max = {
        "b" + "a" * m + "b" + "a" * n + "b" + "a" * k + "%$"
        for m in range(1, 10)
        for n in range(1, 10)
        for k in range(1, 10)
        if m + n + k + 5 <= 14 and (m != n or k < n)
    }

    filter2 = ba_blocks(2, "%$")
    produced_min = bounded_language_op(SdiVariant.MINIMAL, hosts, inserted)
    got_min = {w for w in produced_min if len(w) <= 14 and membership(filter2, w)}
    expected_min = {
        "b" + "a" * m + "b" + "a" * n + "%$"
        for m in range(1, 11)
        for n in range(1, 11)
        if m + n + 4 <= 14 and n > m
    }

    ok = got_max == expected_max and got_min == expected_min
    _verdict(
        "criterion 4 (non-regularity witness sets at length 14)",
        ok,
        f"max={len(got_max)}/{len(expected_max)} min={len(got_min)}/{len(expected_min)}",
    )


def test_criterion_05_inclusion_and_emptiness_laws():
    words = all_words("ab", 5)
    violations = 0
    witness_found = False
    for x in words:
        for y in words:
            general = sdi_strings(x, y)
            maximal = max_sdi_strings(x, y)
            minimal = min_sdi_strings(x, y)
            alpha = asdi_strings(x, y)
            if not (maximal <= general and alpha <= minimal <= general):
                violations += 1
            if not ((not general) == (not maximal) == (not minimal)):
                violations += 1
            if minimal and not alpha:
                witness_found = True
    ok = violations == 0 and witness_found
    _verdict(
        "criterion 5 (inclusion/emptiness laws, all pairs <= 5)",
        ok,
        f"violations={violations} min-without-alphabetic-witness={witness_found}",
    )


def test_criterion_06_independence_identity():
    rng = random.Random(4242)
    candidates = all_words("ab", 7)
    mismatches = 0
    for _ in range(50):
        a = random_nfa(rng, rng.randint(1, 3), AB)
        hosts = set(enumerate_language(a, 7))
        general = scan_language(SdiVariant.GENERAL, candidates, hosts, None)
        maximal = scan_language(SdiVariant.MAXIMAL, candidates, hosts, None)
        minimal = scan_language(SdiVariant.MINIMAL, candidates, hosts, None)
        if not (general == maximal == minimal):
            mismatches += 1
    pair = Nfa.from_words({"ab", "b"}, AB)
    pair_independent = is_independent(SdiVariant.GENERAL, pair, pair).answer
    ok = mismatches == 0 and pair_independent
    _verdict(
        "criterion 6 (independence identity + {ab,b})",
        ok,
        f"mismatches={mismatches} ab_b_independent={pair_independent}",
    )


def test_criterion_07_equation_round_trips():
    started = time.monotonic()
    rng = random.Random(777)
    failures = 0
    for _ in range(50):
        s0 = determinize(random_nfa(rng, rng.randint(1, 2), AB))
        known = determinize(random_nfa(rng, rng.randint(1, 2), AB))
        for variant, build in (
            (SdiVariant.GENERAL, sdi_nfa_direct),
            (SdiVariant.ALPHABETIC, asdi_nfa_direct),
        ):
            left = solve(EquationSpec(UnknownSide.LEFT, variant, known, build(s0, known)))
            if not left.solvable:
                failures += 1
            right = solve(EquationSpec(UnknownSide.RIGHT, variant, known, build(known, s0)))
            if not right.solvable:
                failures += 1
    single = solve(
        EquationSpec(UnknownSide.LEFT, SdiVariant.GENERAL, Nfa.from_word("ab", AB),
                     Nfa.from_word("a", AB))
    )
    if single.solvable:
        failures += 1
    for _ in range(20):
        r = random_nfa(rng, rng.randint(1, 3), AB)
        has_short = any(len(w) < 2 for w in enumerate_language(r, 2))
        if two_var_solvable(r).answer != (not has_short):
            failures += 1
    elapsed = time.monotonic() - started
    ok = failures == 0 and elapsed < 600
    _verdict(
        "criterion 7 (equation round-trips, 50 pairs x 4 cases)",
        ok,
        f"failures={failures} elapsed={elapsed:.1f}s",
    )


def test_criterion_08_membership_deciders():
    rng = random.Random(888)
    disagreements = 0
    for _ in range(500):
        a = random_nfa(rng, rng.randint(1, 3), AB)
        b = random_nfa(rng, rng.randint(1, 3), AB)
        w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 8)))
        hosts = set(enumerate_language(a, len(w)))
        inserted = set(enumerate_language(b, len(w)))
        if max_sdi_membership(w, a, b) != scan_member(SdiVariant.MAXIMAL, w, hosts, inserted):
            disagreements += 1
        if min_sdi_membership(w, a, b) != scan_member(SdiVariant.MINIMAL, w, hosts, inserted):
            disagreements += 1
    _verdict(
        "criterion 8 (membership deciders vs oracle, 500 instances)",
        disagreements == 0,
        f"disagreements={disagreements}",
    )


def test_criterion_09_fooling_set_checker():
    problems = []
    singleton_lang = Nfa.from_word("ab", AB)
    if fooling_set_check(singleton_lang, FoolingSet((("a", "b"),))).bound != 1:
        problems.append("singleton")
    k = 5
    unary_lang = Nfa.from_word("a" * k, AB)
    unary_pairs = tuple(("a" * i, "a" * (k - i)) for i in range(k + 1))
    if fooling_set_check(unary_lang, FoolingSet(unary_pairs)).bound != k + 1:
        problems.append("unary")
    bad_one = fooling_set_check(singleton_lang, FoolingSet((("a", "b"), ("b", "a"))))
    if bad_one.bound is not None or (1, 1) not in bad_one.violations:
        problems.append("condition-i rejection")
    astar = Nfa(AB, 1, 0, frozenset({0}), frozenset({(0, "a", 0)}))
    bad_two = fooling_set_check(astar, FoolingSet((("a", "a"), ("aa", "aa"))))
    if bad_two.bound is not None or (0, 1) not in bad_two.violations:
        problems.append("condition-ii rejection")
    _verdict("criterion 9 (fooling-set checker)", not problems, ",".join(problems))


def test_criterion_10_closure_decisions():
    problems = []
    if not is_closed_under_sdi(Nfa.universal(AB)).answer:
        problems.append("universal not closed")

    # example-derived cases, cross-checked against the string oracle
    insert = {"acbab"}
    insert_nfa = Nfa.from_words(insert, ABC)
    cases = [
        {"ababab"},
        {"ababab"} | GOLDEN,
    ]
    for hosts in cases:
        host_nfa = Nfa.from_words(hosts, ABC)
        report = closed_under_finite_maxmin(SdiVariant.MAXIMAL, host_nfa, insert)
        produced = bounded_language_op(SdiVariant.MAXIMAL, hosts, insert)
        oracle_closed = all(w in hosts for w in produced)
        if report.answer != oracle_closed:
            problems.append(f"verdict mismatch on {sorted(hosts)}")
        if not report.answer:
            if report.witness is None:
                problems.append("missing witness")
            elif not max_sdi_membership(report.witness, host_nfa, insert_nfa):
                problems.append("witness fails membership re-verification")
            elif membership(host_nfa, report.witness):
                problems.append("witness not outside the host language")
    _verdict("criterion 10 (closure decisions)", not problems, ",".join(problems))
