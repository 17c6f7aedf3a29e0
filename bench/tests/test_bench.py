"""Tests of the benchmark's own machinery: span arithmetic, repeat
counting, the comparator, corpus determinism and answer checking."""

import filecmp
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import corpus  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from sdikit import Alphabet, Nfa  # noqa: E402


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] with children [1, 4] and [5, 9]; the second child has
    # a grandchild [6, 8]; a child sticking out of its parent is clipped
    start = [0.0, 1.0, 5.0, 6.0, 20.0, 21.0]
    end = [10.0, 4.0, 9.0, 8.0, 30.0, 35.0]
    parent = [-1, 0, 0, 2, -1, 4]
    assert spans.self_times(start, end, parent) == [3.0, 3.0, 2.0, 2.0, 1.0, 14.0]


def test_self_times_do_not_subtract_overlapping_children_twice():
    assert spans.self_times([0.0, 1.0, 2.0], [10.0, 5.0, 6.0], [-1, 0, 0]) == [5.0, 4.0, 4.0]


def test_repeat_counting_compares_automata_by_value():
    ab = Alphabet.from_string("ab")
    seen = set()
    a1, a2 = Nfa.from_word("ab", ab), Nfa.from_word("ab", ab)
    b = Nfa.from_word("ba", ab)
    assert not spans.is_repeat(seen, "f", (a1, b))
    assert spans.is_repeat(seen, "f", (a2, b))  # equal, not identical
    assert not spans.is_repeat(seen, "f", (b, a1))
    assert not spans.is_repeat(seen, "g", (a1, b))
    seen.clear()  # a new request
    assert not spans.is_repeat(seen, "f", (a1, b))


# A stand-in package with the shape the tracer expects: an `automata`
# module defining `Nfa`/`Dfa`, and a module that imports its functions by
# name, so calls from it go through its own binding.
FAKE_AUTOMATA = """
from dataclasses import dataclass


@dataclass(frozen=True)
class Nfa:
    state_count: int
    transitions: frozenset


@dataclass(frozen=True)
class Dfa:
    state_count: int
    transitions: frozenset


def product_intersection(a, b):
    return Nfa(a.state_count * b.state_count, a.transitions | b.transitions)


def determinize(a):
    return Dfa(2 ** a.state_count, a.transitions)
"""

FAKE_DECIDE = """
from .automata import determinize, product_intersection


def closed(a):
    first = product_intersection(a, a)
    second = product_intersection(a, a)
    return determinize(first) == determinize(second)
"""


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    root = tmp_path / "fakepkg"
    root.mkdir()
    (root / "__init__.py").write_text("from .decide import closed\n")
    (root / "automata.py").write_text(FAKE_AUTOMATA)
    (root / "decide.py").write_text(FAKE_DECIDE)
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg

    yield fakepkg
    for name in [n for n in sys.modules if n == "fakepkg" or n.startswith("fakepkg.")]:
        del sys.modules[name]


def test_tracer_wraps_every_binding_site_and_counts(fake_package, tmp_path):
    automata, decide = fake_package.automata, fake_package.decide
    originals = (decide.product_intersection, automata.product_intersection, fake_package.closed,
                 vars(automata.Nfa)["__init__"])
    a = automata.Nfa(2, frozenset({(0, "a", 1)}))
    tracer = spans.Tracer("fakepkg", ("automata", "decide"))
    tracer.install()
    try:
        assert decide.product_intersection is not originals[0]
        assert automata.product_intersection is not originals[1]
        assert fake_package.closed is not originals[2]
        for request in range(2):
            tracer.begin_request(request, None)
            fake_package.closed(a)
    finally:
        tracer.uninstall()
    assert (decide.product_intersection, automata.product_intersection, fake_package.closed,
            vars(automata.Nfa)["__init__"]) == originals
    metrics = tracer.layer_metrics(2)
    assert metrics["automata.product_intersection.calls"] == 2
    # the second identical product of each request is a repeat; the
    # first one of the next request is not
    assert metrics["automata.product_intersection.repeat_ratio"] == 0.5
    assert metrics["automata.determinize.repeat_ratio"] == 0.5
    assert metrics["automata.product_intersection.states"] == 8
    assert metrics["automata.product_intersection.transitions"] == 2
    assert metrics["automata.determinize.subsets"] == 32
    assert metrics["automata.nfa_init.calls"] == 4
    assert metrics["trace.spans"] == 9  # closed, 2 products, 2 determinize, 4 constructors
    assert metrics["decide.self_s"] > 0
    tracer.write(str(tmp_path / "trace"))
    assert (tmp_path / "trace.json").exists()


def test_tracer_patches_and_restores_sdikit():
    import sdikit.automata
    import sdikit.decide

    originals = (sdikit.decide.product_intersection, sdikit.automata.determinize, sdikit.is_closed_under_sdi)
    tracer = spans.Tracer()
    tracer.begin_request(0, None)
    tracer.install()
    try:
        assert sdikit.decide.product_intersection is not originals[0]
        assert sdikit.automata.determinize is not originals[1]
        assert sdikit.is_closed_under_sdi is not originals[2]
        sdikit.is_closed_under_sdi(Nfa.from_words(["ab", "abab"], Alphabet.from_string("ab")))
    finally:
        tracer.uninstall()
    assert (sdikit.decide.product_intersection, sdikit.automata.determinize,
            sdikit.is_closed_under_sdi) == originals
    metrics = tracer.layer_metrics(1)
    assert metrics["automata.nfa_init.calls"] > 0
    assert metrics["decide.self_s"] > 0
    assert metrics["trace.spans"] > 0


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([10, 11, 10, 12, 11, 10, 11, 12, 10, 11], [8, 8, 9, 8, 8, 9, 8, 8, 9, 8], "lower", "gain"),
        ([10, 11, 10, 12, 11, 10, 11, 12, 10, 11], [14, 15, 14, 13, 15, 14, 14, 15, 14, 13], "lower", "regression"),
        ([10, 11, 10, 12, 11, 10, 11, 12, 10, 11], [10, 11, 11, 10, 12, 11, 10, 11, 11, 10], "lower", "within bound"),
        ([5, 15, 8, 14, 6, 12, 7, 13, 9, 11], [6, 14, 9, 13, 7, 11, 8, 12, 10, 10], "lower", "unresolved"),
        ([100, 101, 99, 100, 102], [70, 71, 69, 70, 72], "higher", "regression"),
    ],
)
def test_comparator_verdicts(parent, change, better, expected):
    assert report.verdict(parent, change, better, 0.2)["verdict"] == expected


def _result(rate, correct_ratio=1.0, failed=0, attempted=500):
    return {"attempted": attempted, "failed": failed, "correct": correct_ratio == 1.0 and failed == 0,
            "metrics": {"requests_per_s": {"value": rate, "unit": "1/s"},
                        "correct_ratio": {"value": correct_ratio, "unit": "ratio"}}}


RATE = {"name": "requests_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
CORRECT = {"name": "correct_ratio", "unit": "ratio", "better": "higher", "bound": 0.0001}


def test_one_wrong_run_is_a_correctness_regression_and_withholds_gains():
    parent = [_result(10 + i % 3) for i in range(10)]
    faster = [_result(20 + i % 3) for i in range(10)]
    assert report.judge(RATE, parent, faster)["verdict"] == "gain"
    assert report.judge(CORRECT, parent, faster)["verdict"] == "within bound"
    # one run of ten misses one answer in 127: the median does not move
    wrong = faster[:9] + [_result(21, correct_ratio=126 / 127)]
    assert report.judge(CORRECT, parent, wrong)["verdict"] == "regression"
    assert report.judge(RATE, parent, wrong)["verdict"] == "gain withheld: answers regressed"
    failing = faster[:9] + [_result(21, failed=1)]
    assert report.judge(CORRECT, parent, failing)["verdict"] == "regression"
    assert report.judge(RATE, parent, failing)["verdict"] == "gain withheld: answers regressed"


def test_corpus_generation_is_deterministic(tmp_path):
    for workload in corpus.WORKLOADS:
        first = corpus.generate(workload, 3, str(tmp_path / "a" / workload))
        second = corpus.generate(workload, 3, str(tmp_path / "b" / workload))
        assert [r.argv for r in first] == [
            tuple(arg.replace(f"{os.sep}b{os.sep}", f"{os.sep}a{os.sep}") for arg in r.argv) for r in second
        ]
        assert corpus.load(str(tmp_path / "a" / workload)) == first
        # the manifest names files under its own root, so it is compared
        # through the request lists above
        skip = ("out", corpus.MANIFEST)
        names = sorted(n for n in os.listdir(tmp_path / "a" / workload) if n not in skip)
        assert names == sorted(n for n in os.listdir(tmp_path / "b" / workload) if n not in skip)
        _, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a" / workload, tmp_path / "b" / workload, names, shallow=False
        )
        assert not mismatch and not errors
        assert [r.rid for r in corpus.schedule(first, 7)] == [r.rid for r in corpus.schedule(second, 7)]


def test_schedule_keeps_every_prefix_in_proportion():
    requests = [corpus.Request(f"x{i}", "x", ()) for i in range(30)] + [
        corpus.Request(f"y{i}", "y", ()) for i in range(10)
    ]
    order = corpus.schedule(requests, 5)
    assert sorted(r.rid for r in order) == sorted(r.rid for r in requests)
    for prefix in range(4, 41, 4):
        assert abs(sum(r.kind == "y" for r in order[:prefix]) - prefix / 4) <= 1


def test_wrong_expected_entry_lowers_correct_ratio(tmp_path):
    import sdikit.cli

    requests = corpus.generate("maxmin-probes", 0, str(tmp_path))[:3]
    expected = {}
    for request in requests:
        expected[request.rid], _ = run.run_request(sdikit.cli.main, request)
    expected[requests[1].rid] = [0, "deliberately wrong\n", None]
    tally = run.Tally(expected)
    for request in requests:
        tally.add(request.rid, run.run_request(sdikit.cli.main, request)[0])
    assert (tally.attempted, tally.correct, tally.failed) == (3, 2, 0)


def test_scaled_time_is_seconds_at_the_nominal_probe_speed():
    nominal = run.PROBE_NOMINAL_S
    assert run.scaled(0.02, 2 * nominal, 2 * nominal) == pytest.approx(0.01)
    assert run.scaled(0.02, nominal, 3 * nominal) == pytest.approx(0.01)


def test_normalize_drops_resource_counts_and_digests_long_output():
    assert run.normalize("closed-sdi: false  witness: 'ab'  construction_states=12\n") == (
        "closed-sdi: false  witness: 'ab'\n"
    )
    assert run.normalize("x" * 500).startswith("sha256:")
