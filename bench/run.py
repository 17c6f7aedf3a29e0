"""sdikit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload closure-random --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout: the program under test is
imported from `./src`.  A single client drives the CLI in-process through
`sdikit.cli.main(argv)` in a closed loop (one process, one thread, the
next request only after the previous one returned), cycling through the
workload's seeded corpus until `--seconds` have passed.  Requests run
in-process because interpreter start-up (about 0.1 s) would hide the
1-10 ms requests.  Every request's exit code and normalized output are
compared with the checked-in expected answers; a mismatch is counted,
never raised.

With `--trace 0` the last output line reports the end-to-end metrics.
The latency quantiles are taken over every request completed in the
run (200 or more, so at least 20 lie beyond the 90th percentile); the
schedule keeps each request kind in proportion however far the last
pass got.  The corpus is written once before anything is
timed (its random automata come from rejection sampling in the
benchmark's own code, which says nothing about the program); set-up
time is then the median of SETUP_REPEATS fresh imports of the program,
corpus loads and expected-file loads.

Every end-to-end time is scaled to a host of fixed speed.  On a shared
machine the speed of the CPU changes by up to 1.75x in phases that last
from seconds to minutes, which moves whole runs by more than the
benchmark's bounds.  A probe, a fixed piece of the benchmark's own
pure-Python automaton code, is timed before and after each request and
each set-up round; a time t is reported as t * PROBE_NOMINAL_S / p,
with p the mean of the two probe times: seconds on a host on which the
probe takes PROBE_NOMINAL_S.  The throughput is the number of requests
over the sum of their scaled latencies.  The unscaled figures go to
standard error.  Per-layer times are not scaled.

With `--trace 1` each request runs once untraced and once under the span
tracer, and the line reports the per-layer metrics.  Span records go to
`.bench_build/traces/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import sys
import time
import traceback

import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")
WORK_DIR = ".bench_build"
SETUP_REPEATS = 9
# the probe alone takes 0.9-1.0 ms on an idle 2.1 GHz x86-64 core, and up
# to twice that while other tenants load the machine
PROBE_NOMINAL_S = 0.001
PROBE_REPEATS = 5
# outputs longer than this are stored and compared as a digest
INLINE_LIMIT = 160

END_TO_END = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("correct_ratio", "ratio"),
]

# DecisionReport diagnostics such as `construction_states=120`: sizes of
# intermediate automata, not part of the verdict
_RESOURCE_FIELD = re.compile(r"  [a-z_]+=\d+")


def normalize(stdout: str) -> str:
    text = _RESOURCE_FIELD.sub("", stdout)
    if len(text) > INLINE_LIMIT:
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    return text


def file_digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return "sha256:" + hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def call(main, argv) -> tuple[int | None, str, float]:
    """Run one CLI request in-process: (exit code or None if it raised,
    stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    code: int | None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing request is counted, and the run goes on
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
    if code is None or code >= 2:
        sys.stderr.write(f"request {' '.join(argv)}: exit {code}\n{err.getvalue()[-2000:]}")
    return code, out.getvalue(), seconds


def answer(request, code: int | None, stdout: str) -> list:
    """What is compared with the expected file: exit code, normalized
    stdout, digest of the `--out` automaton."""
    return [code, normalize(stdout), file_digest(request.out) if request.out else None]


def run_request(main, request) -> tuple[list, float]:
    if request.out and os.path.exists(request.out):
        os.remove(request.out)
    code, stdout, seconds = call(main, request.argv)
    return answer(request, code, stdout), seconds


def is_error(result: list) -> bool:
    """Raised, failed on usage (2) or hit a resource cap (3)."""
    return result[0] is None or result[0] >= 2


def load_expected(workload: str, corpus_seed: int) -> dict[str, list]:
    with open(os.path.join(EXPECTED_DIR, workload + ".json"), encoding="utf-8") as fh:
        return json.load(fh)["answers"][str(corpus_seed)]


class Tally:
    """Correctness and error counts against the expected answers."""

    def __init__(self, expected: dict[str, list]):
        self.expected = expected
        self.attempted = self.correct = self.failed = 0

    def add(self, rid: str, result: list) -> None:
        self.attempted += 1
        self.correct += result == self.expected.get(rid)
        self.failed += is_error(result)


class Probe:
    """Times a fixed piece of the benchmark's own automaton code (the
    subset construction of one seeded random NFA), which no change to
    the program can speed up or slow down."""

    def __init__(self, corpus):
        self._shape = corpus.shape
        self._nfa = corpus.random_nfa(random.Random("probe"), 14, corpus.AB, 0.15)

    def __call__(self) -> float:
        # without the collector, whose passes would charge the program's
        # heap to the probe
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(PROBE_REPEATS):
                self._shape(self._nfa)
            return time.perf_counter() - t0
        finally:
            gc.enable()


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    """`seconds` on a host on which the probe takes PROBE_NOMINAL_S."""
    return seconds * 2 * PROBE_NOMINAL_S / (probe_before + probe_after)


def _fresh_import():
    """Import the program from scratch."""
    for name in list(sys.modules):
        if name == "sdikit" or name.startswith("sdikit."):
            del sys.modules[name]
    import sdikit.cli

    return sdikit.cli


def setup(workload: str, seed: int, probe: Probe) -> tuple[float, object, list, dict, str]:
    """Write the corpus (untimed), then time SETUP_REPEATS rounds of
    import, corpus load and expected-file load; returns the median
    scaled time and the last round's state."""
    import corpus

    corpus_seed = seed % corpus.POOL
    root = os.path.join(WORK_DIR, "work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(root, ignore_errors=True)
    corpus.generate(workload, corpus_seed, root)
    times = []
    for _ in range(SETUP_REPEATS):
        before = probe()
        t0 = time.perf_counter()
        cli = _fresh_import()
        requests = corpus.load(root)
        expected = load_expected(workload, corpus_seed)
        seconds = time.perf_counter() - t0
        times.append(scaled(seconds, before, probe()))
    return statistics.median(times), cli, corpus.schedule(requests, seed), expected, root


def timed_run(cli, requests, expected, seconds: float, probe: Probe) -> tuple[Tally, list[float], list[float]]:
    """Cycle through `requests` for `seconds`; returns the tally, every
    request's latency and the probe times around them (one more than
    there are latencies)."""
    tally = Tally(expected)
    latencies: list[float] = []
    probes = [probe()]
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        request = requests[i % len(requests)]
        result, latency = run_request(cli.main, request)
        probes.append(probe())
        tally.add(request.rid, result)
        latencies.append(latency)
        i += 1
    return tally, latencies, probes


def traced_run(cli, requests, expected, seconds: float, trace_path: str) -> tuple[Tally, dict]:
    tracer = spans.Tracer()
    tally = Tally(expected)
    plain = traced = 0.0
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        request = requests[i % len(requests)]
        _, plain_s = run_request(cli.main, request)
        tracer.begin_request(i, request.max_len)
        tracer.install()
        try:
            result, traced_s = run_request(cli.main, request)
        finally:
            tracer.uninstall()
        tally.add(request.rid, result)
        plain += plain_s
        traced += traced_s
        i += 1
    metrics = tracer.layer_metrics(tally.attempted)
    metrics["trace.overhead_ratio"] = traced / plain
    tracer.write(trace_path)
    return tally, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("closure-random", "blowup-solve", "maxmin-probes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "sdikit", "__init__.py")):
        print("error: run from the root of an sdikit checkout (no src/sdikit here)", file=sys.stderr)
        return 1
    sys.path.insert(0, os.path.abspath("src"))

    import corpus

    probe = Probe(corpus)
    setup_s, cli, requests, expected, root = setup(args.workload, args.seed, probe)
    try:
        if args.trace:
            trace_path = os.path.join(WORK_DIR, "traces", f"{args.workload}-s{args.seed}")
            tally, metrics = traced_run(cli, requests, expected, args.seconds, trace_path)
            units = dict(spans.LAYER_METRICS)
        else:
            tally, latencies, probes = timed_run(cli, requests, expected, args.seconds, probe)
            adjusted = [scaled(t, before, after) for t, before, after in zip(latencies, probes, probes[1:])]
            deciles = statistics.quantiles(adjusted, n=10, method="inclusive")
            metrics = {
                "setup_s": setup_s,
                "requests_per_s": tally.attempted / sum(adjusted),
                "latency_p50_s": deciles[4],
                "latency_p90_s": deciles[8],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "correct_ratio": tally.correct / tally.attempted,
            }
            units = dict(END_TO_END)
            raw = statistics.quantiles(latencies, n=10, method="inclusive")
            print(f"unscaled: requests_per_s={tally.attempted / sum(latencies):.4g} latency_p50_s={raw[4]:.4g} "
                  f"latency_p90_s={raw[8]:.4g} probe_median_s={statistics.median(probes):.4g}", file=sys.stderr)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(json.dumps({
        "correct": tally.correct == tally.attempted and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
