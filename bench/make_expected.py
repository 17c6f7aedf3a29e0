"""Regenerate the checked-in expected answers, cross-checking each one.

    python3 bench/make_expected.py [--workload NAME ...]

Run from the root of a source checkout.  For every workload and corpus
seed `0..POOL-1` this runs each request once through `sdikit.cli.main`,
stores its exit code, normalized output and `--out` digest in
`bench/expected/<workload>.json`, and checks the verdict against code
other than the path under test:

* a "false" witness is re-checked with the benchmark's own NFA
  simulator (`corpus.Sim`) and with `oracle.scan_member` on operands
  enumerated by that simulator;
* a "true" closure, freeness or independence verdict is checked by a
  bounded oracle search;
* membership answers, enumerations and fooling sets are recomputed with
  the simulator and the oracle;
* automata written by `op --out` and solve candidates are compared with
  the oracle on all words up to a length bound.

A disagreement aborts without writing anything.  Each answer is counted
as `exact` (fully re-derived), `bounded` (agrees up to a length bound)
or `unchecked` (the bounded search was inconclusive); the counts are
stored next to the answers.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter


class Mismatch(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _grow_witness(host, w: str) -> bool:
    """w arises from a word of `host` by inserting a nonempty middle with
    nonempty matched outfixes: some 1 <= b < c <= |w|-1 leaves
    w[:b] + w[c:] in the host language."""
    return any(host.accepts(w[:b] + w[c:]) for b in range(1, len(w)) for c in range(b + 1, len(w)))


class Checker:
    def __init__(self, sdikit, corpus):
        self.sk = sdikit
        self.Sim = corpus.Sim
        self.oracle = sdikit.oracle
        self.variants = {v.value: v for v in sdikit.oracle.SdiVariant}

    def sim(self, path: str):
        return self.Sim(self.sk.textio.load_automaton(path))

    def check(self, argv: list[str], code: int, stdout: str, out_path: str | None) -> str:
        command = argv[0]
        handler = getattr(self, "_" + command)
        return handler(argv, code, stdout, out_path)

    # -- decide ----------------------------------------------------------

    def _decide(self, argv, code, stdout, out_path) -> str:
        pred, operands = argv[1], [x for x in argv[2:] if not x.startswith("--")]
        oracle, general = self.oracle, self.oracle.SdiVariant.GENERAL
        if pred.startswith("counterexample-"):
            return self._counterexample(pred, argv, code, stdout)
        witness = re.search(r"witness: '([^']*)'", stdout)
        _require((code == 1) == bool(witness), "verdict and witness disagree")
        a = self.sim(operands[0])
        bound = 5
        if pred == "closed-sdi":
            if witness:
                w = witness.group(1)
                words = a.words(len(w))
                _require(not a.accepts(w) and oracle.scan_member(general, w, words, words), "closed-sdi witness")
                return "exact"
            words = a.words(bound)
            produced = oracle.bounded_language_op(general, words, words)
            _require(all(a.accepts(w) for w in produced), "closed-sdi true but a bounded insertion escapes")
            return "bounded"
        if pred in ("sdi-independent", "asdi-independent"):
            b = self.sim(operands[1])
            if witness:
                w = witness.group(1)
                _require(b.accepts(w) and _grow_witness(a, w), f"{pred} witness")
                return "exact"
            _require(not any(_grow_witness(a, w) for w in b.words(bound)), f"{pred} true but bounded witness")
            return "bounded"
        if pred == "sdi-free":
            b = self.sim(operands[1])
            if witness:
                w = witness.group(1)
                _require(oracle.scan_member(general, w, a.words(len(w)), b.words(len(w))), "sdi-free witness")
                return "exact"
            _require(not oracle.bounded_language_op(general, a.words(bound), b.words(bound)), "sdi-free true")
            return "bounded"
        if pred in ("closed-finite-max", "closed-finite-min"):
            variant = self.variants["maxsdi" if pred.endswith("max") else "minsdi"]
            words = set(self.sk.textio.load_words(operands[1]))
            if witness:
                w = witness.group(1)
                _require(not a.accepts(w) and oracle.scan_member(variant, w, a.words(len(w)), words), pred)
                return "exact"
            produced = oracle.bounded_language_op(variant, a.words(10), words)
            _require(all(a.accepts(w) for w in produced), pred + " true but a bounded insertion escapes")
            return "bounded"
        raise Mismatch(f"no cross-check for {pred}")

    def _counterexample(self, pred, argv, code, stdout) -> str:
        variant = self.variants[{"sdi": "sdi", "max": "maxsdi", "min": "minsdi"}[pred.split("-")[1]]]
        a = self.sim(argv[2])
        found = re.search(r"counterexample: (\S+)", stdout)
        if found:
            w = found.group(1)
            words = a.words(len(w))
            _require(code == 1 and not a.accepts(w) and self.oracle.scan_member(variant, w, words, words), pred)
            return "exact"
        words = a.words(8)
        produced = self.oracle.bounded_language_op(variant, words, words)
        _require(code == 0 and all(a.accepts(w) for w in produced if len(w) <= 8), pred)
        return "bounded"

    # -- member, enum, fooling --------------------------------------------

    def _member(self, argv, code, stdout, out_path) -> str:
        variant, word, left, right = self.variants[argv[2]], argv[3], argv[4], argv[5]
        a, b = self.sim(left), self.sim(right)
        expected = self.oracle.scan_member(variant, word, a.words(len(word)), b.words(len(word)))
        _require(stdout.strip() == ("true" if expected else "false") and code == (0 if expected else 1), "member")
        return "exact"

    def _enum(self, argv, code, stdout, out_path) -> str:
        max_len = int(argv[argv.index("--max-len") + 1])
        words = self.sim(argv[1]).words(max_len)
        _require(stdout == self.sk.textio.serialize_words(list(words)), "enum")
        return "exact"

    def _fooling(self, argv, code, stdout, out_path) -> str:
        if code != 0:
            return "unchecked"
        a = self.sim(argv[1])
        lines = stdout.strip().splitlines()
        pairs = [tuple("" if t == "-" else t for t in line.split()) for line in lines[:-1]]
        _require(all(a.accepts(x + w) for x, w in pairs), "fooling: a pair is rejected")
        for i, (xi, wi) in enumerate(pairs):
            for xj, wj in pairs[i + 1:]:
                _require(not (a.accepts(xi + wj) and a.accepts(xj + wi)), "fooling: pairs compatible")
        _require(lines[-1] == f"lower bound: {len(pairs)}", "fooling bound")
        return "exact"

    # -- op ----------------------------------------------------------------

    def _op(self, argv, code, stdout, out_path) -> str:
        oracle = self.oracle
        variant = argv[argv.index("--variant") + 1]
        operands = [x for x in argv[3:] if not x.startswith("--")]
        option_values = {argv[i + 1] for i, x in enumerate(argv) if x.startswith("--")}
        operands = [x for x in operands if x not in option_values]
        a = self.sim(operands[0])
        if variant in ("shuffle", "deletion"):
            b = self.sim(operands[1])
            trajectory = self.sk.trajectories.named_trajectory(argv[argv.index("--trajectory") + 1])
            traj = self.Sim(trajectory.language.automaton)
            if variant == "shuffle":
                # an output of length <= 5 comes from a trajectory of the
                # same length that consumes |x| and |y| symbols
                bound = 5
                got = {w for w in self.sk.textio.parse_words(stdout) if len(w) <= bound}
                by_counts: dict[tuple[int, int], list[str]] = {}
                for t in traj.words(bound):
                    key = (t.count("0") + t.count("s"), t.count("1") + t.count("s"))
                    by_counts.setdefault(key, []).append(t)
                want = {
                    r for x in a.words(bound) for y in b.words(bound)
                    for t in by_counts.get((len(x), len(y)), ())
                    if (r := oracle.shuffle_on_trajectory(x, y, t)) is not None
                }
            else:
                bound = 5
                got = self.Sim(self.sk.textio.load_automaton(out_path)).words(bound)
                ys = b.words(12)
                trajs_by_len: dict[int, list[str]] = {}
                for t in traj.words(bound + max(map(len, ys), default=0)):
                    trajs_by_len.setdefault(len(t), []).append(t)
                want = set()
                for y in ys:
                    for x in a.words(bound + len(y)):
                        for t in trajs_by_len.get(len(x), ()):
                            r = oracle.delete_on_trajectory(x, y, t)
                            if r is not None and len(r) <= bound:
                                want.add(r)
            _require(got == want, f"op {variant} differs from the oracle up to length {bound}")
            return "bounded"
        op = self.variants[variant]
        if "--words" in argv:
            words = self.sk.textio.load_words(argv[argv.index("--words") + 1])
            bound = 10
            got = self.Sim(self.sk.textio.load_automaton(out_path)).words(bound)
            want = {w for w in oracle.bounded_language_op(op, a.words(bound), words) if len(w) <= bound}
            _require(got == want, f"op {variant} --words differs from the oracle up to length {bound}")
            return "bounded"
        b = self.sim(operands[1])
        if out_path:
            bound = 5
            got = self.Sim(self.sk.textio.load_automaton(out_path)).words(bound)
            want = {w for w in oracle.bounded_language_op(op, a.words(bound), b.words(bound)) if len(w) <= bound}
            _require(got == want, f"op {variant} differs from the oracle up to length {bound}")
            return "bounded"
        # bounded two-automaton max/min: every listed word must be
        # producible, checked by the decomposition scan
        for w in self.sk.textio.parse_words(stdout):
            _require(oracle.scan_member(op, w, a.words(len(w)), b.words(len(w))), f"op {variant}: {w}")
        return "bounded"

    # -- solve ---------------------------------------------------------------

    def _solve(self, argv, code, stdout, out_path) -> str:
        oracle = self.oracle
        side, variant = argv[argv.index("--side") + 1], argv[argv.index("--variant") + 1]
        known_path, result_path = argv[-2], argv[-1]
        known = sorted(self.sim(known_path).words(16))
        result = self.sim(result_path)
        op = oracle.sdi_strings if variant == "sdi" else oracle.asdi_strings
        if side == "left":
            produce = lambda xs: {r for x in xs for y in known for r in op(x, y)}  # noqa: E731
        else:
            produce = lambda xs: {r for x in xs for y in known for r in op(y, x)}  # noqa: E731
        alphabet = "".join(result.alphabet)
        if code == 0:
            bound = 7
            candidate = self.Sim(self.sk.textio.parse_automaton(stdout.split("\n", 1)[1]))
            got = {w for w in produce(candidate.words(bound)) if len(w) <= bound}
            _require(got == result.words(bound), "solvable candidate differs from R up to length 7")
            return "bounded"
        # unsolvable: the maximal candidate restricted to short words is
        # {x : every output of x stays in R}; a word of R it cannot reach
        # proves that no solution exists
        bound = 8
        shorts, layer = [""], [""]
        for _ in range(bound):
            layer = [w + s for w in layer for s in alphabet]
            shorts += layer
        maximal = [x for x in shorts if all(result.accepts(r) for r in produce([x]))]
        reached = {w for w in produce(maximal) if len(w) <= bound}
        missing = result.words(bound) - reached
        return "exact" if missing else "unchecked"


def generate(workload: str, corpus, run, sdikit) -> dict:
    checker = Checker(sdikit, corpus)
    answers: dict[str, dict[str, list]] = {}
    checks: Counter = Counter()
    for corpus_seed in range(corpus.POOL):
        root = os.path.join(run.WORK_DIR, "expected", f"{workload}-{corpus_seed}")
        requests = corpus.generate(workload, corpus_seed, root)
        answers[str(corpus_seed)] = {}
        for request in requests:
            if request.out and os.path.exists(request.out):
                os.remove(request.out)
            code, stdout, _ = run.call(sdikit.cli.main, request.argv)
            result = run.answer(request, code, stdout)
            if run.is_error(result):
                raise SystemExit(f"{workload}/{corpus_seed} {request.rid}: exit {code}")
            try:
                checks[checker.check(list(request.argv), code, stdout, request.out)] += 1
            except Mismatch as exc:
                raise SystemExit(f"{workload}/{corpus_seed} {request.rid}: cross-check failed: {exc}")
            answers[str(corpus_seed)][request.rid] = result
        print(f"{workload} corpus {corpus_seed}: {len(requests)} requests; checks so far {dict(checks)}",
              flush=True)
    return {"pool": corpus.POOL, "crosscheck": dict(checks), "answers": answers}


def main() -> int:
    parser = argparse.ArgumentParser(description="Regenerate bench/expected/*.json with cross-checks.")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath("src"))
    import corpus
    import run
    import sdikit.cli
    import sdikit.oracle
    import sdikit.textio
    import sdikit.trajectories

    for workload in args.workload or corpus.WORKLOADS:
        data = generate(workload, corpus, run, sdikit)
        os.makedirs(run.EXPECTED_DIR, exist_ok=True)
        with open(os.path.join(run.EXPECTED_DIR, workload + ".json"), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=0, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
