"""Span tracer for the traced benchmark run.

`Tracer.install()` replaces every public function of every sdikit module,
and the `Nfa`/`Dfa` constructors, with a recording wrapper.  The wrapper
goes in at every binding site: the defining module, each module that
imported the name with `from .x import name`, and the package namespace,
so calls from `decide`, `equations` and `constructions` are seen too.
References held elsewhere (a dict of functions, say) stay unwrapped.

Each call appends one record `(name, start, end, parent, request_id)` to
columnar arrays kept in memory; `write()` stores them once at the end.
Counts read from arguments and return values (states, transitions,
subsets, words, pairs, bytes) accumulate in `Tracer.counts` at the same
boundary.  `layer_metrics()` turns records and counts into the
per-layer metrics of the benchmark.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

MODULES = (
    "automata", "textio", "oracle", "trajectories", "constructions",
    "decide", "equations", "complexity", "cli",
)

NFA_INIT = "automata.nfa_init"

#: per-layer metrics: (name, unit).  Counts and times are per traced
#: request; ratios are ratios.
LAYER_METRICS = [
    ("automata.product_intersection.calls", "count/req"),
    ("automata.product_intersection.self_s", "s/req"),
    ("automata.product_intersection.states", "count/req"),
    ("automata.product_intersection.transitions", "count/req"),
    ("automata.product_intersection.repeat_ratio", "ratio"),
    ("automata.determinize.calls", "count/req"),
    ("automata.determinize.self_s", "s/req"),
    ("automata.determinize.subsets", "count/req"),
    ("automata.determinize.repeat_ratio", "ratio"),
    ("automata.is_subset.s", "s/req"),
    ("automata.equivalent.s", "s/req"),
    ("automata.nfa_init.calls", "count/req"),
    ("automata.nfa_init.self_s", "s/req"),
    ("automata.membership.calls", "count/req"),
    ("automata.membership.self_s", "s/req"),
    ("automata.enumerate_language.self_s", "s/req"),
    ("automata.enumerate_language.words", "count/req"),
    ("automata.shortest_word.self_s", "s/req"),
    ("automata.trim.self_s", "s/req"),
    ("constructions.sdi_nfa_direct.self_s", "s/req"),
    ("constructions.sdi_nfa_direct.states", "count/req"),
    ("constructions.sdi_nfa_direct.transitions", "count/req"),
    ("constructions.asdi_nfa_direct.self_s", "s/req"),
    ("constructions.asdi_nfa_direct.states", "count/req"),
    ("constructions.asdi_nfa_direct.transitions", "count/req"),
    ("constructions.maxmin_single.self_s", "s/req"),
    ("constructions.regular_max_sdi_finite.self_s", "s/req"),
    ("constructions.finite_into_regular.self_s", "s/req"),
    ("constructions.maxmin_membership.self_s", "s/req"),
    ("constructions.maxmin_membership.calls", "count/req"),
    ("trajectories.deletion_nfa.self_s", "s/req"),
    ("trajectories.deletion_nfa.states", "count/req"),
    ("trajectories.deletion_nfa.transitions", "count/req"),
    ("trajectories.shuffle_nfa.self_s", "s/req"),
    ("trajectories.shuffle_nfa.states", "count/req"),
    ("trajectories.shuffle_nfa.transitions", "count/req"),
    ("equations.candidate.s", "s/req"),
    ("equations.verify_solution.s", "s/req"),
    ("equations.candidate_states", "count/req"),
    ("oracle.bounded_language_op.self_s", "s/req"),
    ("oracle.bounded_language_op.pairs", "count/req"),
    ("oracle.bounded_language_op.kept_ratio", "ratio"),
    ("complexity.fooling_set_search.self_s", "s/req"),
    ("textio.parse.self_s", "s/req"),
    ("textio.serialize.self_s", "s/req"),
    ("textio.bytes_out", "count/req"),
] + [(f"{module}.self_s", "s/req") for module in MODULES] + [
    ("trace.spans", "count/req"),
    ("trace.overhead_ratio", "ratio"),
]

# function groups reported under one layer name
_GROUPS = {
    "constructions.maxmin_single": ("constructions.max_sdi_single_nfa", "constructions.min_sdi_single_nfa"),
    "constructions.maxmin_membership": ("constructions.max_sdi_membership", "constructions.min_sdi_membership"),
    "textio.parse": ("textio.parse_automaton", "textio.parse_dfa", "textio.parse_words",
                     "textio.parse_word", "textio.load_automaton", "textio.load_words"),
    "textio.serialize": ("textio.serialize_automaton", "textio.serialize_words",
                         "textio.format_word", "textio.save_automaton"),
}

# functions whose repeated inputs within one request are counted
_REPEAT_COUNTED = ("automata.product_intersection", "automata.determinize")
_SIZED = ("automata.product_intersection", "constructions.sdi_nfa_direct",
          "constructions.asdi_nfa_direct", "trajectories.deletion_nfa", "trajectories.shuffle_nfa")


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the part of it its children cover.

    Records must be in start order (a parent before its children, and
    siblings by start time), as a tracer appends them.  Children that
    overlap each other or stick out of the parent are clipped, so no
    interval is subtracted twice.
    """
    n = len(start)
    covered = [0.0] * n
    frontier = [-math.inf] * n
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], frontier[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            frontier[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def is_repeat(seen: set, name: str, args: tuple) -> bool:
    """True when the automata among `args` were already passed to `name`
    since `seen` was last cleared; records them otherwise.  Automata
    compare by value, so a rebuilt equal automaton counts as a repeat."""
    key = (name, tuple(arg for arg in args if hasattr(arg, "transitions")))
    if key in seen:
        return True
    seen.add(key)
    return False


class Tracer:
    """Records spans of the public functions of `<package>.<module>` for
    each name in `modules`, which must include `automata`, and of the
    constructors of `automata.Nfa` and `automata.Dfa`."""

    def __init__(self, package: str = "sdikit", modules: tuple[str, ...] = MODULES):
        self.package = package
        self.modules = modules
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.request = array("q")
        self.counts: Counter = Counter()
        self.request_id = -1
        self.max_len: int | None = None
        self._stack: list[int] = []
        self._seen: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin_request(self, request_id: int, max_len: int | None) -> None:
        self.request_id = request_id
        self.max_len = max_len
        self._seen.clear()

    def _wrap(self, name: str, func):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        start, end, parent, names, request, stack = (
            self.start, self.end, self.parent, self.name, self.request, self._stack
        )
        count = self._count
        counted = name in _REPEAT_COUNTED or name in _SIZED or name in _COUNT_HOOKS

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            request.append(self.request_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if counted:
                count(name, args, result)
            return result

        return traced

    def _count(self, name: str, args: tuple, result) -> None:
        counts = self.counts
        if name in _REPEAT_COUNTED:
            counts[name + ".repeats"] += is_repeat(self._seen, name, args)
        if name in _SIZED:
            counts[name + ".states"] += result.state_count
            counts[name + ".transitions"] += len(result.transitions)
        hook = _COUNT_HOOKS.get(name)
        if hook is not None:
            hook(self, args, result)

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module(self.package)
        modules = [importlib.import_module(f"{self.package}.{m}") for m in self.modules]
        wrappers: dict[int, tuple[object, object]] = {}
        for short, mod in zip(self.modules, modules):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        automata = modules[self.modules.index("automata")]
        for cls in (automata.Nfa, automata.Dfa):
            self._patch(cls, "__init__", self._wrap(NFA_INIT, vars(cls)["__init__"]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write(self, path: str) -> None:
        """Store the records: `<path>.json` names the columns and spans,
        `<path>.<column>` holds each column as raw machine values."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        columns = {"start": self.start, "end": self.end, "parent": self.parent,
                   "name": self.name, "request": self.request}
        for column, values in columns.items():
            with open(f"{path}.{column}", "wb") as fh:
                values.tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.start), "byteorder": sys.byteorder,
                       "columns": {c: v.typecode for c, v in columns.items()}}, fh)

    def layer_metrics(self, requests: int) -> dict[str, float]:
        """Per-layer metrics over all recorded requests (without the
        overhead ratio, which the runner measures)."""
        selfs = self_times(self.start, self.end, self.parent)
        calls: Counter = Counter()
        own: defaultdict = defaultdict(float)
        inclusive: defaultdict = defaultdict(float)
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            calls[name] += 1
            own[name] += selfs[i]
            inclusive[name] += self.end[i] - self.start[i]
        for group, members in _GROUPS.items():
            calls[group] = sum(calls[m] for m in members)
            own[group] = sum(own[m] for m in members)
        for name in list(own):
            if name.count(".") == 1 and name not in _GROUPS:
                own[name.split(".")[0]] += own[name]
        per = max(requests, 1)
        counts = self.counts
        values: dict[str, float] = {}
        for metric, unit in LAYER_METRICS:
            base, _, quantity = metric.rpartition(".")
            if quantity == "calls":
                value = calls[base] / per
            elif quantity == "self_s":
                value = own[base] / per
            elif quantity == "s":
                value = inclusive[base] / per
            elif quantity == "repeat_ratio":
                value = counts[base + ".repeats"] / calls[base] if calls[base] else 0.0
            elif quantity == "kept_ratio":
                value = counts[base + ".kept"] / counts[base + ".outputs"] if counts[base + ".outputs"] else 0.0
            elif metric == "trace.spans":
                value = len(self.start) / per
            elif metric == "trace.overhead_ratio":
                continue
            else:
                value = counts[metric] / per
            values[metric] = value
        return values


def _count_subsets(tracer: Tracer, args, result) -> None:
    tracer.counts["automata.determinize.subsets"] += result.state_count


def _count_words(tracer: Tracer, args, result) -> None:
    tracer.counts["automata.enumerate_language.words"] += len(result)


def _count_candidate(tracer: Tracer, args, result) -> None:
    tracer.counts["equations.candidate_states"] += result.state_count


def _count_bytes(tracer: Tracer, args, result) -> None:
    tracer.counts["textio.bytes_out"] += len(result)


def _count_pairs(tracer: Tracer, args, result) -> None:
    counts = tracer.counts
    lang1, lang2 = args[1], args[2]
    if hasattr(lang1, "__len__") and hasattr(lang2, "__len__"):
        counts["oracle.bounded_language_op.pairs"] += len(lang1) * len(lang2)
    counts["oracle.bounded_language_op.outputs"] += len(result)
    bound = tracer.max_len
    counts["oracle.bounded_language_op.kept"] += (
        len(result) if bound is None else sum(1 for w in result if len(w) <= bound)
    )


_COUNT_HOOKS = {
    "automata.determinize": _count_subsets,
    "automata.enumerate_language": _count_words,
    "equations.candidate": _count_candidate,
    "textio.serialize_automaton": _count_bytes,
    "textio.serialize_words": _count_bytes,
    "oracle.bounded_language_op": _count_pairs,
}
