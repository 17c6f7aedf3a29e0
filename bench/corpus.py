"""Seeded request corpora for the three benchmark workloads.

`generate(workload, corpus_seed, root)` writes every automaton and word
list a workload needs under `root` (with `sdikit.textio`) and returns the
list of CLI requests that read them.  The same corpus seed always gives
byte-identical files and the same request list.

`generate` also writes the request list to `requests.json` under `root`;
`load(root)` reads it back, so a run can time loading its corpus apart
from generating it.

Expected answers are checked in for corpus seeds `0..POOL-1` only
(`bench/expected/<workload>.json`), so a run seed `s` uses corpus seed
`s % POOL` and shuffles the request order with `s` itself.

Random automata come from this module's own generator, not from
`sdikit.complexity.random_nfa`, so a change to the program cannot change
the inputs it is measured on.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from sdikit import Alphabet, Nfa, sdi_nfa_direct
from sdikit.textio import save_automaton, serialize_words

WORKLOADS = ("closure-random", "blowup-solve", "maxmin-probes")
POOL = 8

AB = Alphabet.from_string("ab")
MARKED = Alphabet.from_string("ab$%")


@dataclass(frozen=True)
class Request:
    """One CLI call.  `kind` groups requests of one shape and size for the
    schedule; `argv` holds paths under the corpus root; `out` is the
    `--out` file whose serialized automaton is checked by digest;
    `max_len` is the request's `--max-len`, used by the tracer's kept
    ratio."""

    rid: str
    kind: str
    argv: tuple[str, ...]
    out: str | None = None
    max_len: int | None = None


def random_nfa(rng: random.Random, n: int, alphabet: Alphabet, density: float) -> Nfa:
    """Exactly round(density * n * n * |alphabet|) distinct transitions and
    round(0.4 * n) final states, drawn uniformly.  Fixed counts rather
    than a coin per triple keep the cost of instances of one size close
    together, so the run-to-run spread stays small."""
    triples = [(src, sym, dst) for src in range(n) for sym in alphabet for dst in range(n)]
    trans = rng.sample(triples, round(density * len(triples)))
    finals = rng.sample(range(n), max(1, round(0.4 * n)))
    return Nfa(alphabet, n, 0, frozenset(finals), frozenset(trans))


class Sim:
    """Subset simulation straight from the transition triples: the
    benchmark's own simulator, independent of the program's `step`."""

    def __init__(self, a: Nfa):
        self.alphabet = tuple(a.alphabet)
        self.initial = frozenset({a.initial})
        self.finals = a.finals
        self.succ: dict[tuple[int, str], set[int]] = {}
        for src, sym, dst in a.transitions:
            self.succ.setdefault((src, sym), set()).add(dst)

    def step(self, states: frozenset[int], sym: str) -> frozenset[int]:
        out: set[int] = set()
        for q in states:
            out |= self.succ.get((q, sym), set())
        return frozenset(out)

    def accepts(self, word: str) -> bool:
        states = self.initial
        for sym in word:
            states = self.step(states, sym)
        return bool(states & self.finals)

    def words(self, max_len: int) -> set[str]:
        out, layer = set(), [("", self.initial)]
        for length in range(max_len + 1):
            out |= {w for w, states in layer if states & self.finals}
            if length == max_len:
                break
            layer = [(w + sym, nxt) for w, states in layer for sym in self.alphabet
                     if (nxt := self.step(states, sym))]
        return out


def shape(a: Nfa) -> tuple[int, int]:
    """(useful states, reachable DFA subsets), computed here rather than
    by the program under test."""
    sim = Sim(a)
    subsets, todo = {sim.initial}, [sim.initial]
    while todo:
        subset = todo.pop()
        for sym in sim.alphabet:
            nxt = sim.step(subset, sym)
            if nxt and nxt not in subsets:
                subsets.add(nxt)
                todo.append(nxt)
    pred: dict[int, set[int]] = {}
    for src, _, dst in a.transitions:
        pred.setdefault(dst, set()).add(src)
    coreach, todo_states = set(a.finals), list(a.finals)
    while todo_states:
        for q in pred.get(todo_states.pop(), set()) - coreach:
            coreach.add(q)
            todo_states.append(q)
    return len(set().union(*subsets) & coreach), len(subsets)


def shaped_nfa(rng: random.Random, n: int, dfa_band: tuple[int, int]) -> Nfa:
    """A random NFA over {a, b} at density 0.15 whose states are all
    useful and whose subset construction lands in `dfa_band`.  Without
    this, a third of the draws are near-empty languages and the cost of
    `closed-sdi` on the rest varies tenfold with the DFA size, so two
    seeds would measure different workloads."""
    while True:
        a = random_nfa(rng, n, AB, 0.15)
        useful, subsets = shape(a)
        if useful == n and dfa_band[0] <= subsets <= dfa_band[1]:
            return a


def blowup(k: int) -> Nfa:
    """(a|b)*a(a|b)^k: k+2 NFA states, 2^(k+1) reachable DFA subsets."""
    trans = {(0, "a", 0), (0, "b", 0), (0, "a", 1)}
    for i in range(1, k + 1):
        trans |= {(i, "a", i + 1), (i, "b", i + 1)}
    return Nfa(AB, k + 2, 0, frozenset({k + 1}), frozenset(trans))


def ba_blocks(k: int, tail: str) -> Nfa:
    """(b a+)^k followed by the fixed tail word, over {a, b, $, %}
    (the witness family of the test suite)."""
    trans = set()
    state = 0
    for _ in range(k):
        trans |= {(state, "b", state + 1), (state + 1, "a", state + 2), (state + 2, "a", state + 2)}
        state += 2
    for sym in tail:
        trans.add((state, sym, state + 1))
        state += 1
    return Nfa(MARKED, state + 1, 0, frozenset({state}), frozenset(trans))


class _Writer:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(os.path.join(root, "out"), exist_ok=True)
        self.requests: list[Request] = []

    def automaton(self, name: str, a: Nfa) -> str:
        path = os.path.join(self.root, name + ".nfa")
        save_automaton(path, a)
        return path

    def words(self, name: str, words: list[str]) -> str:
        path = os.path.join(self.root, name + ".txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_words(words))
        return path

    def add(self, rid: str, kind: str, *argv: str, out: bool = False) -> None:
        argv_list = list(argv)
        out_path = None
        if out:
            out_path = os.path.join(self.root, "out", rid + ".nfa")
            argv_list += ["--out", out_path]
        max_len = int(argv_list[argv_list.index("--max-len") + 1]) if "--max-len" in argv_list else None
        self.requests.append(Request(rid, kind, tuple(argv_list), out_path, max_len))


def _closure_random(rng: random.Random, w: _Writer) -> None:
    # Dense random operands at density 0.15 over {a, b}.  The direct SDI
    # construction grows to 3mn+2m states (2,760 and ~170k transitions at
    # 30+30), and the product/inclusion path in `automata` carries the
    # rest; these languages determinize to small DFAs, so subset
    # construction does little.  `closed-sdi` costs 0.5-3 s at 15 states
    # and 2-4 s at 20, so it runs at 10 only, and the 30-state pairs skip
    # the trajectory shuffle (2.4 s): the list must fit well over 100
    # requests into one run, and a few very slow requests would make
    # every figure hinge on which of them a seed draws.  The plan fixes
    # where the latency quantiles fall: the cheap n=10
    # decisions are ~60 % of the list, so the median sits inside them, and
    # 10 % of the list (the n=10 closures) straddles the 90th percentile,
    # with only the few heaviest requests above it.
    cheap = ("sdi-independent", "asdi-independent", "sdi-free", "op-sdi")
    # (states, pairs, requests, DFA-size band: the middle half of the
    # sizes seen for that state count)
    plan = [
        (10, 12, cheap + ("shuffle", "closed-sdi"), (25, 45)),
        (10, 4, cheap + ("closed-sdi",), (25, 45)),
        (10, 8, cheap, (25, 45)),
        (20, 3, cheap + ("shuffle",), (20, 35)),
        (20, 2, cheap, (20, 35)),
        (30, 3, ("op-sdi",), (14, 22)),
    ]
    pair = 0
    for n, pairs, kinds, band in plan:
        for _ in range(pairs):
            tag = f"r{n}-{pair}"
            pair += 1
            a = w.automaton(tag + "a", shaped_nfa(rng, n, band))
            b = w.automaton(tag + "b", shaped_nfa(rng, n, band))
            for kind in kinds:
                rid = f"{tag}.{kind}"
                if kind == "closed-sdi":
                    w.add(rid, f"r{n}.{kind}", "decide", kind, a)
                elif kind == "op-sdi":
                    w.add(rid, f"r{n}.{kind}", "op", "--variant", "sdi", a, b, out=True)
                elif kind == "shuffle":
                    w.add(rid, f"r{n}.{kind}", "op", "--variant", "shuffle", a, b,
                          "--trajectory", "T_sdi", "--max-len", "8")
                else:
                    w.add(rid, f"r{n}.{kind}", "decide", kind, a, b)


def _random_words(rng: random.Random, alphabet: str, count: int, lo: int, hi: int) -> list[str]:
    words: set[str] = set()
    while len(words) < count:
        words.add("".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi))))
    return sorted(words, key=lambda x: (len(x), x))


def _blowup_solve(rng: random.Random, w: _Writer) -> None:
    # (a|b)*a(a|b)^k needs 2^(k+1) DFA subsets, so determinize, the
    # deletion product and the equation candidate dominate while the SDI
    # constructions stay small.  Unsolvable instances R = blowup(k) grow
    # the candidate with k, for four 3-word known operands; k
    # stops at 8 (one request at 9: k = 10 costs 1-2 s a request).
    # Solvable instances R = S0 (+) L are built here with the program's
    # own `sdi_nfa_direct`.  `closed-sdi` on the family has its witness
    # 8-9 symbols deep in a large product.  The median falls inside the
    # k = 6 solves and the 90th percentile inside the k = 8 solves.
    blowups = {k: w.automaton(f"blowup{k}", blowup(k)) for k in (*range(4, 13), 14)}
    # The known operands are fixed: the candidate's size, and with it the
    # cost of every solve, swings by a quarter between random 3-word
    # operands, so two seeds would measure different workloads.  The seed
    # varies the deleted words and the order.  (With only two-letter
    # words R = blowup(k) can become solvable.)
    knowns = []
    for j, words in enumerate((["ab", "ba", "abb"], ["aa", "bab", "bba"], ["ab", "aab", "bbb"], ["bb", "aba", "baa"])):
        knowns.append((words, w.automaton(f"known{j}", Nfa.from_words(words, AB))))
        for k in range(4, 9):
            for side in ("left", "right"):
                for var in ("sdi", "asdi"):
                    w.add(f"unsolvable{k}.{j}.{side}.{var}", f"unsolvable{k}",
                          "solve", "--side", side, "--variant", var, knowns[j][1], blowups[k])
    w.add("unsolvable9", "unsolvable9", "solve", "--side", "left", "--variant", "sdi",
          knowns[0][1], blowups[9])
    words, known = knowns[0]
    for k in (3, 5, 7):
        left = w.automaton(f"solvable{k}.left", sdi_nfa_direct(blowup(k), Nfa.from_words(words, AB)))
        right = w.automaton(f"solvable{k}.right", sdi_nfa_direct(Nfa.from_words(words, AB), blowup(k)))
        w.add(f"solvable{k}.left", f"solvable{k}", "solve", "--side", "left", "--variant", "sdi", known, left)
        w.add(f"solvable{k}.right", f"solvable{k}", "solve", "--side", "right", "--variant", "sdi", known, right)
    for k in (6, 7):
        w.add(f"closed{k}", f"closed{k}", "decide", "closed-sdi", blowups[k])
    for k in range(4, 13):
        deleted = w.automaton(f"deleted{k}", Nfa.from_words(_random_words(rng, "ab", 3, 2, 4), AB))
        w.add(f"deletion{k}", "deletion", "op", "--variant", "deletion", blowups[k], deleted,
              "--trajectory", "T1", out=True)
    for k in (12, 14):
        w.add(f"enum{k}", "enum", "enum", blowups[k], "--max-len", "16")


def _block_word(rng: random.Random, blocks: int, tail: str, lo: int, hi: int) -> str:
    return "".join("b" + "a" * rng.randint(lo, hi) for _ in range(blocks)) + tail


def _maxmin_probes(rng: random.Random, w: _Writer) -> None:
    # Structured, sparse languages: hosts (b a+)^2 t and inserted words
    # (b a+)^2 %$ from the test suite's witness family, whose max/min
    # insertion results are not regular.  The polynomial membership
    # deciders, the oracle's bounded operation, enumeration and the
    # fooling-set search carry the load; subset and product work is close
    # to zero.  Many small simulations (`Nfa.step`) instead of one large
    # exploration.  Small random hosts over {a, b, $, %} stay at 4 states
    # and only answer membership queries: the bounded counterexample and
    # fooling searches explode on them unpredictably.  Membership queries
    # are most of the list, so the median falls inside them; the bounded
    # counterexample searches (24 of 127) hold the 90th percentile.
    ins = w.automaton("inserted", ba_blocks(2, "%$"))
    tails = ("$", "$$", "%$", "$%", "%", "%%", "$%$", "%$%")
    hosts = [w.automaton(f"host{t}", ba_blocks(2, tail)) for t, tail in enumerate(tails)]
    host = hosts[0]
    for i in range(20):
        # words of three a-blocks with the inserted word's tail, some with
        # an extra `$` that no insertion can produce; lengths up to 40.
        # The block lengths are a seeded arrangement of fixed triples, so
        # every corpus probes the same word lengths.
        lengths = (1 + i % 12, 1 + (5 * i + 3) % 12, 1 + (7 * i + 6) % 12)
        for tail in ("%$", "%$$"):
            word = "".join("b" + "a" * n for n in rng.sample(lengths, 3)) + tail
            for variant in ("maxsdi", "minsdi"):
                w.add(f"member{i}{tail}.{variant}", f"member.{variant}",
                      "member", "--variant", variant, word, host, ins)
    for i in range(4):
        small = w.automaton(f"small{i}", random_nfa(rng, 4, MARKED, 0.15))
        for variant in ("maxsdi", "minsdi"):
            probe = "".join(rng.choice("ab$%") for _ in range(10))
            w.add(f"small{i}.{variant}", "member.small", "member", "--variant", variant, probe, small, ins)
    for t, path in enumerate(hosts):
        for variant in ("sdi", "max", "min"):
            w.add(f"counterexample-{variant}.host{t}", "counterexample", "decide",
                  f"counterexample-{variant}", path, "--max-len", "13")
    for i in range(2):
        words = w.words(f"y{i}", [_block_word(rng, 1, "%$", 1, 3), _block_word(rng, 1, "$", 1, 2), "ba"])
        for variant in ("maxsdi", "minsdi"):
            w.add(f"op-{variant}-words{i}", "op-words", "op", "--variant", variant, host, "--words", words, out=True)
        for variant in ("max", "min"):
            w.add(f"closed-finite-{variant}{i}", "closed-finite", "decide", f"closed-finite-{variant}", host, words)
    for bound in (12, 13):
        for variant in ("maxsdi", "minsdi"):
            w.add(f"op-{variant}-bounded{bound}", "op-bounded", "op", "--variant", variant, host, ins,
                  "--max-len", str(bound))
    for k, target, bound in ((3, 6, 8), (4, 8, 10), (3, 4, 6)):
        w.add(f"fooling{k}.{target}", "fooling", "fooling",
              w.automaton(f"blocks{k}", ba_blocks(k, "$")), "--target", str(target), "--max-len", str(bound))


_FAMILIES = {
    "closure-random": _closure_random,
    "blowup-solve": _blowup_solve,
    "maxmin-probes": _maxmin_probes,
}


MANIFEST = "requests.json"


def generate(workload: str, corpus_seed: int, root: str) -> list[Request]:
    """Write the workload's corpus for `corpus_seed` under `root`."""
    writer = _Writer(root)
    _FAMILIES[workload](random.Random(f"{workload}:{corpus_seed}"), writer)
    with open(os.path.join(root, MANIFEST), "w", encoding="utf-8") as fh:
        json.dump([[r.rid, r.kind, list(r.argv), r.out, r.max_len] for r in writer.requests], fh)
    return writer.requests


def load(root: str) -> list[Request]:
    """The request list of the corpus written under `root`."""
    with open(os.path.join(root, MANIFEST), encoding="utf-8") as fh:
        return [Request(rid, kind, tuple(argv), out, max_len) for rid, kind, argv, out, max_len in json.load(fh)]


def schedule(requests: list[Request], seed: int) -> list[Request]:
    """Stratified order: each kind's requests spread evenly over the list
    at a seeded phase, so every prefix of it holds each kind in
    proportion and a run that stops mid-pass still measures the full
    mix."""
    rng = random.Random(seed)
    kinds: dict[str, list[Request]] = {}
    for request in requests:
        kinds.setdefault(request.kind, []).append(request)
    keyed = []
    for members in kinds.values():
        rng.shuffle(members)
        phase = rng.random()
        keyed += [((j + phase) / len(members), rng.random(), r) for j, r in enumerate(members)]
    keyed.sort(key=lambda item: item[:2])
    return [r for _, _, r in keyed]
