import itertools
from unittest import mock

import pytest
from hypothesis import settings, strategies as st

from sdikit import Alphabet, Nfa, TrajectoryKind, TrajectoryLanguage, automata, equations, solve
from sdikit.trajectories import SHUFFLE_ALPHABET

# Derandomized: every run draws the same examples, so tier-1 stays
# deterministic; no example database is written.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=80)
settings.load_profile("tier1")

AB = Alphabet.from_string("ab")
ABC = Alphabet.from_string("abc")
MARKED = Alphabet.from_string("ab$%")


def lenlex(words):
    return sorted(words, key=lambda w: (len(w), w))


def all_words(alphabet_str, max_len, min_len=0):
    out = [""] if min_len == 0 else []
    for ln in range(max(1, min_len), max_len + 1):
        out.extend("".join(t) for t in itertools.product(alphabet_str, repeat=ln))
    return out


def ba_blocks(k, tail, alphabet=MARKED):
    """NFA for (b a+)^k followed by the fixed tail word."""
    trans = set()
    state = 0
    for _ in range(k):
        trans.add((state, "b", state + 1))
        trans.add((state + 1, "a", state + 2))
        trans.add((state + 2, "a", state + 2))
        state += 2
    for sym in tail:
        trans.add((state, sym, state + 1))
        state += 1
    return Nfa(alphabet, state + 1, 0, frozenset({state}), frozenset(trans))


def blowup(k):
    """(a|b)*a(a|b)^k: k+2 states, 2^(k+1) reachable subsets."""
    trans = {(0, "a", 0), (0, "b", 0), (0, "a", 1)}
    trans |= {(q, sym, q + 1) for q in range(1, k + 1) for sym in "ab"}
    return Nfa(AB, k + 2, 0, frozenset({k + 1}), frozenset(trans))


def solve_keeping_the_search_candidate(spec):
    """`solve(spec)`, and the on-demand candidate its search read."""
    made = []

    def keep(searched, spec):
        made.append(searched)
        return real(searched, spec)

    real = equations._apply
    with mock.patch.object(equations, "_apply", keep):
        solution = solve(spec)
    (searched,) = made
    return solution, searched


def count_numbered(monkeypatch):
    """Record in the returned list every key `_OnDemand._number` numbers
    from now on (so every key `_explore` numbers)."""
    number, numbered = automata._OnDemand._number, []

    def counting(self, key):
        numbered.append(key)
        return number(self, key)

    monkeypatch.setattr(automata._OnDemand, "_number", counting)
    return numbered


def step_to_the_end(on_demand):
    """Step an `_OnDemand` until no numbered state is left unexpanded (reading
    its `_delta` does); its state count."""
    on_demand._delta
    return on_demand.state_count


def plain_shuffle():
    """All of {0,1}*: ordinary (unsynchronized) shuffle."""
    loops = frozenset({(0, "0", 0), (0, "1", 0)})
    return TrajectoryLanguage(TrajectoryKind.SHUFFLE, Nfa(SHUFFLE_ALPHABET, 1, 0, frozenset({0}), loops))


@st.composite
def small_nfas(draw, max_states=4):
    """Small NFAs over {a, b}: any initial state, dead and unreachable
    states.  At least one final state, or most examples would have an
    empty language (`wide_random_nfa` draws operands without one)."""
    n = draw(st.integers(1, max_states))
    states = st.integers(0, n - 1)
    # one integer per transition: drawing (source, symbol, target) tuples
    # took three times as long
    slots = [(src, sym, dst) for src in range(n) for sym in "ab" for dst in range(n)]
    chosen = draw(st.frozensets(st.integers(0, len(slots) - 1), min_size=n, max_size=len(slots)))
    trans = frozenset(slots[i] for i in chosen)
    return Nfa(AB, n, draw(states), draw(st.frozensets(states, min_size=1)), trans)


def wide_random_nfa(rng):
    """A sparse random NFA with 1-100 states (so state bitsets outgrow 64
    bits), any initial state and possibly no final state; at this density
    many have unreachable states and states that reach no final state."""
    n = rng.randint(1, 100)
    alphabet = ABC if rng.random() < 0.3 else AB
    degree = rng.uniform(0.2, 1.6)  # expected successors per state and symbol
    trans = {
        (src, sym, rng.randrange(n))
        for src in range(n)
        for sym in alphabet
        for _ in range(4)
        if rng.random() < degree / 4
    }
    finals = rng.sample(range(n), min(n, rng.choice([0, 1, 2, n // 3])))
    return Nfa(alphabet, n, rng.randrange(n), frozenset(finals), frozenset(trans))


def count_builds(monkeypatch):
    """Record in the returned list every automaton built from now on,
    through either constructor: `Nfa._from_rows` builds through `Nfa(...)`,
    so both run `Nfa.__post_init__` once per automaton."""
    built = []
    post_init = Nfa.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Nfa, "__post_init__", counting_post_init)
    return built


@pytest.fixture
def ab_alphabet():
    return AB
