import ast
import random
from itertools import islice
from pathlib import Path

import pytest

from sdikit import automata
from sdikit import (
    Alphabet,
    Dfa,
    InputError,
    Nfa,
    ResourceLimitError,
    canonicalize,
    complement,
    deletion_nfa,
    determinize,
    enumerate_language,
    equivalence_witness,
    equivalent,
    inclusion_witness,
    is_empty,
    is_finite_language,
    is_subset,
    length_lex_words,
    membership,
    named_trajectory,
    product_intersection,
    shortest_word,
    trim,
    union_all,
)
from sdikit.complexity import random_nfa
from sdikit.constructions import _sdi_parts, asdi_nfa_direct, sdi_nfa_direct
from sdikit.equations import EquationSpec, UnknownSide, _apply
from sdikit.oracle import SdiVariant

from conftest import AB, ABC, all_words, ba_blocks, blowup, count_builds, lenlex, wide_random_nfa


def astar_b():
    # a* b
    return Nfa(AB, 2, 0, frozenset({1}), frozenset({(0, "a", 0), (0, "b", 1)}))


def test_alphabet_validation():
    with pytest.raises(InputError):
        Alphabet(())
    with pytest.raises(InputError):
        Alphabet(("a", "a"))
    with pytest.raises(InputError):
        Alphabet(("#",))
    with pytest.raises(InputError):
        Alphabet((" ",))
    assert tuple(Alphabet.from_string("ba")) == ("a", "b")


def test_nfa_validation():
    with pytest.raises(InputError):
        Nfa(AB, 1, 1, frozenset(), frozenset())
    with pytest.raises(InputError):
        Nfa(AB, 1, 0, frozenset({3}), frozenset())
    with pytest.raises(InputError):
        Nfa(AB, 1, 0, frozenset(), frozenset({(0, "c", 0)}))


def test_a_word_is_the_trie_of_one_word():
    # ids 0..n along the word, final n, for the empty word too
    for word in ("", "a", "abba"):
        chain = frozenset((i, sym, i + 1) for i, sym in enumerate(word))
        assert Nfa.from_word(word, AB) == Nfa(AB, len(word) + 1, 0, frozenset({len(word)}), chain)
    with pytest.raises(InputError, match="^symbol 'c' not in alphabet 'ab'$"):
        Nfa.from_word("abc", AB)


def test_membership_basic():
    a = astar_b()
    assert membership(a, "aab")
    assert not membership(a, "")
    with pytest.raises(InputError):
        membership(a, "ax")


def test_membership_section_pattern():
    pattern = ba_blocks(2, "$")
    assert membership(pattern, "baba$")
    assert enumerate_language(pattern, 5) == ["baba$"]


def test_determinize_examples():
    astar = Nfa(Alphabet.from_string("a"), 1, 0, frozenset({0}), frozenset({(0, "a", 0)}))
    d = determinize(astar)
    assert d.state_count == 1 and membership(d, "aaa") and membership(d, "")

    sigma_star_a = Nfa(AB, 2, 0, frozenset({1}),
                       frozenset({(0, "a", 0), (0, "b", 0), (0, "a", 1)}))
    d = determinize(sigma_star_a)
    assert d.state_count == 2
    assert equivalent(d, sigma_star_a)

    empty = Nfa.empty_language(AB)
    d = determinize(empty)
    assert d.state_count == 1 and not d.finals


def test_determinize_cap(monkeypatch):
    rng = random.Random(3)
    a = random_nfa(rng, 6, AB, density=0.6)
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 1)
    with pytest.raises(ResourceLimitError):
        determinize(a)


def test_complement_examples():
    assert equivalent(complement(determinize(Nfa.empty_language(AB))), Nfa.universal(AB))
    assert is_empty(complement(determinize(Nfa.universal(AB))))
    comp_a = complement(determinize(Nfa.from_word("a", AB)))
    got = enumerate_language(comp_a, 3)
    expected = [w for w in lenlex(all_words("ab", 3)) if w != "a"]
    assert got == expected


def test_complement_builds_one_automaton(monkeypatch):
    a = random_nfa(random.Random(5), 6, AB, density=0.15)
    assert determinize(a).state_count < complement(a).state_count  # the sink is there
    built = count_builds(monkeypatch)
    comp = complement(a)
    assert len(built) == 1 and built[0] is comp


def test_complement_cap_boundary(monkeypatch):
    k = 6
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 2 ** (k + 1) - 1)
    with pytest.raises(ResourceLimitError, match="exploration exceeded"):
        complement(blowup(k))
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 2 ** (k + 1))
    assert complement(blowup(k)).state_count == 2 ** (k + 1)
    # {0}, {1}, {2} and the empty subset: the sink counts against the budget
    ab = Nfa.from_word("ab", AB)
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 3)
    assert determinize(ab).state_count == 3
    with pytest.raises(ResourceLimitError, match="exploration exceeded"):
        complement(ab)
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 4)
    assert complement(ab).state_count == 4


def test_product_intersection_examples():
    astar = Nfa(AB, 1, 0, frozenset({0}), frozenset({(0, "a", 0)}))
    just_a = Nfa.from_word("a", AB)
    assert enumerate_language(product_intersection(astar, just_a), 4) == ["a"]

    rng = random.Random(7)
    for _ in range(5):
        a = random_nfa(rng, 3, AB)
        assert is_empty(product_intersection(a, complement(determinize(a))))

    ab_star = Nfa(AB, 2, 0, frozenset({0}), frozenset({(0, "a", 1), (1, "b", 0)}))
    ends_b = Nfa(AB, 2, 0, frozenset({1}),
                 frozenset({(0, "a", 0), (0, "b", 0), (0, "b", 1)}))
    got = enumerate_language(product_intersection(ab_star, ends_b), 6)
    assert got == ["ab", "abab", "ababab"]


def test_union_examples():
    just_a, just_b = Nfa.from_word("a", AB), Nfa.from_word("b", AB)
    assert enumerate_language(union_all([Nfa.empty_language(AB), just_a], AB), 3) == ["a"]
    assert enumerate_language(union_all([just_a, just_b], AB), 2) == ["a", "b"]
    ba_plus = Nfa(AB, 3, 0, frozenset({2}),
                  frozenset({(0, "b", 1), (1, "a", 2), (2, "a", 2)}))
    ab_plus = Nfa(AB, 3, 0, frozenset({2}),
                  frozenset({(0, "a", 1), (1, "b", 2), (2, "b", 2)}))
    got = enumerate_language(union_all([ba_plus, ab_plus], AB), 4)
    assert got == ["ab", "ba", "abb", "baa", "abbb", "baaa"]


def test_union_alphabet_mismatch():
    with pytest.raises(InputError):
        union_all([Nfa.from_word("a", AB), Nfa.from_word("a", ABC)], AB)


def test_is_empty():
    assert is_empty(Nfa(AB, 2, 0, frozenset(), frozenset({(0, "a", 1)})))
    assert not is_empty(Nfa(AB, 1, 0, frozenset({0}), frozenset()))
    unreachable_final = Nfa(AB, 2, 0, frozenset({1}), frozenset({(1, "a", 1)}))
    assert is_empty(unreachable_final)


def test_is_subset_examples():
    astar = Nfa(Alphabet.from_string("a"), 1, 0, frozenset({0}), frozenset({(0, "a", 0)}))
    just_a = Nfa.from_word("a", Alphabet.from_string("a"))
    assert is_subset(just_a, astar)
    assert not is_subset(astar, just_a)

    ab_star = Nfa(AB, 2, 0, frozenset({0}), frozenset({(0, "a", 1), (1, "b", 0)}))
    even = Nfa(AB, 2, 0, frozenset({0}),
               frozenset({(0, "a", 1), (0, "b", 1), (1, "a", 0), (1, "b", 0)}))
    assert is_subset(ab_star, even)
    got = set(enumerate_language(ab_star, 8))
    assert got <= set(enumerate_language(even, 8))


def test_subset_partial_order():
    rng = random.Random(11)
    autos = [random_nfa(rng, rng.randint(1, 3), AB) for _ in range(8)]
    for a in autos:
        assert is_subset(a, a)
    for a in autos:
        for b in autos:
            if is_subset(a, b) and is_subset(b, a):
                assert equivalent(a, b)


def _random_pairs(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        alphabet = ABC if i % 3 == 0 else AB
        density = rng.uniform(0.05, 0.5)
        yield (random_nfa(rng, rng.randint(1, 6), alphabet, density),
               random_nfa(rng, rng.randint(1, 6), alphabet, density))


def test_inclusion_witness_matches_complement_product():
    # reference: the least word of a ∩ complement(b), built in full
    for a, b in _random_pairs(29, 600):
        expected = shortest_word(product_intersection(a, complement(b)))
        assert inclusion_witness(a, b) == expected
        assert is_subset(a, b) == (expected is None)


def test_equivalence_witness_is_in_exactly_one_language():
    for a, b in _random_pairs(31, 300):
        witness = equivalence_witness(a, b)
        one_way = [w for w in (inclusion_witness(a, b), inclusion_witness(b, a)) if w is not None]
        assert witness == min(one_way, key=lambda w: (len(w), w), default=None)
        if witness is not None:
            assert membership(a, witness) != membership(b, witness)


def test_equivalence_sees_words_only_the_right_side_accepts():
    # L(b) − L(a) = {abb}: found only through pairs whose left subset is empty
    a = Nfa.from_word("ab", AB)
    b = Nfa.from_words(["ab", "abb"], AB)
    assert inclusion_witness(a, b) is None
    assert equivalence_witness(a, b) == "abb"
    assert not equivalent(a, b)
    assert equivalence_witness(b, a) == "abb"


def test_subset_pair_search_cap(monkeypatch):
    a = astar_b()
    assert is_subset(a, a) and equivalent(a, a)
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 1)
    with pytest.raises(ResourceLimitError):
        is_subset(a, a)
    with pytest.raises(ResourceLimitError):
        equivalent(a, a)


def test_enumerate_examples():
    astar = Nfa(Alphabet.from_string("a"), 1, 0, frozenset({0}), frozenset({(0, "a", 0)}))
    assert enumerate_language(astar, 2) == ["", "a", "aa"]
    assert enumerate_language(Nfa.empty_language(AB), 5) == []
    assert enumerate_language(ba_blocks(2, "$"), 6) == ["baba$", "baaba$", "babaa$"]


def test_shortest_word():
    assert shortest_word(Nfa.empty_language(AB)) is None
    assert shortest_word(ba_blocks(2, "$")) == "baba$"
    assert shortest_word(Nfa.universal(AB)) == ""


def test_trim_and_finiteness():
    a = Nfa(AB, 4, 0, frozenset({1}),
            frozenset({(0, "a", 1), (2, "a", 1), (1, "b", 3), (3, "b", 3)}))
    t = trim(a)
    assert t.state_count == 2 and equivalent(t, a)
    assert is_finite_language(Nfa.from_words({"ab", "ba"}, AB))
    assert not is_finite_language(Nfa.universal(AB))
    # the only cycle is the self-loop on the greater target of a 2-target row
    loop = Nfa(AB, 3, 0, frozenset({1}), frozenset({(0, "a", 2), (2, "a", 1), (2, "a", 2)}))
    assert not is_finite_language(loop)


def test_is_finite_language():
    # pumping bound: an n-state NFA accepts infinitely many words iff it
    # accepts one whose length is in [n, 2n)
    rng = random.Random(37)
    seen = set()
    for _ in range(1000):
        n = rng.randint(1, 6)
        a = random_nfa(rng, n, AB, density=rng.uniform(0.05, 0.4))
        infinite = any(len(w) >= n for w in enumerate_language(a, 2 * n - 1))
        assert is_finite_language(a) == (not infinite)
        seen.add(infinite)
    assert seen == {False, True}


class _FrozensetSim:
    """Reference subset simulation over frozensets, built straight from
    the transition triples, independent of the program's bitset walks."""

    def __init__(self, a):
        self.a = a
        self.succ = {}
        for src, sym, dst in a.transitions:
            self.succ.setdefault((src, sym), set()).add(dst)

    def step(self, states, sym):
        return frozenset(dst for q in states for dst in self.succ.get((q, sym), ()))

    def accepts(self, word):
        states = frozenset({self.a.initial})
        for sym in word:
            states = self.step(states, sym)
        return bool(states & self.a.finals)

    def words(self, max_len):
        out, layer = [], [("", frozenset({self.a.initial}))]
        for length in range(max_len + 1):
            out += [w for w, states in layer if states & self.a.finals]
            if length < max_len:  # lex order within a length: symbols go in order
                layer = [(w + sym, self.step(states, sym)) for w, states in layer for sym in self.a.alphabet]
        return out

    def subsets(self, limit):
        """The nonempty subsets reachable from the initial state, or None
        when there are more than `limit`."""
        start = frozenset({self.a.initial})
        seen, todo = {start}, [start]
        while todo:
            states = todo.pop()
            for sym in self.a.alphabet:
                nxt = self.step(states, sym)
                if nxt and nxt not in seen:
                    if len(seen) == limit:
                        return None
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    def shortest(self):
        """Least accepted word: a search by length over subsets, each one
        kept with the lex-least word of that length reaching it."""
        frontier = {frozenset({self.a.initial}): ""}
        seen = set(frontier)
        while frontier:
            accepted = [w for states, w in frontier.items() if states & self.a.finals]
            if accepted:
                return min(accepted)
            nxt = {}
            for states, w in frontier.items():
                for sym in self.a.alphabet:
                    stepped = self.step(states, sym)
                    if stepped and stepped not in seen and (stepped not in nxt or w + sym < nxt[stepped]):
                        nxt[stepped] = w + sym
            seen.update(nxt)
            frontier = nxt
        return None


def _closure(seeds, edges):
    seen, todo = set(seeds), list(seeds)
    while todo:
        q = todo.pop()
        for src, dst in edges:
            if src == q and dst not in seen:
                seen.add(dst)
                todo.append(dst)
    return seen


def test_bitset_walks_match_frozenset_reference(monkeypatch):
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 400)
    rng = random.Random(41)
    shapes = dict.fromkeys(["initial != 0", "unreachable", "dead", "no finals", "over 64", "cap"], 0)
    for _ in range(100):
        a = wide_random_nfa(rng)
        sim = _FrozensetSim(a)
        reach = _closure({a.initial}, [(src, dst) for src, _, dst in a.transitions])
        live = _closure(a.finals, [(dst, src) for src, _, dst in a.transitions])
        shapes["initial != 0"] += a.initial != 0
        shapes["unreachable"] += len(reach) < a.state_count
        shapes["dead"] += bool(reach - live)
        shapes["no finals"] += not a.finals

        max_len = 5 if len(a.alphabet) == 3 else 7
        expected = sim.words(max_len)
        assert enumerate_language(a, max_len) == expected
        probes = expected + ["".join(rng.choice(a.alphabet.symbols) for _ in range(rng.randint(0, 20))) for _ in range(30)]
        assert [membership(a, w) for w in probes] == [sim.accepts(w) for w in probes]

        # the searches below may visit every reachable subset
        subsets = sim.subsets(400)
        if subsets is None:
            shapes["cap"] += 1
            with pytest.raises(ResourceLimitError):
                determinize(a)
            continue
        shapes["over 64"] += a.state_count > 64
        assert shortest_word(a) == sim.shortest()
        d = determinize(a)
        assert d.state_count == len(subsets)
        assert enumerate_language(d, max_len) == expected
        assert [membership(d, w) for w in probes] == [sim.accepts(w) for w in probes]
    assert min(shapes.values()) >= 10, shapes


def test_enumeration_steps_each_subset_once(monkeypatch):
    calls = []

    def counting_step_all(subset, masks):
        calls.append(subset)
        return step_all(subset, masks)

    step_all = automata._step_all
    monkeypatch.setattr(automata, "_step_all", counting_step_all)
    words = enumerate_language(blowup(10), 14)
    assert len(words) == 2**10 * (1 + 2 + 4 + 8)  # lengths 11 to 14
    # 2^11 subsets; stepping every prefix would take 2^14 - 1 calls
    assert len(calls) == len(set(calls)) <= 2**11


def test_enumeration_bound_costs_nothing_past_a_finite_language():
    # the `ahead` table stops once it repeats, so a huge bound walks no empty length
    assert enumerate_language(Nfa.from_words(["ab"], AB), 10**9) == ["ab"]
    # an unreachable loop accepts words of every length, yet no length past 2 has a word
    looped = Nfa(AB, 4, 0, frozenset({2}), frozenset({(0, "a", 1), (1, "b", 2), (3, "a", 3), (3, "b", 2)}))
    assert enumerate_language(looped, 10**9) == ["ab"]
    table, loop = automata._ahead(looped, 10**9)
    assert len(table) == 4 and loop == 3
    # past the table, (aa)* reads it with period 2; the walk stops when the caller does
    even = Nfa(AB, 2, 0, frozenset({0}), frozenset({(0, "a", 1), (1, "a", 0)}))
    assert list(islice(length_lex_words(even, 10**9), 4)) == ["", "aa", "aaaa", "aaaaaa"]


def test_shortest_word_steps_each_state_once(monkeypatch):
    calls = []

    def counting_step_all(subset, masks):
        calls.append(subset)
        return step_all(subset, masks)

    step_all = automata._step_all
    monkeypatch.setattr(automata, "_step_all", counting_step_all)
    # a subset search would step 2^11 + 1 subsets before it reaches a^13
    assert shortest_word(blowup(12)) == "a" * 13
    assert len(calls) <= 14
    assert not any(p & q for i, p in enumerate(calls) for q in calls[i + 1 :])


def test_determinize_cap_boundary(monkeypatch):
    k = 9
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 2 ** (k + 1) - 1)
    with pytest.raises(ResourceLimitError):
        determinize(blowup(k))
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 2 ** (k + 1))
    assert determinize(blowup(k)).state_count == 2 ** (k + 1)


def _wide_nfa(rng, alphabet=None, most=100):
    """`wide_random_nfa` drawn until it has `alphabet` and at most `most` states."""
    while True:
        a = wide_random_nfa(rng)
        if alphabet in (None, a.alphabet) and a.state_count <= most:
            return a


def _witness_or_cap(monkeypatch, search, a, b):
    with monkeypatch.context() as budget:
        budget.setattr(automata, "DEFAULT_STATE_CAP", 300)
        try:
            return search(a, b)
        except ResourceLimitError as exc:
            return str(exc)


def _on_demand_outcome(monkeypatch, search, built, on_demand, b):
    """The witness (or budget error) of `search` over `on_demand`, which
    must be that over `built`, unless the on-demand walk numbered more
    states than the budget: then `built`, which holds every state the
    walk can number, has more as well."""
    expected = _witness_or_cap(monkeypatch, search, built, b)
    got = _witness_or_cap(monkeypatch, search, on_demand, b)
    if got != expected:
        assert got == "exploration exceeded 300 states" and built.state_count > 300, (got, expected)
    return got


def test_on_demand_searches_match_the_built_construction(monkeypatch):
    # verification and closure step the construction on demand; their
    # witnesses (or their pair-budget errors) must be those of the built one
    rng = random.Random(73)
    shapes = dict.fromkeys(
        ["initial != 0", "unreachable", "dead", "no finals", "over 64", "equal", "state budget", "pair budget"], 0
    )
    for _ in range(20):
        sol = _wide_nfa(rng)
        known, other = _wide_nfa(rng, sol.alphabet, 6), _wide_nfa(rng, sol.alphabet)
        reach = _closure({sol.initial}, [(src, dst) for src, _, dst in sol.transitions])
        live = _closure(sol.finals, [(dst, src) for src, _, dst in sol.transitions])
        shapes["initial != 0"] += sol.initial != 0
        shapes["unreachable"] += len(reach) < sol.state_count
        shapes["dead"] += bool(reach - live)
        shapes["no finals"] += not sol.finals
        shapes["over 64"] += sol.state_count > 64
        outcomes = []
        for side in UnknownSide:
            for variant, build in ((SdiVariant.GENERAL, sdi_nfa_direct), (SdiVariant.ALPHABETIC, asdi_nfa_direct)):
                built = build(sol, known) if side is UnknownSide.LEFT else build(known, sol)
                for result in (other, built):
                    spec = EquationSpec(side, variant, known, result)
                    outcomes.append(
                        _on_demand_outcome(monkeypatch, equivalence_witness, built, _apply(sol, spec), result)
                    )
        grown = automata._OnDemand(*_sdi_parts(sol, sol))
        outcomes.append(_on_demand_outcome(monkeypatch, inclusion_witness, sdi_nfa_direct(sol, sol), grown, sol))
        shapes["equal"] += outcomes.count(None)
        shapes["state budget"] += outcomes.count("exploration exceeded 300 states")
        shapes["pair budget"] += sum(o is not None and o.startswith("subset-pair search") for o in outcomes)
    assert min(shapes.values()) >= 3, shapes


def test_on_demand_cap_boundary(monkeypatch):
    a = ba_blocks(1, "ab", AB)
    total = sdi_nfa_direct(a, a).state_count

    def number_all(cap):
        monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", cap)
        grown = automata._OnDemand(*_sdi_parts(a, a))
        q = 0
        while q < grown.state_count:  # step every numbered state in turn
            grown._step(1 << q)
            q += 1
        return grown

    assert number_all(total).state_count == total
    with pytest.raises(ResourceLimitError) as on_demand:
        number_all(total - 1)
    with pytest.raises(ResourceLimitError) as built:
        automata._explore(*_sdi_parts(a, a))
    assert str(on_demand.value) == str(built.value) == f"exploration exceeded {total - 1} states"
    assert on_demand.value.details == built.value.details == {"cap": total - 1}


def test_explore_outputs_are_empty_exactly_without_finals():
    # every state `_explore` numbers is reachable, which the deciders rely on
    rng = random.Random(59)
    pairs = list(_random_pairs(61, 60))
    pairs += [(wide_random_nfa(rng), Nfa.empty_language(AB)) for _ in range(20)]
    pairs += [(Nfa.empty_language(AB), astar_b()), (astar_b(), Nfa.empty_language(AB))]
    empties = 0
    for a, b in pairs:
        b = b if b.alphabet == a.alphabet else Nfa.empty_language(a.alphabet)
        for c in (sdi_nfa_direct(a, b), asdi_nfa_direct(a, b), product_intersection(a, b)):
            assert is_empty(c) == (not c.finals)
            empties += is_empty(c)
    assert 0 < empties < 3 * len(pairs)


# -- the successor-row store -------------------------------------------------


def _deletion_t1(rng):
    """A deletion along T1 whose product has epsilon moves and whose
    language is not empty: "aab" or "ab" is deleted from "aabb"."""
    a = union_all([random_nfa(rng, 6, AB, 0.3), Nfa.from_word("aabb", AB)], AB)
    return deletion_nfa(a, Nfa.from_words(["aab", "ab"], AB), named_trajectory("T1").language)


def _rows_built_cases():
    """Rows-built automata of every kind of producer, with their names."""
    rng = random.Random(61)
    for _ in range(4):
        a, b = random_nfa(rng, 4, AB, 0.3), random_nfa(rng, 3, AB, 0.3)
        yield "sdi_nfa_direct", sdi_nfa_direct(a, b)
        yield "deletion_nfa", _deletion_t1(rng)
        yield "complement", complement(a)
        yield "trim", trim(union_all([a, b], AB))


def test_rows_built_automata_equal_their_triple_built_twins():
    for name, c in _rows_built_cases():
        assert "transitions" not in vars(c), name  # the view is not built yet
        twin = type(c)(c.alphabet, c.state_count, c.initial, c.finals, c.transitions)
        assert c == twin and twin == c, name
        assert hash(c) == hash(twin) and repr(c) == repr(twin), name
        fewer = c.transitions - {min(c.transitions, default=None)}  # one triple less, if any
        shrunk = type(c)(c.alphabet, c.state_count, c.initial, c.finals, fewer)
        assert (c == shrunk) == (not c.transitions), name
        assert repr(c).startswith(type(c).__name__ + "(alphabet=")
        canon = canonicalize(c)
        assert "transitions" not in vars(canon)
        assert canonicalize(canon) == canon


def test_rows_constructor_checks_as_the_triples_constructor():
    cases = [  # state count, initial, finals, triples
        (0, 0, [], []),
        (2, 2, [], []),
        (2, 0, [5], []),
        (2, 0, [], [(2, "a", 0)]),
        (2, 0, [], [(0, "a", 0), (0, "a", 2)]),
        (2, 0, [], [(0, "a", -1), (0, "a", 1)]),
        (2, 0, [], [(0, "c", 1)]),
    ]
    for count, initial, finals, triples in cases:
        rows = {}
        for src, sym, dst in sorted(triples, key=lambda t: t[2]):
            rows[src, sym] = rows.get((src, sym), ()) + (dst,)
        with pytest.raises(InputError) as by_triples:
            Nfa(AB, count, initial, frozenset(finals), frozenset(triples))
        with pytest.raises(InputError) as by_rows:
            Nfa._from_rows(AB, count, initial, finals, rows)
        assert str(by_rows.value) == str(by_triples.value)
    with pytest.raises(InputError, match=r"^transition \(0, 'a', 2\) out of range$"):
        Nfa._from_rows(AB, 2, 0, [], {(0, "a"): (0, 2)})
    with pytest.raises(InputError, match=r"^transition symbol 'c' not in alphabet$"):
        Nfa._from_rows(AB, 2, 0, [], {(0, "c"): (1,)})


def test_rows_built_dfa_names_its_nondeterministic_row():
    rows = {(0, "a"): (1,), (1, "b"): (0, 2), (2, "a"): (2,)}
    with pytest.raises(InputError, match=r"^nondeterministic on \(1, 'b'\)$"):
        Dfa._from_rows(AB, 3, 0, [2], rows)
    assert Nfa._from_rows(AB, 3, 0, [2], rows).successors(1, "b") == (0, 2)


def _store_from_triples(a):
    """`_delta` and `_masks` as read off the triples, one bit at a time."""
    delta, masks = {}, {sym: [0] * a.state_count for sym in a.alphabet}
    for src, sym, dst in a.transitions:
        delta.setdefault((src, sym), set()).add(dst)
        masks[sym][src] |= 1 << dst
    return {key: tuple(sorted(dsts)) for key, dsts in delta.items()}, masks


def test_rows_store_matches_the_triples(monkeypatch):
    rng = random.Random(62)
    built = []
    for _ in range(40):
        a, b = wide_random_nfa(rng), wide_random_nfa(rng)
        b = Nfa(a.alphabet, b.state_count, b.initial, b.finals,
                frozenset(t for t in b.transitions if t[1] in a.alphabet))
        built += [trim(a), canonicalize(a), product_intersection(a, b)]
        with monkeypatch.context() as budget:
            budget.setattr(automata, "DEFAULT_STATE_CAP", 4096)
            try:
                built.append(determinize(a))
            except ResourceLimitError:
                pass
    assert max(c.state_count for c in built) > 64 and any(isinstance(c, Dfa) for c in built)
    # a deletion product whose epsilon rows are folded away
    eliminate, carried = automata._eliminate_epsilon, []

    def spy(alphabet, finals, rows):
        carried.append(any(sym is None for _, sym in rows))
        return eliminate(alphabet, finals, rows)

    monkeypatch.setattr(automata, "_eliminate_epsilon", spy)
    for _ in range(10):
        built.append(_deletion_t1(rng))
    assert carried == [True] * 10 and all(c.finals for c in built[-10:])
    for c in built:
        delta, masks = c._delta, c._masks
        assert (delta, masks) == _store_from_triples(c)


@pytest.mark.parametrize("epsilon", [False, True])
def test_open_row_falls_back_to_the_keyed_rows(monkeypatch, epsilon):
    # key 0's moves: a row turns into a list and stays open; b breaks the
    # run; a resumes it; duplicates in a list row and in a 1-tuple row;
    # b's row becomes a list (now open) while a's is reached through its key
    zero = [("a", 1), ("a", 2), ("b", 1), ("a", 3), ("a", 1), ("b", 1), (None, 4), ("a", 4),
            ("b", 2), ("a", 2), ("b", 3)]
    moves = {0: zero if epsilon else [m for m in zero if m[0] is not None],
             1: [("a", 6)], 4: [("b", 5), ("a", 0)]}
    finals = {4, 6}
    numbered = []
    number = automata._OnDemand._number

    def spy(run, key):
        numbered.append(key)
        return number(run, key)

    monkeypatch.setattr(automata._OnDemand, "_number", spy)
    built = automata._explore(AB, 0, lambda key: iter(moves.get(key, ())), finals.__contains__)
    # first reached, LIFO: key 4 is expanded before key 1, so 5 comes before 6
    assert numbered == [0, 1, 2, 3, 4, 5, 6]
    triples = {(src, sym, dst) for src, out in moves.items() for sym, dst in out if sym is not None}
    if epsilon:  # state 0 takes the moves and finality of state 4
        triples |= {(0, sym, dst) for src, sym, dst in triples if src == 4}
        finals = finals | {0}
    reference = Nfa(AB, 7, 0, frozenset(finals), frozenset(triples))
    assert built == reference
    assert (built._delta, built._masks) == _store_from_triples(reference)


def _source_trees():
    modules = sorted(Path(automata.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in modules}


def _named(tree, imports=True):
    """The names and attributes `tree` mentions, and those it imports."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(alias.name for alias in node.names)
    return named


def test_only_automata_names_the_rows():
    """No other module builds from, reads or folds the successor rows."""
    private = {"_from_rows", "_delta", "_eliminate_epsilon"}
    for name, tree in _source_trees().items():
        if name != "automata.py":
            assert not _named(tree) & private, (name, sorted(_named(tree) & private))


def test_only_automata_compares_operand_alphabets():
    """Every other module checks that two operands share an alphabet by
    calling `_require_same_alphabet`, never by comparing them itself."""
    for name, tree in _source_trees().items():
        compared = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and sum(isinstance(side, ast.Attribute) and side.attr == "alphabet"
                    for side in [node.left, *node.comparators]) >= 2
        ]
        assert name == "automata.py" or not compared, (name, compared)


def test_one_state_budget():
    """No function takes a `cap`.  Only `automata` names the budget (the
    package `__init__` exports it), read by the two walks that count, by
    the union, which counts before it builds, and by the check of every
    new automaton, which bounds a parsed file's declared states."""
    readers = set()
    for name, tree in _source_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                assert "cap" not in {p.arg for p in params if p}, (name, getattr(node, "name", "lambda"))
                if name == "automata.py" and "DEFAULT_STATE_CAP" in _named(node):
                    readers.add(getattr(node, "name", "lambda"))
        if name != "automata.py":
            assert "DEFAULT_STATE_CAP" not in _named(tree, imports=name != "__init__.py"), name
    assert readers == {"_check", "_number", "_subset_witness", "union_all"}


def test_one_variant_to_construction_rule():
    """Only `constructions` names the two insertion constructions' parts;
    every other module picks one through `_insertion_parts`."""
    for name, tree in _source_trees().items():
        if name != "constructions.py":
            assert not _named(tree) & {"_sdi_parts", "_asdi_parts"}, name


def test_every_walk_takes_one_construction_value():
    """A construction value carries its own alphabet: every `_OnDemand(...)`
    call takes one starred value and nothing else, and no `_explore(...)`
    call passes an argument before a starred value."""
    for name, tree in _source_trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = [isinstance(arg, ast.Starred) for arg in node.args]
            if callee == "_OnDemand":
                assert starred == [True] and not node.keywords, (name, node.lineno)
            elif callee == "_explore" and True in starred:
                assert starred.index(True) == 0, (name, node.lineno)


def test_the_equation_candidate_is_never_trimmed():
    """The candidate is searched by the unmasked rule over the deletion
    product folded on demand, and built by the rule masked to the
    co-reachable states of that same product, untrimmed and stepped to the
    end: `equations` has no `trim`."""
    assert "trim" not in _named(_source_trees()["equations.py"])


def test_each_solve_steps_one_deletion_product():
    """`equations` folds the deletion product in one place (`_deletion`) and
    builds one automaton whole, the candidate in `_built_candidate`, so the
    search and the built candidate step one product."""
    tree = _source_trees()["equations.py"]

    def explore_calls(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_explore"]

    built = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_built_candidate")
    assert len(explore_calls(tree)) == len(explore_calls(built)) == 1
    assert sum(isinstance(n, ast.Name) and n.id == "_folded" for n in ast.walk(tree)) == 1
