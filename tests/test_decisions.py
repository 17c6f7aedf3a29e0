import random
from functools import partial

import pytest

from sdikit import automata, constructions, decide
from sdikit import (
    InputError,
    Nfa,
    ResourceLimitError,
    SdiVariant,
    asdi_nfa_direct,
    bounded_insertion_words,
    bounded_language_op,
    closed_under_finite_maxmin,
    closure_counterexample_search,
    enumerate_language,
    inclusion_witness,
    is_closed_under_sdi,
    is_free,
    is_independent,
    max_sdi_membership,
    membership,
    min_sdi_membership,
    product_intersection,
    scan_language,
    sdi_nfa_direct,
    sdi_strings,
    shortest_word,
    two_var_solvable,
)
from sdikit.complexity import random_nfa

from conftest import AB, ABC, all_words, ba_blocks, blowup, lenlex, wide_random_nfa


def test_sdi_free_examples():
    assert is_free(SdiVariant.GENERAL, Nfa.from_word("a", AB), Nfa.from_word("ab", AB)).answer
    report = is_free(SdiVariant.GENERAL, Nfa.from_word("ab", AB), Nfa.from_word("ab", AB))
    assert not report.answer and report.witness == "ab"
    a_plus = Nfa(AB, 2, 0, frozenset({1}), frozenset({(0, "a", 1), (1, "a", 1)}))
    assert not is_free(SdiVariant.GENERAL, a_plus, a_plus).answer


def test_sdi_independent_examples():
    two = Nfa.from_words({"ab", "b"}, AB)
    assert is_independent(SdiVariant.GENERAL, two, two).answer
    host = Nfa.from_word("ab", ABC)
    target = Nfa.from_word("acb", ABC)
    report = is_independent(SdiVariant.GENERAL, host, target)
    assert not report.answer and report.witness == "acb"
    assert is_independent(SdiVariant.GENERAL, Nfa.empty_language(AB), Nfa.universal(AB)).answer


def test_asdi_variants():
    host = Nfa.from_word("ab", ABC)
    target = Nfa.from_word("acb", ABC)
    assert not is_free(SdiVariant.ALPHABETIC, host, target).answer
    two = Nfa.from_words({"ab", "b"}, AB)
    assert is_independent(SdiVariant.ALPHABETIC, two, two).answer
    assert is_free(SdiVariant.ALPHABETIC, Nfa.empty_language(AB), Nfa.universal(AB)).answer
    # aba into aba matches the outfix (ab, a) but no letter pair: aa is no factor
    aba = Nfa.from_word("aba", AB)
    assert is_free(SdiVariant.ALPHABETIC, aba, aba).answer and not is_free(SdiVariant.GENERAL, aba, aba).answer


def test_freeness_matches_bounded_oracle_emptiness():
    rng = random.Random(151)
    for _ in range(20):
        a = random_nfa(rng, 2, AB)
        b = random_nfa(rng, 2, AB)
        free = is_free(SdiVariant.GENERAL, a, b).answer
        hosts = enumerate_language(a, 8)
        inserted = enumerate_language(b, 8)
        produced_max = bounded_language_op(SdiVariant.MAXIMAL, hosts, inserted)
        produced_min = bounded_language_op(SdiVariant.MINIMAL, hosts, inserted)
        # bounded check only: emptiness of the max/min set at the bound
        if not free:
            witness = is_free(SdiVariant.GENERAL, a, b).witness
            assert witness is not None and membership(sdi_nfa_direct(a, b), witness)
        if produced_max or produced_min:
            assert not free
        assert bool(produced_max) == bool(produced_min)


def test_independence_identity_on_enumerations():
    # insertion with the trivial extension outfix is always maximal, so
    # growing by arbitrary nonempty words coincides for all variants;
    # checked construction-side against oracle-side
    rng = random.Random(157)
    candidates = all_words("ab", 7)
    for _ in range(10):
        a = random_nfa(rng, 3, AB)
        hosts = set(enumerate_language(a, 7))
        grown = sdi_nfa_direct(a, Nfa.sigma_plus(AB))
        construction = set(enumerate_language(grown, 7))
        general = scan_language(SdiVariant.GENERAL, candidates, hosts, None)
        maximal = scan_language(SdiVariant.MAXIMAL, candidates, hosts, None)
        minimal = scan_language(SdiVariant.MINIMAL, candidates, hosts, None)
        assert construction == general == maximal == minimal


def test_closed_under_sdi_examples():
    assert is_closed_under_sdi(Nfa.universal(AB)).answer
    assert is_closed_under_sdi(Nfa.from_word("ab", AB)).answer
    a_plus_b = Nfa(AB, 3, 0, frozenset({2}),
                   frozenset({(0, "a", 1), (1, "a", 1), (1, "b", 2)}))
    report = is_closed_under_sdi(a_plus_b)
    # cross-check the verdict against the bounded oracle closure at length 8
    words = enumerate_language(a_plus_b, 8)
    produced = {w for w in bounded_language_op(SdiVariant.GENERAL, words, words) if len(w) <= 8}
    escaped = [w for w in produced if not membership(a_plus_b, w)]
    assert report.answer == (not escaped)
    if not report.answer:
        assert report.witness is not None
        assert membership(sdi_nfa_direct(a_plus_b, a_plus_b), report.witness)
        assert not membership(a_plus_b, report.witness)


def test_closed_sdi_counts_the_construction_against_the_budget(monkeypatch):
    # every state is reachable: 6 + 3·36 + 6 = 120 keys, found in under 40 pairs
    a = random_nfa(random.Random(3), 6, AB, density=0.6)
    grown = sdi_nfa_direct(a, a)
    assert is_closed_under_sdi(a).resources == {"explored_states": 120} == {"explored_states": grown.state_count}
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 40)
    assert inclusion_witness(grown, a) is None
    with pytest.raises(ResourceLimitError, match="^exploration exceeded 40 states$"):
        is_closed_under_sdi(a)


def test_closed_under_finite_maxmin_examples():
    assert closed_under_finite_maxmin(SdiVariant.MAXIMAL, Nfa.universal(ABC), {"ab"}).answer
    host = Nfa.from_words({"ababab"}, ABC)
    report = closed_under_finite_maxmin(SdiVariant.MAXIMAL, host, {"acbab"})
    assert not report.answer
    assert report.witness in {"acbabab", "abacbab", "ababacbab"}
    assert max_sdi_membership(report.witness, host, Nfa.from_words({"acbab"}, ABC))
    # maximal insertion of aaa into aaaa gives aaaa back, minimal gives aaaaa
    aaaa = Nfa.from_word("aaaa", AB)
    assert closed_under_finite_maxmin(SdiVariant.MAXIMAL, aaaa, {"aaa"}).answer
    report = closed_under_finite_maxmin(SdiVariant.MINIMAL, aaaa, {"aaa"})
    assert (report.answer, report.witness) == (False, "aaaaa")


def test_closed_under_finite_maxmin_matches_oracle():
    rng = random.Random(163)
    for _ in range(10):
        a = random_nfa(rng, 2, AB)
        words = {"".join(rng.choice("ab") for _ in range(rng.randint(2, 3)))}
        for variant in (SdiVariant.MAXIMAL, SdiVariant.MINIMAL):
            report = closed_under_finite_maxmin(variant, a, words)
            hosts = enumerate_language(a, 8)
            produced = bounded_language_op(variant, hosts, words)
            escaped = [w for w in produced if len(w) <= 8 and not membership(a, w)]
            if escaped:
                assert not report.answer
            if not report.answer:
                checker = max_sdi_membership if variant is SdiVariant.MAXIMAL else min_sdi_membership
                assert checker(report.witness, a, Nfa.from_words(words, AB))
                assert not membership(a, report.witness)


def test_two_var_solvable():
    sigma2 = sdi_nfa_direct(Nfa.universal(AB), Nfa.universal(AB))  # all words length >= 2
    assert two_var_solvable(sigma2).answer
    report = two_var_solvable(Nfa.from_word("a", AB))
    assert not report.answer and report.witness == "a"
    assert two_var_solvable(Nfa.empty_language(AB)).answer


def test_two_var_matches_length_criterion():
    rng = random.Random(167)
    for _ in range(20):
        r = random_nfa(rng, rng.randint(1, 3), AB)
        words = enumerate_language(r, 6)
        short_exists = any(len(w) < 2 for w in words)
        report = two_var_solvable(r)
        if short_exists:
            assert not report.answer
        # absence of short words at the bound is conclusive here: length < 2
        # membership is decided exactly by the product construction
        else:
            assert report.answer


def test_counterexample_search():
    assert closure_counterexample_search(SdiVariant.GENERAL, Nfa.universal(AB), 6) is None
    assert closure_counterexample_search(SdiVariant.GENERAL, Nfa.from_word("ab", AB), 8) is None
    # singleton self-insertion under max keeps only the host word
    host = Nfa.from_words({"ababab"}, ABC)
    assert closure_counterexample_search(SdiVariant.MAXIMAL, host, 12) is None
    # but the general variant escapes
    w = closure_counterexample_search(SdiVariant.GENERAL, host, 12)
    assert w is not None
    assert w in sdi_strings("ababab", "ababab") and w != "ababab"


@pytest.mark.parametrize("variant", [SdiVariant.GENERAL, SdiVariant.MAXIMAL, SdiVariant.MINIMAL])
def test_counterexample_search_pulls_no_word_past_its_witness(monkeypatch, variant):
    pulled = []
    walk = constructions.length_lex_words

    def counting_walk(a, max_len):
        for w in walk(a, max_len):
            pulled.append(w)
            yield w

    monkeypatch.setattr(constructions, "length_lex_words", counting_walk)
    host = ba_blocks(2, "$")
    witness = closure_counterexample_search(variant, host, 12)
    assert witness == "bababa$"
    general = walk(sdi_nfa_direct(host, host), 12)
    assert pulled == [next(general) for _ in pulled] and pulled[-1] == witness
    assert len(pulled) == 7 and len(list(general)) == 85  # the words the search never pulled


def _small_nfa(rng, alphabet):
    """1-3 random states; about a quarter accept nothing."""
    a = random_nfa(rng, rng.randint(1, 3), alphabet)
    if rng.random() < 0.25:
        a = Nfa(alphabet, a.state_count, a.initial, frozenset(), a.transitions)
    return a


@pytest.mark.parametrize("variant", list(SdiVariant))
def test_bounded_insertion_words_agree_with_oracle(variant):
    # No operand of an output is longer than the output, so the oracle
    # over the operands' words up to n gives every output up to n.
    rng = random.Random(f"bounded:{variant.value}")
    for i in range(10):
        alphabet, n = (AB, 6) if i % 2 else (ABC, 4)
        a, b = _small_nfa(rng, alphabet), _small_nfa(rng, alphabet)
        hosts, inserted = enumerate_language(a, n), enumerate_language(b, n)
        want = {w for w in bounded_language_op(variant, hosts, inserted) if len(w) <= n}
        assert list(bounded_insertion_words(variant, a, b, n)) == lenlex(want)
        escaped = lenlex(
            w for w in bounded_language_op(variant, hosts, hosts)
            if len(w) <= n and not membership(a, w)
        )
        assert closure_counterexample_search(variant, a, n) == (escaped[0] if escaped else None)


def _built_witnesses(a, b):
    """Each predicate's witness through automata built in full."""
    sigma_plus = Nfa.sigma_plus(a.alphabet)
    general, alphabetic = SdiVariant.GENERAL, SdiVariant.ALPHABETIC
    return {
        partial(is_free, general): shortest_word(sdi_nfa_direct(a, b)),
        partial(is_free, alphabetic): shortest_word(asdi_nfa_direct(a, b)),
        partial(is_independent, general): shortest_word(product_intersection(sdi_nfa_direct(a, sigma_plus, True), b)),
        partial(is_independent, alphabetic): shortest_word(
            product_intersection(asdi_nfa_direct(a, sigma_plus, True), b)
        ),
    }


def test_on_demand_predicates_match_the_built_path():
    # freeness and independence search the construction (and product) on
    # demand; answer and witness must be those of the built automata
    rng = random.Random(191)
    shapes = dict.fromkeys(["empty host", "no finals", "over 64", "true", "false"], 0)
    for i in range(40):
        a = wide_random_nfa(rng)
        b = wide_random_nfa(rng)
        if i % 8 == 0:
            a = Nfa.empty_language(a.alphabet)
        if b.alphabet != a.alphabet or i % 8 == 1:
            b = Nfa(a.alphabet, b.state_count, b.initial, frozenset(), frozenset())
        shapes["empty host"] += shortest_word(a) is None
        shapes["no finals"] += not a.finals or not b.finals
        shapes["over 64"] += max(a.state_count, b.state_count) > 64
        for predicate, witness in _built_witnesses(a, b).items():
            report = predicate(a, b)
            assert (report.answer, report.witness) == (witness is None, witness)
            shapes["true" if report.answer else "false"] += 1
        r = a if i % 2 else b
        witness = shortest_word(product_intersection(r, Nfa.from_words(["", *r.alphabet], r.alphabet)))
        assert (two_var_solvable(r).answer, two_var_solvable(r).witness) == (witness is None, witness)
    assert min(shapes.values()) >= 5, shapes


def test_independence_rejects_an_alphabet_mismatch():
    # both check through the product with an automaton, `_meet_parts`
    with pytest.raises(InputError, match="^operand alphabets differ: 'ab' vs 'abc'$"):
        is_independent(SdiVariant.GENERAL, Nfa.universal(AB), Nfa.universal(ABC))
    with pytest.raises(InputError, match="^operand alphabets differ: 'ab' vs 'abc'$"):
        is_independent(SdiVariant.ALPHABETIC, Nfa.universal(AB), Nfa.universal(ABC))
    with pytest.raises(InputError, match="^operand alphabets differ: 'abc' vs 'ab'$"):
        product_intersection(Nfa.universal(ABC), Nfa.universal(AB))


def test_freeness_explores_only_what_it_reaches():
    # the built construction would pay for nothing here; the search
    # numbers the k + 2 host states and stops
    report = is_free(SdiVariant.GENERAL, blowup(16), Nfa.empty_language(AB))
    assert report.answer and report.resources["explored_states"] <= 18


def test_maxmin_counterexample_search_tests_membership_first(monkeypatch):
    # on L(a) = {a,b}* no output escapes, so the max/min decider never runs
    calls = []

    def counting(variant, w, a, b):
        calls.append(w)
        return decider(variant, w, a, b)

    decider = constructions._insertion_membership
    monkeypatch.setattr(constructions, "_insertion_membership", counting)
    monkeypatch.setattr(decide, "_insertion_membership", counting, raising=False)
    for variant in (SdiVariant.MAXIMAL, SdiVariant.MINIMAL):
        assert closure_counterexample_search(variant, Nfa.universal(AB), 8) is None
    assert calls == []
    host = Nfa.from_words({"ababab"}, ABC)
    assert closure_counterexample_search(SdiVariant.MAXIMAL, host, 12) is None
    assert calls  # words outside L(a) still go through the decider


@pytest.mark.parametrize("parts", ["_sdi_parts", "_asdi_parts"])
def test_independence_expands_each_key_once(monkeypatch, parts):
    # a grown key is paired with many states of b; its moves are computed
    # once per search, not once per pair
    calls = {}
    real = getattr(constructions, parts)  # read through `_insertion_parts`

    def counting(a, b, require_insertion=False):
        alphabet, start, expand, is_final = real(a, b, require_insertion)

        def counted(key):
            calls[key] = calls.get(key, 0) + 1
            return expand(key)

        return alphabet, start, counted, is_final

    monkeypatch.setattr(constructions, parts, counting)
    variant = SdiVariant.GENERAL if parts == "_sdi_parts" else SdiVariant.ALPHABETIC
    rng = random.Random(3)
    a = random_nfa(rng, 6, AB, density=0.3)
    b = random_nfa(rng, 6, AB, density=0.3)
    report = is_independent(variant, a, b)
    assert report.resources["explored_states"] > 2 * len(calls)
    assert set(calls.values()) == {1}
