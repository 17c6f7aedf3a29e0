import random
from functools import partial

import pytest

from sdikit import automata
from sdikit import (
    Alphabet,
    InputError,
    Nfa,
    ResourceLimitError,
    SdiVariant,
    asdi_nfa_direct,
    bounded_language_op,
    closed_under_finite_maxmin,
    complement,
    enumerate_language,
    equivalent,
    finite_into_regular,
    insertion_nfa,
    is_subset,
    max_sdi_membership,
    max_sdi_single_nfa,
    membership,
    min_sdi_membership,
    min_sdi_single_nfa,
    product_intersection,
    regular_max_sdi_finite,
    scan_member,
    sdi_nfa_direct,
    sdi_strings,
    unbordered,
    union_all,
)
from sdikit.complexity import random_nfa
from sdikit.constructions import _maximal_site_in_word

from conftest import AB, ABC, ba_blocks, wide_random_nfa

GOLDEN_MAX = ["abacbab", "acbabab", "ababacbab"]


def rand_word(rng, lo, hi, sigma="ab"):
    return "".join(rng.choice(sigma) for _ in range(rng.randint(lo, hi)))


def test_sdi_direct_examples():
    a = Nfa.from_word("ab", AB)
    assert enumerate_language(sdi_nfa_direct(a, a), 4) == ["ab"]
    short = Nfa.from_word("a", AB)
    assert enumerate_language(sdi_nfa_direct(short, a), 6) == []


def test_asdi_direct_examples():
    a = Nfa.from_word("ab", ABC)
    b = Nfa.from_word("acb", ABC)
    assert enumerate_language(asdi_nfa_direct(a, b), 5) == ["acb"]
    # explicit state budget for 3- and 4-state operands
    rng = random.Random(107)
    left = random_nfa(rng, 3, AB)
    right = random_nfa(rng, 4, AB)
    assert asdi_nfa_direct(left, right).state_count <= 3 * 4 + 2 * 3


def test_alphabet_mismatch_raises():
    with pytest.raises(InputError):
        sdi_nfa_direct(Nfa.universal(AB), Nfa.universal(ABC))
    with pytest.raises(InputError):
        asdi_nfa_direct(Nfa.universal(AB), Nfa.universal(ABC))


def test_variants_without_a_construction_raise():
    with pytest.raises(InputError):
        insertion_nfa(SdiVariant.MAXIMAL, Nfa.universal(AB), Nfa.universal(AB))
    with pytest.raises(InputError):
        finite_into_regular(SdiVariant.GENERAL, {"ab"}, Nfa.universal(AB))


def test_require_insertion_drops_identity_results():
    a = Nfa.from_word("ab", AB)
    strict = sdi_nfa_direct(a, Nfa.sigma_plus(AB), require_insertion=True)
    loose = sdi_nfa_direct(a, Nfa.sigma_plus(AB))
    assert not membership(strict, "ab")
    assert membership(loose, "ab")
    assert membership(strict, "aab")
    assert is_subset(strict, loose)
    strict_a = asdi_nfa_direct(a, Nfa.sigma_plus(AB), require_insertion=True)
    assert not membership(strict_a, "ab")
    assert membership(strict_a, "aab")


def test_max_single_golden():
    host = Nfa.from_word("ababab", ABC)
    built = max_sdi_single_nfa(host, "acbab")
    assert enumerate_language(built, 12) == GOLDEN_MAX
    assert not membership(built, "abacbabab")


def test_max_single_unary():
    unary = Alphabet.from_string("a")
    host = Nfa.from_word("aaaa", unary)
    assert enumerate_language(max_sdi_single_nfa(host, "aaa"), 8) == ["aaaa"]
    host2 = Nfa.from_word("aa", unary)
    assert enumerate_language(max_sdi_single_nfa(host2, "aaa"), 8) == ["aaa"]


def test_min_single_examples():
    unary = Alphabet.from_string("a")
    host = Nfa.from_word("aa", unary)
    assert enumerate_language(min_sdi_single_nfa(host, "aa"), 6) == ["aa"]
    host2 = Nfa.from_word("ab", ABC)
    assert enumerate_language(min_sdi_single_nfa(host2, "acb"), 6) == ["acb"]


def test_single_word_rejects_short_inserts():
    with pytest.raises(InputError):
        max_sdi_single_nfa(Nfa.universal(AB), "a")
    with pytest.raises(InputError):
        min_sdi_single_nfa(Nfa.universal(AB), "")


@pytest.mark.parametrize("variant,single", [
    (SdiVariant.MAXIMAL, max_sdi_single_nfa),
    (SdiVariant.MINIMAL, min_sdi_single_nfa),
])
def test_single_word_matches_oracle(variant, single):
    rng = random.Random(109 if variant is SdiVariant.MAXIMAL else 113)
    for _ in range(30):
        a = random_nfa(rng, 3, AB)
        y = rand_word(rng, 2, 4)
        got = set(enumerate_language(single(a, y), 9))
        hosts = set(enumerate_language(a, 9))
        expected = {w for w in bounded_language_op(variant, hosts, {y}) if len(w) <= 9}
        assert got == expected, (y,)


def test_max_single_refines_general():
    rng = random.Random(127)
    for _ in range(10):
        a = random_nfa(rng, 3, AB)
        y = rand_word(rng, 2, 4)
        refined = max_sdi_single_nfa(a, y)
        general = sdi_nfa_direct(a, Nfa.from_word(y, AB))
        assert is_subset(refined, general)


def test_regular_max_sdi_finite_unions_and_skips():
    host = Nfa.from_word("ababab", ABC)
    built = regular_max_sdi_finite(host, {"acbab", "a"}, SdiVariant.MAXIMAL)
    assert enumerate_language(built, 12) == GOLDEN_MAX  # the length-1 word is skipped
    empty = regular_max_sdi_finite(host, set(), SdiVariant.MAXIMAL)
    assert enumerate_language(empty, 12) == []


def test_finite_into_regular_examples():
    target = Nfa.from_words({"acb"}, ABC)
    got = enumerate_language(finite_into_regular(SdiVariant.MAXIMAL, {"ab"}, target), 6)
    assert got == ["acb"]
    assert enumerate_language(finite_into_regular(SdiVariant.MAXIMAL, set(), target), 6) == []
    # the one site that inserts a letter, a·a·a·b (x1·u·z·v), is closed by
    # x1' = a at the left window's last offset m = p = 1; b·a·a·a mirrors it
    for word in ("aab", "baa"):
        got = enumerate_language(finite_into_regular(SdiVariant.MAXIMAL, {word}, Nfa.from_word(word, AB)), 6)
        assert got == [word]


def _infix_nfa(prefix, suffix, alphabet):
    """Automaton for prefix·Σ*·suffix."""
    np, ns = len(prefix), len(suffix)
    trans = {(idx, sym, idx + 1) for idx, sym in enumerate(prefix)}
    trans |= {(np, sym, np) for sym in alphabet}
    trans |= {(np + idx, sym, np + idx + 1) for idx, sym in enumerate(suffix)}
    return Nfa(alphabet, np + ns + 1, 0, frozenset({np + ns}), frozenset(trans))


def _concat_fixed(prefix, core, suffix):
    """Automaton for prefix·L(core)·suffix with fixed words on both sides."""
    npre, nsuf, off_suf = len(prefix), len(suffix), len(prefix) + core.state_count
    trans = {(idx, sym, idx + 1) for idx, sym in enumerate(prefix[:-1])}
    if npre:
        trans.add((npre - 1, prefix[-1], npre + core.initial))
    trans |= {(src + npre, sym, dst + npre) for src, sym, dst in core.transitions}
    if nsuf:
        trans |= {(fin + npre, suffix[0], off_suf) for fin in core.finals}
        trans |= {(off_suf + idx - 1, suffix[idx], off_suf + idx) for idx in range(1, nsuf)}
        finals = frozenset({off_suf + nsuf - 1})
    else:
        finals = frozenset(fin + npre for fin in core.finals)
    initial = 0 if npre else npre + core.initial
    return Nfa(core.alphabet, off_suf + nsuf, initial, finals, frozenset(trans))


def _per_site_finite_into_regular(variant, words, a):
    """The construction `finite_into_regular` had before its one walk: per
    host x = x1·u·v·x2, L(a) ∩ u·Σ*·v, for maximal minus the complement of
    every extended outfix x1'·u·Σ*·v·x2', between x1 and x2."""
    alphabet, parts = a.alphabet, []
    for x in sorted(set(words)):
        for p in range(len(x)):
            for i in range(1, len(x) - p + 1):
                for m in range(1, len(x) - p - i + 1):
                    x1, u, v, x2 = x[:p], x[p : p + i], x[p + i : p + i + m], x[p + i + m :]
                    if variant is SdiVariant.MINIMAL and not (unbordered(u) and unbordered(v)):
                        continue
                    allowed = product_intersection(a, _infix_nfa(u, v, alphabet))
                    extended = [
                        _infix_nfa(x1[len(x1) - lp :] + u, v + x2[:lq], alphabet)
                        for lp in range(len(x1) + 1)
                        for lq in range(len(x2) + 1)
                        if (lp or lq) and variant is SdiVariant.MAXIMAL
                    ]
                    if extended:
                        allowed = product_intersection(allowed, complement(union_all(extended, alphabet)))
                    parts.append(_concat_fixed(x1, allowed, x2))
    return union_all(parts, alphabet)


def test_finite_into_regular_matches_the_per_site_construction():
    rng = random.Random(163)
    seen = {"no hosts": 0, "duplicates": 0, "abc": 0, "no finals": 0, "unreachable": 0, True: 0, False: 0}
    for _ in range(150):
        alphabet = ABC if rng.random() < 0.3 else AB
        sigma = "".join(alphabet)
        n = rng.randint(1, 4)
        a = random_nfa(rng, n, alphabet)
        if rng.random() < 0.15:
            a = Nfa(alphabet, n, 0, frozenset(), a.transitions)
        elif rng.random() < 0.25:  # state n is unreachable but can move into the rest
            moves = {(n, sym, rng.randrange(n)) for sym in alphabet}
            a = Nfa(alphabet, n + 1, 0, a.finals | {n}, a.transitions | moves)
        hosts = [rand_word(rng, 0, 6, sigma) for _ in range(rng.randint(0, 3))]
        hosts += rng.sample(hosts, min(len(hosts), rng.randint(0, 1)))
        seen["no hosts"] += not hosts
        seen["duplicates"] += len(set(hosts)) < len(hosts)
        seen["abc"] += alphabet == ABC
        seen["no finals"] += not a.finals
        seen["unreachable"] += a.state_count > n
        for variant in (SdiVariant.MAXIMAL, SdiVariant.MINIMAL):
            built = finite_into_regular(variant, hosts, a)
            assert equivalent(built, _per_site_finite_into_regular(variant, hosts, a)), (variant, hosts, a)
            seen[bool(built.finals)] += 1
    assert min(seen.values()) > 0, seen


def test_finite_into_regular_cap_boundary(monkeypatch):
    # the golden case: the walk numbers 97 keys, which `trim` cuts to 61 states
    hosts, a = ["abab", "aab"], random_nfa(random.Random(30), 4, AB, density=0.3)
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 97)
    assert finite_into_regular(SdiVariant.MAXIMAL, hosts, a).state_count == 61
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 96)
    with pytest.raises(ResourceLimitError) as raised:
        finite_into_regular(SdiVariant.MAXIMAL, hosts, a)
    assert str(raised.value) == "exploration exceeded 96 states"


UNION_WORDS = ["ab", "ba", "aab", "abb", "bab", "aba"]


@pytest.mark.parametrize("variant", [SdiVariant.MAXIMAL, SdiVariant.MINIMAL])
def test_the_per_word_union_counts_against_the_budget(monkeypatch, variant):
    # each per-word automaton fits in 60 states; their union has 200 (maximal) or 129 (minimal)
    a = random_nfa(random.Random(5), 4, AB, 0.5)
    single = max_sdi_single_nfa if variant is SdiVariant.MAXIMAL else min_sdi_single_nfa
    parts = [single(a, y) for y in UNION_WORDS]
    union_states = 1 + sum(part.state_count for part in parts)
    assert max(part.state_count for part in parts) <= 60 < union_states
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", union_states)
    assert union_all(parts, AB).state_count == union_states
    regular_max_sdi_finite(a, UNION_WORDS, variant)
    for cap in (union_states - 1, 60):
        monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", cap)
        for call in (partial(union_all, parts, AB), partial(regular_max_sdi_finite, a, UNION_WORDS, variant),
                     partial(closed_under_finite_maxmin, variant, a, UNION_WORDS)):
            with pytest.raises(ResourceLimitError) as raised:
                call()
            assert (str(raised.value), raised.value.details) == (f"union exceeded {cap} states", {"cap": cap})


@pytest.mark.parametrize("variant", [SdiVariant.MAXIMAL, SdiVariant.MINIMAL])
def test_finite_into_regular_matches_oracle(variant):
    rng = random.Random(131)
    for _ in range(15):
        b = random_nfa(rng, 2, AB)
        hosts = {rand_word(rng, 2, 4), rand_word(rng, 2, 4)}
        built = finite_into_regular(variant, hosts, b)
        got = set(enumerate_language(built, 8))
        inserted = set(enumerate_language(b, 8))
        expected = {w for w in bounded_language_op(variant, hosts, inserted) if len(w) <= 8}
        assert got == expected, (hosts,)


def test_membership_deciders_on_golden():
    host = Nfa.from_word("ababab", ABC)
    ins = Nfa.from_word("acbab", ABC)
    assert max_sdi_membership("abacbab", host, ins)
    assert not max_sdi_membership("abacbabab", host, ins)
    assert membership(sdi_nfa_direct(host, ins), "abacbabab")
    # the only sites are closed at the last offset of the left window
    # (x1' = a before u = a) or, mirrored, of the right one (x2' = a after v = a)
    for w, word in (("aaab", "aab"), ("baaa", "baa")):
        inserted = Nfa.from_word(word, AB)
        assert not max_sdi_membership(w, inserted, inserted)
        assert not scan_member(SdiVariant.MAXIMAL, w, {word}, {word})


def test_membership_deciders_min_examples():
    unary = Alphabet.from_string("a")
    host = Nfa.from_word("aa", unary)
    assert min_sdi_membership("aa", host, host)
    host2 = Nfa.from_word("ab", ABC)
    ins2 = Nfa.from_word("acb", ABC)
    assert min_sdi_membership("acb", host2, ins2)
    # the only sites have a bordered v (baab), or, reversed, a bordered u
    for w, hosts, inserted in (
        ("babaaabba", {"babbba", "baabb"}, {"bbaabb", "baaabb"}),
        ("abbaaabab", {"abbbab", "bbaab"}, {"bbaabb", "bbaaab"}),
    ):
        host, ins = Nfa.from_words(hosts, AB), Nfa.from_words(inserted, AB)
        assert max_sdi_membership(w, host, ins) and not min_sdi_membership(w, host, ins)


def test_membership_deciders_against_oracle():
    rng = random.Random(137)
    for _ in range(200):
        a = random_nfa(rng, rng.randint(1, 3), AB)
        b = random_nfa(rng, rng.randint(1, 3), AB)
        w = rand_word(rng, 0, 8)
        hosts = set(enumerate_language(a, len(w)))
        inserted = set(enumerate_language(b, len(w)))
        assert max_sdi_membership(w, a, b) == scan_member(SdiVariant.MAXIMAL, w, hosts, inserted)
        assert min_sdi_membership(w, a, b) == scan_member(SdiVariant.MINIMAL, w, hosts, inserted)


DECIDERS = ((SdiVariant.MAXIMAL, max_sdi_membership), (SdiVariant.MINIMAL, min_sdi_membership))


def _same_alphabet_pair(rng):
    a, b = wide_random_nfa(rng), wide_random_nfa(rng)
    while b.alphabet != a.alphabet:
        b = wide_random_nfa(rng)
    return a, b


def test_membership_deciders_on_awkward_operands():
    # initial state != 0, no final state, more than 64 states (bitsets
    # past one machine word), dead and unreachable states; words of
    # length 0-9, half of them general SDI outputs of sampled operand words
    rng = random.Random(149)
    seen = {"initial": 0, "no finals": 0, "wide": 0, True: 0, False: 0}
    for _ in range(60):
        a, b = _same_alphabet_pair(rng)
        seen["initial"] += a.initial != 0
        seen["no finals"] += not a.finals or not b.finals
        seen["wide"] += max(a.state_count, b.state_count) > 64
        hosts, inserted = set(enumerate_language(a, 9)), set(enumerate_language(b, 9))
        sigma = "".join(a.alphabet)
        words = [rand_word(rng, 0, 9, sigma) for _ in range(3)]
        for x in rng.sample(sorted(hosts), min(3, len(hosts))):
            for y in rng.sample(sorted(inserted), min(2, len(inserted))):
                outputs = sorted(w for w in sdi_strings(x, y) if len(w) <= 9)
                words += rng.sample(outputs, min(3, len(outputs)))
        for w in words:
            for variant, decider in DECIDERS:
                expected = scan_member(variant, w, hosts, inserted)
                assert decider(w, a, b) == expected, (variant, w, a, b)
                seen[expected] += 1
    assert min(seen.values()) > 0, seen


def test_membership_deciders_edge_words():
    hosts = {"a", "b", "ab", "aab"}
    a = Nfa.from_words(hosts, AB)
    for b in (Nfa.universal(AB), Nfa.sigma_plus(AB), a):
        inserted = set(enumerate_language(b, 1))
        for w in ("", "a", "b"):
            for variant, decider in DECIDERS:
                assert decider(w, a, b) is scan_member(variant, w, hosts, inserted) is False
        assert max_sdi_membership("aabb", a, Nfa.universal(AB))  # not False for every word


def test_membership_deciders_reject_bad_input_like_membership():
    a, b = Nfa.from_word("ab", AB), Nfa.universal(AB)
    with pytest.raises(InputError) as plain:
        membership(a, "abc")
    for _, decider in DECIDERS:
        with pytest.raises(InputError) as raised:
            decider("abc", a, b)
        assert str(raised.value) == str(plain.value)
        # operand alphabets are checked before the word
        for w in ("ab", "abx"):
            with pytest.raises(InputError, match="operand alphabets differ"):
                decider(w, a, Nfa.universal(ABC))


def _per_site_membership(variant, w, a, b):
    """The scan the polynomial deciders used before their prefix/suffix
    bitsets: one membership run per host split (bb, cc) and per inserted
    factor w[aa:dd].  A reference for words too long for the oracle."""
    n = len(w)
    for bb in range(1, n):
        for cc in range(bb, n):
            if not membership(a, w[:bb] + w[cc:]):
                continue
            for aa in range(bb):
                for dd in range(cc + 1, n + 1):
                    if variant is SdiVariant.MAXIMAL:
                        site = _maximal_site_in_word(w, aa, bb, cc, dd)
                    else:
                        site = unbordered(w[aa:bb]) and unbordered(w[cc:dd])
                    if site and membership(b, w[aa:dd]):
                        return True
    return False


def test_membership_deciders_on_long_block_words():
    # hosts (b a+)^2 t and the inserted (b a+)^2 %$, probed with words of
    # three a-blocks, with the inserted tail and with an extra `$` no
    # insertion can produce, up to 40 symbols
    rng = random.Random(151)
    ins = ba_blocks(2, "%$")
    seen = {True: 0, False: 0}
    for tail in ("$", "%$", "$%", "%"):
        host = ba_blocks(2, tail)
        for i in range(4):
            lengths = rng.sample(range(1, 13), 3)
            for end in ("%$", "%$$", "$%$", tail + "%$"):
                w = "".join("b" + "a" * k for k in lengths) + end
                assert len(w) <= 40
                for variant, decider in DECIDERS:
                    expected = _per_site_membership(variant, w, host, ins)
                    assert decider(w, host, ins) == expected, (variant, w, tail)
                    seen[expected] += 1
    assert min(seen.values()) > 0, seen


def test_max_membership_implies_general_membership():
    rng = random.Random(139)
    for _ in range(50):
        a = random_nfa(rng, 2, AB)
        b = random_nfa(rng, 2, AB)
        w = rand_word(rng, 0, 6)
        if max_sdi_membership(w, a, b):
            assert membership(sdi_nfa_direct(a, b), w)
