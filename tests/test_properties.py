"""Property-based cross-layer tests (hypothesis, derandomized `tier1`
profile from conftest.py)."""

from collections import defaultdict
from functools import cache
from itertools import islice

from hypothesis import example, given, strategies as st

from sdikit import (
    Dfa,
    EquationSpec,
    Nfa,
    SdiVariant,
    TrajectoryKind,
    TrajectoryLanguage,
    UnknownSide,
    asdi_nfa_direct,
    asdi_strings,
    bounded_language_op,
    candidate,
    canonicalize,
    closed_under_finite_maxmin,
    complement,
    delete_on_trajectory,
    deletion_nfa,
    determinize,
    enumerate_language,
    equivalence_witness,
    equivalent,
    finite_into_regular,
    is_free,
    is_independent,
    is_subset,
    length_lex_words,
    max_sdi_membership,
    max_sdi_single_nfa,
    membership,
    min_sdi_membership,
    min_sdi_single_nfa,
    named_trajectory,
    product_intersection,
    scan_language,
    scan_member,
    sdi_nfa_direct,
    sdi_strings,
    shuffle_nfa,
    shuffle_on_trajectory,
    solve,
    two_var_solvable,
    union_all,
    verify_solution,
)
from sdikit.automata import (
    _OnDemand,
    _canonical_rows,
    _coreachable,
    _explore,
    _folded,
    _meet_parts,
    _subset_parts,
)
from sdikit.constructions import _asdi_parts, _sdi_parts
from sdikit.equations import _TRAJECTORY_FOR_CASE
from sdikit.textio import parse_automaton, serialize_automaton
from sdikit.trajectories import DELETION_ALPHABET, _deletion_parts

from conftest import AB, all_words, plain_shuffle, small_nfas, solve_keeping_the_search_candidate, step_to_the_end

MAXIMAL, MINIMAL = SdiVariant.MAXIMAL, SdiVariant.MINIMAL
DECIDERS = ((MAXIMAL, max_sdi_membership), (MINIMAL, min_sdi_membership))
WORDS_5, WORDS_6 = all_words("ab", 5), all_words("ab", 6)

# variant -> direct construction, its trajectory set, its state bound in m, n
INSERTIONS = {
    SdiVariant.GENERAL: (sdi_nfa_direct, "T_sdi", lambda m, n: 3 * m * n + 2 * m),
    SdiVariant.ALPHABETIC: (asdi_nfa_direct, "T_asdi", lambda m, n: m * n + 2 * m),
}


def _up_to(max_len, words):
    return {w for w in words if len(w) <= max_len}


@given(small_nfas(), small_nfas())
def test_direct_construction_equals_the_trajectory_product_and_the_oracle(a, b):
    # the paper's central claim, on all three layers
    m, n = a.state_count, b.state_count
    hosts, inserted = set(enumerate_language(a, 6)), set(enumerate_language(b, 6))
    for variant, (build, name, bound) in INSERTIONS.items():
        direct, t = build(a, b), named_trajectory(name).language
        product = shuffle_nfa(a, b, t)
        assert direct.state_count <= bound(m, n)
        assert product.state_count <= m * n * t.automaton.state_count
        assert equivalent(direct, product)
        assert set(enumerate_language(direct, 6)) == scan_language(variant, WORDS_6, hosts, inserted)


def _stepped_whole(on_demand):
    """The automaton an `_OnDemand` has built once stepped to the end (reading `_delta` steps it)."""
    rows = on_demand._delta
    return Nfa._from_rows(on_demand.alphabet, on_demand.state_count, 0, on_demand.finals, rows)


def _masked_candidate(a):
    """The subset rule over `a`, masked to its co-reachable states and flipped, built whole."""
    return _explore(*_subset_parts(a, True, _coreachable(a)), Dfa)


@given(small_nfas(), small_nfas(), small_nfas(3))
def test_the_on_demand_and_built_constructions_agree(a, b, c):
    # every construction value whose moves carry symbols: both insertions,
    # with and without a nonempty middle, the subset rule plain, flipped
    # and masked, and a product with c.  Ids differ (the walk, not the
    # worklist, orders them), so compare sizes and languages, not bytes
    values = [parts(a, b, nonempty) for parts in (_sdi_parts, _asdi_parts) for nonempty in (False, True)]
    values += [_subset_parts(a, False), _subset_parts(a, True), _subset_parts(a, True, _coreachable(a))]
    values.append(_meet_parts(_sdi_parts(a, b), c))
    for value in values:
        built, whole = _explore(*value), _stepped_whole(_OnDemand(*value))
        assert whole.state_count == built.state_count
        assert len(whole.transitions) == len(built.transitions)
        assert equivalent(whole, built)
    # the deletion products carry epsilon moves: folded key by key, they
    # keep the language and never number a key reached only by epsilon
    # moves; the subset rule steps the folded product as it steps the built one,
    # and masked and flipped over either it gives the same candidate bytes
    for name in ("T1", "T1a", "T2", "T2a"):
        value = _deletion_parts(a, b, named_trajectory(name).language)
        built, whole = _explore(*value), _stepped_whole(_OnDemand(*_folded(value)))
        assert whole.state_count <= built.state_count
        assert equivalent(whole, built)
        for flip in (False, True):
            stepped = _stepped_whole(_OnDemand(*_subset_parts(_OnDemand(*_folded(value)), flip)))
            assert equivalent(stepped, _explore(*_subset_parts(built, flip)))
        folded = _masked_candidate(_OnDemand(*_folded(value)))
        assert serialize_automaton(folded) == serialize_automaton(_masked_candidate(built))


@given(small_nfas(), small_nfas(), st.data())
def test_max_min_deciders_equal_the_oracle_scan(a, b, data):
    # any word, or a general SDI output of short operand words
    hosts, inserted = enumerate_language(a, 4)[:5], enumerate_language(b, 4)[:5]
    outputs = sorted({w for x in hosts for y in inserted for w in sdi_strings(x, y) if len(w) <= 8})
    words = st.text("ab", max_size=8)
    w = data.draw(st.sampled_from(outputs) | words if outputs else words)
    hosts, inserted = set(enumerate_language(a, len(w))), set(enumerate_language(b, len(w)))
    general = sdi_nfa_direct(a, b)
    for variant, decider in DECIDERS:
        answer = decider(w, a, b)
        assert answer == scan_member(variant, w, hosts, inserted)
        assert not answer or membership(general, w)  # a max/min output is a general output


# longest first: st.text, and sampled_from in its first few choices,
# would make most of them two letters long, too short to have a border
_SHORT_WORDS = st.sampled_from(all_words("ab", 4, min_len=2)[::-1])


@given(small_nfas(2), _SHORT_WORDS, st.frozensets(_SHORT_WORDS, min_size=1, max_size=2), small_nfas(2))
def test_max_min_constructions_equal_the_oracle(a, y, hosts, b):
    # no operand word is longer than an output, so the comparisons up to
    # length 6 are exhaustive; y joins L(b) for its borders
    host_words, inserted = enumerate_language(a, 6), enumerate_language(b, 6) + [y]
    general, b_or_y = sdi_nfa_direct(a, Nfa.from_word(y, AB)), union_all([b, Nfa.from_word(y, AB)], AB)
    for variant, single in ((MAXIMAL, max_sdi_single_nfa), (MINIMAL, min_sdi_single_nfa)):
        built = single(a, y)
        assert set(enumerate_language(built, 6)) == _up_to(6, bounded_language_op(variant, host_words, {y}))
        assert is_subset(built, general)
        got = enumerate_language(single(Nfa.from_words(hosts, AB), y), 6)
        assert set(got) == bounded_language_op(variant, hosts, {y})
        got = enumerate_language(finite_into_regular(variant, hosts, b_or_y), 6)
        assert set(got) == _up_to(6, bounded_language_op(variant, hosts, inserted))


_SYNC_STAR, _KEEP_STAR = (
    TrajectoryLanguage(
        TrajectoryKind.DELETION, Nfa(DELETION_ALPHABET, 1, 0, frozenset({0}), frozenset({(0, label, 0)}))
    )
    for label in "si"
)


@given(small_nfas(), st.integers(0, 70))
def test_the_lazy_walk_is_the_length_lex_list(a, k):
    words = enumerate_language(a, 6)
    assert list(length_lex_words(a, 6)) == words
    keys = [(len(w), w) for w in words]
    assert all(p < q for p, q in zip(keys, keys[1:]))
    assert words == [w for w in WORDS_6 if membership(a, w)]  # WORDS_6 is in length-lex order
    assert list(islice(length_lex_words(a, 6), k)) == words[:k]


@given(small_nfas(), small_nfas(), st.data())
def test_algebra_and_text_preserve_the_language(a, b, data):
    d = determinize(a)
    assert equivalent(d, a) and equivalent(complement(complement(a)), a)
    words_a = set(enumerate_language(a, 6))
    assert set(enumerate_language(complement(a), 6)) == set(WORDS_6) - words_a
    assert set(enumerate_language(product_intersection(a, b), 6)) == words_a & set(enumerate_language(b, 6))
    assert [membership(a, w) for w in WORDS_6] == [w in words_a for w in WORDS_6]
    for other in (b, d):
        assert (is_subset(a, other) and is_subset(other, a)) == equivalent(a, other)
    assert equivalent(deletion_nfa(a, b, _SYNC_STAR), product_intersection(a, b))
    assert equivalent(deletion_nfa(a, Nfa.from_word("", AB), _KEEP_STAR), a)
    text = serialize_automaton(a)
    assert equivalent(parse_automaton(text), a) and serialize_automaton(parse_automaton(text)) == text
    # renumbering leaves a DFA's text unchanged; an NFA's text also depends
    # on the id order of its nondeterministic targets
    perm = data.draw(st.permutations(range(d.state_count)))
    renumbered = Dfa(
        AB, d.state_count, perm[d.initial], frozenset(perm[q] for q in d.finals),
        frozenset((perm[src], sym, perm[dst]) for src, sym, dst in d.transitions),
    )
    assert canonicalize(canonicalize(a)) == canonicalize(a)
    assert serialize_automaton(renumbered) == serialize_automaton(d)


def _naive_text(a):
    """Canonical text with one `str` call per id written."""
    count, finals, rows = _canonical_rows(a)
    lines = [
        "alphabet: " + " ".join(a.alphabet),
        f"states: {count}",
        "initial: 0",
        "final: " + " ".join(map(str, finals)),
    ]
    for (src, sym), targets in rows.items():
        prefix = f"{src} {sym} -> "
        lines.append(prefix + ("\n" + prefix).join(map(str, targets)))
    return "\n".join(lines).rstrip() + "\n"


@given(small_nfas(), small_nfas(), st.text("ab", min_size=10, max_size=16))
def test_the_serializer_writes_what_a_naive_formatter_writes(a, b, word):
    long = union_all([a, Nfa.from_word(word, AB)], AB)
    assert _canonical_rows(long)[0] > 10  # two-digit ids
    cases = [
        a,
        long,
        sdi_nfa_direct(a, b),
        Nfa(AB, long.state_count, long.initial, frozenset(), long.transitions),  # no finals
        Nfa(AB, a.state_count, a.initial, a.finals, frozenset()),  # no transitions
        Nfa(AB, a.state_count, a.initial, frozenset(), frozenset()),  # "final:" is the last line
    ]
    for c in cases:
        assert serialize_automaton(c) == _naive_text(c)


def _nonempty(variant, hosts, inserted):
    return any(bounded_language_op(variant, {x}, {y}) for x in hosts for y in inserted)


@given(small_nfas(2), small_nfas(2), st.frozensets(_SHORT_WORDS, min_size=1, max_size=2))
@example(Nfa.from_word("aa", AB), Nfa.from_word("aba", AB), frozenset({"ab"}))  # aba into aa only; shortest word 2
def test_verdicts_carry_certificates(a, b, words):
    hosts, inserted = enumerate_language(a, 5), enumerate_language(b, 5)
    produced = {variant: _nonempty(variant, hosts, inserted) for variant in SdiVariant}
    # a site admits a maximal or minimal insertion iff it admits any
    assert produced[SdiVariant.GENERAL] == produced[MAXIMAL] == produced[MINIMAL]
    for variant in SdiVariant:
        report = is_free(variant, a, b)
        assert report.predicate == f"{variant.value}-free"
        if report.answer:
            assert not produced[variant]
        else:  # a max/min witness is a general output
            w, base = report.witness, variant if variant is SdiVariant.ALPHABETIC else SdiVariant.GENERAL
            assert scan_member(base, w, set(enumerate_language(a, len(w))), set(enumerate_language(b, len(w))))
    for variant, decider in DECIDERS:
        report = closed_under_finite_maxmin(variant, a, words)
        if any(not membership(a, w) for w in _up_to(5, bounded_language_op(variant, hosts, words))):
            assert not report.answer
        if not report.answer:
            assert decider(report.witness, a, Nfa.from_words(words, AB))
            assert not membership(a, report.witness)
    assert two_var_solvable(a).answer == (not enumerate_language(a, 1))


# variant -> the string operation its independence check grows hosts by
_GROWTH = {variant: sdi_strings for variant in SdiVariant} | {SdiVariant.ALPHABETIC: asdi_strings}


def _grows_into(op, hosts, w):
    """Is w an output of `op` with a nonempty middle, of a host in `hosts` and a factor of w?"""
    factors = {w[i:j] for i in range(len(w)) for j in range(i + 1, len(w) + 1)}
    return any(w in op(x, y, require_insertion=True) for x in hosts for y in factors)


@cache
def _grown_up_to_5(op, x):
    """Every output of `op` with a nonempty middle, of host x and a nonempty word, up to length 5."""
    return {w for y in WORDS_5[1:] for w in op(x, y, require_insertion=True) if len(w) <= 5}


@given(small_nfas(2), small_nfas(2))
def test_independence_verdicts_carry_certificates(a, b):
    hosts = enumerate_language(a, 4)  # a host is shorter than what it grows into
    for variant, op in _GROWTH.items():
        report = is_independent(variant, a, b)
        assert report.predicate == f"{variant.value}-independent"
        if report.answer:
            grown = set().union(*(_grown_up_to_5(op, x) for x in hosts))
            assert grown.isdisjoint(enumerate_language(b, 5))
        else:
            w = report.witness
            assert membership(b, w) and _grows_into(op, enumerate_language(a, len(w) - 1), w)


@given(small_nfas(2), small_nfas(2))
def test_an_equation_built_from_a_solution_is_solvable(s0, known):
    s0, known = determinize(s0), determinize(known)
    for variant, (build, _, _) in INSERTIONS.items():
        for side in UnknownSide:
            result = build(s0, known) if side is UnknownSide.LEFT else build(known, s0)
            spec = EquationSpec(side, variant, known, result)
            solution = solve(spec)
            assert solution.solvable and is_subset(s0, solution.candidate)
            assert serialize_automaton(solution.candidate) == serialize_automaton(candidate(spec))


@given(small_nfas(3), small_nfas(3))
@example(Nfa.empty_language(AB), Nfa.empty_language(AB))  # the deletion product's initial state is dead
def test_solve_decides_on_an_on_demand_candidate(known, result):
    for variant, (build, _, _) in INSERTIONS.items():
        for side in UnknownSide:
            spec = EquationSpec(side, variant, known, result)
            solution, searched = solve_keeping_the_search_candidate(spec)
            cand = candidate(spec)
            assert solution.solvable == verify_solution(cand, spec)
            lhs = build(cand, known) if side is UnknownSide.LEFT else build(known, cand)
            assert solution.witness == equivalence_witness(lhs, result)
            assert serialize_automaton(solution.candidate) == serialize_automaton(cand)
            # the search steps the unmasked subsets of the folded product:
            # the candidate's language, and subsets differing only in dead states apart
            stepped = _stepped_whole(searched)
            assert stepped.state_count >= cand.state_count and equivalent(stepped, cand)
            # the masked subset rule gives the bytes of the complement of the trimmed deletion
            traj = named_trajectory(_TRAJECTORY_FOR_CASE[side, variant]).language
            trimmed = deletion_nfa(complement(result), known, traj)
            assert serialize_automaton(cand) == serialize_automaton(complement(trimmed))


@st.composite
def _fitting_shuffles(draw):
    """A shuffle trajectory t, and x and y as long as the symbols t takes from each."""
    t = draw(st.text("01s", max_size=8))
    x = draw(st.text("ab", min_size=len(t) - t.count("1"), max_size=len(t) - t.count("1")))
    y = draw(st.text("ab", min_size=len(t) - t.count("0"), max_size=len(t) - t.count("0")))
    return x, y, t


@given(
    st.frozensets(st.text("ab", max_size=5), max_size=6),
    st.frozensets(st.text("ab", max_size=5), max_size=6),
    _fitting_shuffles(),
)
# aaa from aaa into aaa only with the bordered right outfix aa: not minimal
@example(frozenset({"aaa"}), frozenset({"aaa"}), ("", "", ""))
def test_the_oracle_is_self_consistent(hosts, inserted, shuffle):
    x, y, t = shuffle
    out = shuffle_on_trajectory(x, y, t)
    assert out is None or len(out) == len(x) + len(y) - t.count("s") == len(t)
    assert shuffle_on_trajectory(x + "a", y, t) is None
    assert shuffle_on_trajectory(x, y + "a", t) is None
    hosts, sigma_plus = set(hosts), set(WORDS_5[1:])
    for variant in SdiVariant:
        scanned = scan_language(variant, WORDS_5, hosts, set(inserted))
        assert scanned == _up_to(5, bounded_language_op(variant, hosts, inserted))
        assert scan_language(variant, WORDS_5, hosts, None) == scan_language(variant, WORDS_5, hosts, sigma_plus)


def _trajectory_words(t, max_len, key):
    """The words of trajectory language t up to `max_len`, grouped by `key`."""
    words = defaultdict(list)
    for word in enumerate_language(t.automaton, max_len):
        words[key(word)].append(word)
    return words


# deletion trajectories by (length, number of deleted-word symbols they consume)
_DELETION_WORDS = {
    name: _trajectory_words(named_trajectory(name).language, 6, lambda t: (len(t), len(t) - t.count("i")))
    for name in ("T1", "T1a", "T2", "T2a")
}


@given(small_nfas(), st.frozensets(st.text("ab", max_size=3), max_size=4), st.sampled_from(sorted(_DELETION_WORDS)))
def test_deletion_equals_the_trajectory_oracle(a, deleted, name):
    # L(b) is finite, so an output of length <= 3 comes from a host of
    # length <= 3 + 3: the bounded comparison is exhaustive
    got = enumerate_language(deletion_nfa(a, Nfa.from_words(deleted, AB), named_trajectory(name).language), 3)
    trajectories = _DELETION_WORDS[name]
    expected = {
        out
        for x in enumerate_language(a, 6)
        for y in deleted
        for t in trajectories[len(x), len(y)]
        if (out := delete_on_trajectory(x, y, t)) is not None and len(out) <= 3
    }
    assert set(got) == expected


_SHUFFLES = {name: named_trajectory(name).language for name in ("T_sdi", "T_asdi")} | {"{0,1}*": plain_shuffle()}
# shuffle trajectories by the lengths of the two words they interleave
_SHUFFLE_WORDS = {
    name: _trajectory_words(t, 4, lambda t: (len(t) - t.count("1"), len(t) - t.count("0")))
    for name, t in _SHUFFLES.items()
}


@given(small_nfas(), small_nfas(), st.sampled_from(sorted(_SHUFFLES)))
def test_shuffle_equals_the_trajectory_oracle(a, b, name):
    # an output is as long as its trajectory and no shorter than either
    # operand word, so the bounded comparison up to length 4 is exhaustive
    got = enumerate_language(shuffle_nfa(a, b, _SHUFFLES[name]), 4)
    trajectories = _SHUFFLE_WORDS[name]
    expected = {
        out
        for x in enumerate_language(a, 4)
        for y in enumerate_language(b, 4)
        for t in trajectories[len(x), len(y)]
        if (out := shuffle_on_trajectory(x, y, t)) is not None
    }
    assert set(got) == expected
