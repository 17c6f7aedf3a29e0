import random

import pytest

from sdikit import Dfa, Nfa, canonicalize, equivalent
from sdikit.complexity import random_nfa
from sdikit.textio import (
    FormatError,
    parse_automaton,
    parse_dfa,
    parse_words,
    serialize_automaton,
    serialize_words,
)

from conftest import AB, wide_random_nfa

SAMPLE = """\
# three-state sample
alphabet: a b
states: 3
initial: 0
final: 2
0 a -> 0
0 b -> 1
1 a -> 2
"""


def test_parse_sample():
    a = parse_automaton(SAMPLE)
    assert a.state_count == 3
    assert a.initial == 0
    assert a.finals == {2}
    assert a.accepts("ba") and a.accepts("aba")
    assert not a.accepts("ab")


def test_round_trip_is_identity_on_canonical_text():
    text = serialize_automaton(parse_automaton(SAMPLE))
    assert serialize_automaton(parse_automaton(text)) == text


def test_round_trip_preserves_language():
    rng = random.Random(31)
    for _ in range(20):
        a = random_nfa(rng, rng.randint(1, 4), AB)
        b = parse_automaton(serialize_automaton(a))
        assert equivalent(a, b)


def test_serialization_is_deterministic():
    rng = random.Random(37)
    a = random_nfa(rng, 4, AB)
    assert serialize_automaton(a) == serialize_automaton(a)
    # same language built with shuffled state ids serializes identically
    perm = {0: 2, 1: 0, 2: 3, 3: 1}
    b = Nfa(
        a.alphabet,
        a.state_count,
        perm[a.initial],
        frozenset(perm[q] for q in a.finals),
        frozenset((perm[s], sym, perm[t]) for s, sym, t in a.transitions),
    )
    assert serialize_automaton(a) == serialize_automaton(b)


def _sorted_triples_text(a):
    """The serializer spelled out: canonical numbering, then every
    transition sorted by (source, symbol index, target)."""
    c = canonicalize(a)
    index = {sym: i for i, sym in enumerate(c.alphabet)}
    lines = [
        "alphabet: " + " ".join(c.alphabet),
        f"states: {c.state_count}",
        f"initial: {c.initial}",
        "final: " + " ".join(str(q) for q in sorted(c.finals)),
    ]
    for src, sym, dst in sorted(c.transitions, key=lambda t: (t[0], index[t[1]], t[2])):
        lines.append(f"{src} {sym} -> {dst}")
    return "\n".join(lines).rstrip() + "\n"


def test_serializer_matches_sorted_triples():
    rng = random.Random(43)
    seen = dict.fromkeys(["initial != 0", "unreachable", "no finals", "dfa", "over 64"], 0)
    for i in range(200):
        a = wide_random_nfa(rng)
        if i % 3 == 0:  # keep one successor per state and symbol
            first = {}
            for src, sym, dst in sorted(a.transitions):
                first.setdefault((src, sym), dst)
            trans = frozenset((src, sym, dst) for (src, sym), dst in first.items())
            a = Dfa(a.alphabet, a.state_count, a.initial, a.finals, trans)
        seen["initial != 0"] += a.initial != 0
        seen["unreachable"] += canonicalize(a).state_count < a.state_count
        seen["no finals"] += not a.finals
        seen["dfa"] += isinstance(a, Dfa)
        seen["over 64"] += a.state_count > 64
        assert isinstance(canonicalize(a), Dfa) == isinstance(a, Dfa)
        assert serialize_automaton(a) == _sorted_triples_text(a)
    assert min(seen.values()) >= 20, seen


def test_empty_finals_round_trip():
    empty = Nfa.empty_language(AB)
    text = serialize_automaton(empty)
    assert "final:" in text
    assert parse_automaton(text).finals == frozenset()


@pytest.mark.parametrize(
    "bad",
    [
        "alphabet: a b\nstates: 1\ninitial: 0\n",  # missing final header
        "alphabet: a b\nstates: 1\ninitial: 0\nfinal: 0\n0 c -> 0",  # bad symbol
        "alphabet: a b\nstates: 1\ninitial: 0\nfinal: 0\n0 a 0",  # missing arrow
        "alphabet: a b\nstates: 1\ninitial: 3\nfinal: 0\n",  # initial out of range
        "alphabet: a b\nstates: 1\ninitial: 0\nfinal: 9\n",  # final out of range
        "alphabet: a b\nalphabet: a\nstates: 1\ninitial: 0\nfinal: 0\n",  # dup header
        "alphabet: a >\nstates: 1\ninitial: 0\nfinal: 0\n",  # reserved symbol
    ],
)
def test_parse_errors(bad):
    with pytest.raises(FormatError):
        parse_automaton(bad)


def test_parse_dfa_flags_nondeterminism():
    nondet = "alphabet: a\nstates: 2\ninitial: 0\nfinal: 1\n0 a -> 0\n0 a -> 1"
    parse_automaton(nondet)
    with pytest.raises(FormatError):
        parse_dfa(nondet)


def test_word_lists():
    text = "# hosts\nab\n-\n\nba\n"
    assert parse_words(text) == ["ab", "", "ba"]
    assert serialize_words(["ba", "", "ab"]) == "-\nab\nba\n"
