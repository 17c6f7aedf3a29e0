import random
import re

import pytest

from sdikit import Dfa, InputError, Nfa, canonicalize
from sdikit.textio import (
    FormatError,
    parse_automaton,
    parse_dfa,
    parse_words,
    serialize_automaton,
    serialize_words,
)

from conftest import AB, count_builds, wide_random_nfa

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


_HEADER = "alphabet: a b\nstates: 100\ninitial: 0\nfinal: 0\n"
_MANY = frozenset((q, sym, (7 * q + k) % 100) for q in range(100) for sym in "ab" for k in (1, 2))
_MANY_LINES = "\n".join(f"{src} {sym} -> {dst}" for src, sym, dst in sorted(_MANY))


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
        c = canonicalize(a)
        assert isinstance(c, Dfa) == isinstance(a, Dfa)
        text = serialize_automaton(a)
        assert text == _sorted_triples_text(a)
        # the serializer and canonicalize share one renumbering
        assert _fields(parse_automaton(text)) == _fields(c)
        assert canonicalize(c) == c
    assert min(seen.values()) >= 20, seen


def _fields(a):
    return a.alphabet, a.state_count, a.initial, a.finals, a.transitions


def test_serializer_builds_no_automaton(monkeypatch):
    rng = random.Random(47)
    automata = [wide_random_nfa(rng) for _ in range(10)]
    automata.append(Dfa(AB, 2, 1, frozenset({0}), frozenset({(1, "a", 0), (0, "b", 0)})))
    built = count_builds(monkeypatch)
    for a in automata:
        serialize_automaton(a)
    assert built == []


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
        pytest.param(_HEADER + "-1 a -> 0", id="negative source"),
        pytest.param(_HEADER + "0 a -> -4", id="negative target"),
        pytest.param(_HEADER + "0 ab -> 1", id="multi-character symbol"),
        pytest.param(_HEADER + _MANY_LINES + "\n7 b -> 100", id="one bad triple among 400"),
    ],
)
def test_parse_errors(bad):
    with pytest.raises(FormatError):
        parse_automaton(bad)


# every check of Nfa(...) and Dfa(...) keeps its message, also when the
# parser raises it
@pytest.mark.parametrize(
    "trans, message",
    [
        ({(-1, "a", 0)}, "transition (-1, 'a', 0) out of range"),
        ({(0, "b", -4)}, "transition (0, 'b', -4) out of range"),
        ({(0, "ab", 1)}, "transition symbol 'ab' not in alphabet"),
        (_MANY | {(7, "b", 100)}, "transition (7, 'b', 100) out of range"),
        (_MANY | {(7, "c", 1)}, "transition symbol 'c' not in alphabet"),
    ],
    ids=["negative source", "negative target", "multi-character symbol", "bad id among 400", "bad symbol among 400"],
)
def test_construction_errors_keep_their_messages(trans, message):
    for cls in (Nfa, Dfa):
        with pytest.raises(InputError, match=re.escape(message)):
            cls(AB, 100, 0, frozenset(), frozenset(trans))
    text = _HEADER + "\n".join(f"{src} {sym} -> {dst}" for src, sym, dst in sorted(trans))
    with pytest.raises(FormatError, match=re.escape(message)):
        parse_automaton(text)


def test_nondeterministic_dfa_keeps_its_message():
    deterministic = frozenset((q, sym, (3 * q + "ab".index(sym)) % 100) for q in range(100) for sym in "ab")
    Dfa(AB, 100, 0, frozenset(), deterministic)
    with pytest.raises(InputError, match=re.escape("nondeterministic on (42, 'a')")):
        Dfa(AB, 100, 0, frozenset(), deterministic | {(42, "a", 99)})
    with pytest.raises(InputError, match=re.escape("nondeterministic on (0, 'a')")):
        Dfa(AB, 2, 0, frozenset({1}), frozenset({(0, "a", 0), (0, "a", 1)}))


def test_parse_dfa_flags_nondeterminism():
    nondet = "alphabet: a\nstates: 2\ninitial: 0\nfinal: 1\n0 a -> 0\n0 a -> 1"
    parse_automaton(nondet)
    with pytest.raises(FormatError):
        parse_dfa(nondet)


def test_word_lists():
    text = "# hosts\nab\n-\n\nba\n"
    assert parse_words(text) == ["ab", "", "ba"]
    assert serialize_words(["ba", "", "ab"]) == "-\nab\nba\n"
