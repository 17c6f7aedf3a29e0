"""Text formats: automaton files and word-list files.

Automaton format, one item per line, `#` starts a comment:

    alphabet: a b
    states: 3
    initial: 0
    final: 2
    0 a -> 0
    0 b -> 1
    1 a -> 2

Written automata are canonical (`serialize_automaton`): the reachable
states renumbered breadth-first from the initial state, which becomes
0, and the transitions by source, symbol and target, so equal inputs
give equal bytes.  The text is streamed row by row from the automaton's
transition store (`Nfa._delta`, the ascending targets of each state and
symbol) through the renumbering `automata.canonicalize` uses.

Word lists hold one word per line; the empty word is written `-`
(that character can never be an alphabet symbol).
"""

from __future__ import annotations

from .automata import Alphabet, Dfa, InputError, Nfa, Word, _canonical_rows, is_deterministic

EPSILON_TOKEN = "-"


class FormatError(InputError):
    """Unparseable automaton or word-list text."""


def _strip(line: str) -> str:
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    return line.strip()


def parse_automaton(text: str) -> Nfa:
    headers: dict[str, list[str]] = {}
    triples: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if ":" in line.split()[0]:
            key, _, rest = line.partition(":")
            key = key.strip()
            if key not in ("alphabet", "states", "initial", "final"):
                raise FormatError(f"line {lineno}: unknown header {key!r}")
            if key in headers:
                raise FormatError(f"line {lineno}: duplicate header {key!r}")
            headers[key] = rest.split()
        else:
            tokens = line.split()
            if len(tokens) != 4 or tokens[2] != "->":
                raise FormatError(f"line {lineno}: expected 'FROM SYMBOL -> TO': {raw!r}")
            triples.append((tokens[0], tokens[1], tokens[3]))

    for key in ("alphabet", "states", "initial", "final"):
        if key not in headers:
            raise FormatError(f"missing header {key!r}")
    try:
        alphabet = Alphabet(tuple(headers["alphabet"]))
    except InputError as exc:
        raise FormatError(str(exc)) from None
    try:
        state_count = int(headers["states"][0]) if headers["states"] else -1
        initial = int(headers["initial"][0]) if headers["initial"] else -1
        finals = frozenset(int(tok) for tok in headers["final"])
    except ValueError as exc:
        raise FormatError(f"non-numeric state id: {exc}") from None
    if len(headers["states"]) != 1 or len(headers["initial"]) != 1:
        raise FormatError("'states' and 'initial' each take exactly one value")

    transitions = set()
    for src_tok, sym, dst_tok in triples:
        try:
            src, dst = int(src_tok), int(dst_tok)
        except ValueError:
            raise FormatError(f"non-numeric state id in transition {src_tok} {sym} -> {dst_tok}") from None
        transitions.add((src, sym, dst))
    try:
        return Nfa(alphabet, state_count, initial, finals, frozenset(transitions))
    except InputError as exc:
        raise FormatError(str(exc)) from None


def parse_dfa(text: str) -> Dfa:
    a = parse_automaton(text)
    if not is_deterministic(a):
        raise FormatError("automaton is nondeterministic")
    return Dfa(a.alphabet, a.state_count, a.initial, a.finals, a.transitions)


def serialize_automaton(a: Nfa) -> str:
    """Canonical text: the states of `canonicalize(a)` (BFS order from
    the initial state), transitions by source, symbol (in alphabet order)
    and target.  Deterministic.  Each (source, symbol) row is written as
    the renumbering shared with `canonicalize` reads it off the per-state
    successor index, so no renumbered automaton is built and nothing is
    sorted but the targets of one row.  The text of each new id is made
    once, not once per transition that enters it."""
    count, finals, rows = _canonical_rows(a)
    ids = list(map(str, range(count)))
    lines = [
        "alphabet: " + " ".join(a.alphabet),
        f"states: {count}",
        "initial: 0",
        "final: " + " ".join([ids[q] for q in finals]),
    ]
    for (src, sym), targets in rows.items():
        prefix = f"{ids[src]} {sym} -> "
        lines.append(prefix + ("\n" + prefix).join([ids[d] for d in targets]))
    return "\n".join(lines).rstrip() + "\n"


def _read_text(path: str) -> str:
    """A UTF-8 file's text without a byte-order mark, for both loaders; other bytes are a FormatError."""
    with open(path, "rb") as fh:
        try:
            return fh.read().decode("utf-8").removeprefix("\ufeff")  # "utf-8-sig" shifts error offsets
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def load_automaton(path: str) -> Nfa:
    """The automaton in the file at `path`; a format error names the file."""
    text = _read_text(path)
    try:
        return parse_automaton(text)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def save_automaton(path: str, a: Nfa) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_automaton(a))


def format_word(word: Word) -> str:
    return word if word else EPSILON_TOKEN


def parse_word(token: str) -> Word:
    return "" if token == EPSILON_TOKEN else token


def parse_words(text: str) -> list[Word]:
    words = []
    for raw in text.splitlines():
        line = _strip(raw)
        if line:
            words.append(parse_word(line))
    return words


def load_words(path: str) -> list[Word]:
    return parse_words(_read_text(path))


def serialize_words(words: list[Word]) -> str:
    ordered = sorted(sorted(set(words)), key=len)  # length-lex: the length sort is stable
    return "".join(format_word(w) + "\n" for w in ordered)
