"""Nondeterministic finite automata and the standard language algebra.

States are dense integer ids 0..state_count-1 with a single initial
state and no epsilon transitions.  All values are immutable after
construction; every operation is a pure function of its inputs.  Every
reachable-state construction is one value, (alphabet, start, expand,
is_final), which `_explore(*value)` builds from a LIFO worklist, its
epsilon moves folded away after numbering (`_eliminate_epsilon`), and
`_OnDemand(*value)` builds as far as a subset walk steps it; a value
with epsilon moves is stepped as `_OnDemand(*_folded(value))`, which
folds each key's epsilon closure when the key is numbered.  One rule,
`_OnDemand._number`, numbers both: the start is 0, and each key takes
the next id (and its finality) when first reached.  It and the inclusion
and equivalence search read the one state budget, `DEFAULT_STATE_CAP`,
when they run, `union_all` before it builds, and `Nfa._check` for every
new automaton; no function takes a budget of its own.  Transitions are
stored once, as the successor rows `Nfa._delta` {(state, symbol):
ascending targets}: constructions hand theirs to `Nfa(...)`, which
groups any other automaton's triples into rows, and every automaton is
checked once, over its rows.  No other module reads `_delta`, builds from
rows or compares operand alphabets (`_require_same_alphabet`).  Per-state
walks read the rows; subset walks (membership, subset construction,
enumeration, the shortest word, the inclusion/equivalence search) step
int bitsets over `Nfa._masks`.  `determinize`, `complement` and the
equation candidate run one subset rule, `_subset_parts`, which steps a
subset by the automaton's `_step` and reads its `_final_bits` afresh, so
it runs over a built `Nfa` or an `_OnDemand` alike: `complement` takes
any NFA, keeps only the reachable subsets, the empty one as the sink of
the total DFA, and counts the sink against the state budget; the
equation solver runs it over one folded deletion product on demand,
unmasked for its search and, for its candidate, masked to the
co-reachable states of that product stepped to the end.  `shortest_word`
is the one emptiness search and steps each state once.  Freeness,
independence, solution verification and the SDI closure check step the
SDI construction (and its product with an automaton, `_meet_parts`,
which checks the two alphabets) on demand and build only the states
their search reaches.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Callable, Hashable, Iterable, Iterator, Mapping

Word = str

#: Characters that can never be alphabet symbols: whitespace is used by the
#: file format as a separator, '#' starts comments, '-' and '>' form the
#: transition arrow.
RESERVED_CHARS = frozenset("#->")

#: The most states a construction numbers, and pairs a subset-pair search explores.
DEFAULT_STATE_CAP = 2**20


class InputError(ValueError):
    """Malformed operand: bad symbol, alphabet mismatch, invalid argument."""


class ResourceLimitError(RuntimeError):
    """A construction or search exceeded its configured state budget."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of single printable characters."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise InputError("alphabet must be non-empty")
        seen = set()
        for sym in self.symbols:
            if len(sym) != 1:
                raise InputError(f"alphabet symbol must be a single character: {sym!r}")
            if sym.isspace() or not sym.isprintable() or sym in RESERVED_CHARS:
                raise InputError(f"reserved or unprintable alphabet symbol: {sym!r}")
            if sym in seen:
                raise InputError(f"duplicate alphabet symbol: {sym!r}")
            seen.add(sym)
        # canonical order makes alphabet equality order-insensitive
        object.__setattr__(self, "symbols", tuple(sorted(self.symbols)))
        # hashed membership for the per-transition checks; not a field
        object.__setattr__(self, "_symbol_set", frozenset(self.symbols))

    @classmethod
    def from_string(cls, symbols: str) -> "Alphabet":
        return cls(tuple(symbols))

    def __contains__(self, sym: str) -> bool:
        return sym in self._symbol_set

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def check_word(self, word: Word) -> Word:
        for sym in word:
            if sym not in self._symbol_set:
                raise InputError(f"symbol {sym!r} not in alphabet {''.join(self.symbols)!r}")
        return word


class _RowsView:
    """`Nfa.transitions` of a rows-built automaton, made from `_delta` on first read.  A
    triple-built `Nfa` stores its frozenset as an instance attribute, which wins over this
    non-data descriptor."""

    def __get__(self, a: "Nfa | None", owner: type | None = None) -> frozenset:
        if a is None:  # no class-level default: the field stays required
            raise AttributeError("transitions")
        vars(a)["transitions"] = frozenset((s, y, d) for (s, y), ds in a._delta.items() for d in ds)
        return a.transitions


@dataclass(frozen=True)
class Nfa:
    """NFA with a single initial state and transition triples (from, symbol, to), built
    from triples or, by `_from_rows`, from rows; either way `_check` reads `_delta` once.  One
    built from rows equals, hashes and prints as its triple-built twin (`_RowsView`)."""

    alphabet: Alphabet
    state_count: int
    initial: int
    finals: frozenset[int]
    transitions: frozenset[tuple[int, str, int]] = _RowsView()

    def __post_init__(self):
        object.__setattr__(self, "finals", frozenset(self.finals))
        given = vars(self).pop("transitions")
        if given.__class__ is dict:  # rows from `_from_rows`: `transitions` stays the view
            vars(self)["_delta"] = given
        else:
            triples = vars(self)["transitions"] = frozenset(given)
            rows = vars(self)["_delta"] = {}
            for src, sym, dst in triples:
                rows.setdefault((src, sym), []).append(dst)
            for key, dsts in rows.items():
                rows[key] = tuple(sorted(dsts))
        self._check()

    @classmethod
    def _from_rows(cls, alphabet: Alphabet, count: int, initial: int, finals, rows: dict) -> "Nfa":
        """The automaton whose `_delta` is `rows` (targets nonempty, distinct, ascending)."""
        return cls(alphabet, count, initial, finals, rows)

    def _check(self) -> None:
        """Every check of a new automaton: its states, then each row of `_delta`.  Only a
        parsed file can declare more states than the budget: constructions stay within it."""
        count, symbols, cap = self.state_count, self.alphabet._symbol_set, DEFAULT_STATE_CAP
        if count < 1:
            raise InputError("automaton needs at least one state")
        if count > cap:
            raise ResourceLimitError(f"automaton has {count} states, more than {cap}", {"cap": cap})
        if not 0 <= self.initial < count:
            raise InputError(f"initial state {self.initial} out of range")
        for q in self.finals:
            if not 0 <= q < count:
                raise InputError(f"final state {q} out of range")
        for (src, sym), row in self._delta.items():
            lo, hi = row[0], row[-1]
            if not (0 <= src < count and lo >= 0 and hi < count):
                dst = hi if 0 <= src < count and lo >= 0 else lo
                raise InputError(f"transition ({src}, {sym!r}, {dst}) out of range")
            if sym not in symbols:
                raise InputError(f"transition symbol {sym!r} not in alphabet")

    @cached_property
    def _masks(self) -> dict[str, list[int]]:
        """For each symbol, in alphabet order, the successor bitset of each state, one per row."""
        table = {sym: [0] * self.state_count for sym in self.alphabet}
        for (src, sym), row in self._delta.items():
            table[sym][src] = _mask(row)
        return table

    @cached_property
    def _final_bits(self) -> int:
        return _mask(self.finals)

    def _step(self, subset: int) -> list[int]:
        """The successor bitset of `subset` on every symbol, in alphabet order."""
        return _step_all(subset, self._masks)

    def successors(self, state: int, sym: str) -> tuple[int, ...]:
        return self._delta.get((state, sym), ())

    def accepts(self, word: Word) -> bool:
        return membership(self, word)

    # -- common construction helpers -------------------------------------

    @classmethod
    def empty_language(cls, alphabet: Alphabet) -> "Nfa":
        return cls(alphabet, 1, 0, frozenset(), frozenset())

    @classmethod
    def universal(cls, alphabet: Alphabet) -> "Nfa":
        trans = frozenset((0, a, 0) for a in alphabet)
        return cls(alphabet, 1, 0, frozenset({0}), trans)

    @classmethod
    def sigma_plus(cls, alphabet: Alphabet) -> "Nfa":
        trans = {(0, a, 1) for a in alphabet} | {(1, a, 1) for a in alphabet}
        return cls(alphabet, 2, 0, frozenset({1}), frozenset(trans))

    @classmethod
    def from_word(cls, word: Word, alphabet: Alphabet) -> "Nfa":
        return cls.from_words([word], alphabet)

    @classmethod
    def from_words(cls, words: Iterable[Word], alphabet: Alphabet) -> "Nfa":
        """Trie automaton for a finite set of words."""
        ids: dict[Word, int] = {"": 0}
        finals: set[int] = set()
        trans: set[tuple[int, str, int]] = set()
        for word in sorted(set(words), key=lambda w: (len(w), w)):
            alphabet.check_word(word)
            for i in range(len(word)):
                prefix, ext = word[:i], word[: i + 1]
                if ext not in ids:
                    ids[ext] = len(ids)
                    trans.add((ids[prefix], word[i], ids[ext]))
            finals.add(ids[word])
        return cls(alphabet, len(ids), 0, frozenset(finals), frozenset(trans))


@dataclass(frozen=True, eq=False)
class Dfa(Nfa):
    """Possibly partial DFA: at most one successor per (state, symbol)."""

    def _check(self) -> None:
        super()._check()
        if not is_deterministic(self):
            src, sym = next(key for key, dsts in self._delta.items() if len(dsts) > 1)
            raise InputError(f"nondeterministic on ({src}, {sym!r})")


def is_deterministic(a: Nfa) -> bool:
    return len(a._delta) == sum(map(len, a._delta.values()))  # no row is empty


def _require_same_alphabet(alphabet: Alphabet, a: Nfa) -> Alphabet:
    """The one check that two operands share an alphabet: `alphabet`, when `a` is over it."""
    if alphabet != a.alphabet:
        raise InputError(f"operand alphabets differ: {''.join(alphabet)!r} vs {''.join(a.alphabet)!r}")
    return alphabet


def _explore(
    alphabet: Alphabet,
    start: Hashable,
    expand: Callable[[Hashable], Iterable[tuple[str | None, Hashable]]],
    is_final: Callable[[Hashable], bool],
    cls: type[Nfa] = Nfa,
) -> Nfa:
    """The `cls` automaton of a construction value, `_explore(*value[,
    cls])`: the keys reachable from `start`, over `alphabet`, numbered by
    the eager run of `_OnDemand(*value)`'s rule from a LIFO worklist,
    with `start` as the initial state 0.

    `expand(key)` yields the (symbol, key) moves out of a key; a None
    symbol is an internal epsilon move, which `_eliminate_epsilon` folds
    away before the automaton is built (`_folded` is the on-demand fold,
    whose ids differ).  Serialized output depends on the worklist
    order.  Every key is reachable from 0 before the
    epsilon moves are folded, so the language is empty exactly when
    there is no final state; a state entered only by epsilon moves
    keeps its id but is unreachable afterwards.  Raises
    ResourceLimitError when more keys than the budget are reached.

    A row starts as a 1-tuple and becomes a list at its second distinct
    target; lists are deduplicated and sorted at the end.  While one
    key's moves are read, the last row that is a list stays open: a move
    on its symbol is appended to it without building and looking up the
    (state, symbol) key, so runs of moves on one symbol (the SDI and
    shuffle walks) pay for the key once, and walks whose rows hold one
    target (the subset construction, the deletion product) take the
    keyed path as before.
    """
    value = alphabet, start, expand, is_final
    run = _OnDemand(*value)  # its numbering only: the rows are kept here
    ids, keys, number = run._ids, run._keys, run._number
    stack = [0]
    rows: dict = {}
    epsilon = False
    while stack:
        sid = stack.pop()
        open_sym = open_row = None
        for sym, nxt in expand(keys[sid]):
            nid = ids.get(nxt)
            if nid is None:
                nid = number(nxt)
                stack.append(nid)
            if open_row is not None and sym == open_sym:
                open_row.append(nid)
                continue
            key = (sid, sym)
            row = rows.get(key)
            if row is None:  # most rows of a subset DFA or a deletion product end here
                rows[key] = (nid,)
                if sym is None:
                    epsilon = True
            elif row.__class__ is list:
                row.append(nid)
                open_sym, open_row = sym, row
            elif row[0] != nid:
                rows[key] = open_row = [row[0], nid]
                open_sym = sym
    for key, row in rows.items():
        if row.__class__ is list:
            rows[key] = tuple(sorted(set(row)))
    finals = run.finals
    if epsilon:
        finals, rows = _eliminate_epsilon(alphabet, finals, rows)
    return cls._from_rows(alphabet, len(keys), 0, finals, rows)


def _eliminate_epsilon(alphabet: Alphabet, finals: set[int], rows: dict) -> tuple[set[int], dict]:
    """Fold the epsilon rows (symbol None) of `rows` into the symbol rows
    and finals of every state that has them; other states keep theirs."""
    eps_adj = {src: row for (src, sym), row in rows.items() if sym is None}
    new_rows = {key: row for key, row in rows.items() if key[1] is not None}
    new_finals = set(finals)
    for state in eps_adj:
        closure = _reach([state], eps_adj)
        if not closure.isdisjoint(finals):
            new_finals.add(state)
        for sym in alphabet:
            targets = set().union(*[rows.get((q, sym), ()) for q in closure])
            if targets:
                new_rows[state, sym] = tuple(sorted(targets))
    return new_finals, new_rows


def _folded(value: tuple) -> tuple:
    """The construction value `value` with its epsilon moves folded away,
    key by key, for `_OnDemand` to step: a key moves on each symbol
    wherever a key of its epsilon closure does, and is final when one of
    them is.  A key's closure, and so its finality and its symbol moves,
    is worked out once, when the key is numbered (`is_final`, which
    `_OnDemand._number` calls before the key can be expanded); its moves
    are dropped once `expand` has handed them over.  Keys reached only by
    epsilon moves are never numbered.  Same language as `_explore(*value)`,
    other ids: `_explore` folds with `_eliminate_epsilon`, after numbering."""
    alphabet, start, expand, is_final = value
    pending: dict[Hashable, list[tuple[str, Hashable]]] = {}

    def fold(key: Hashable) -> bool:
        moves, final, closure, stack = [], False, {key}, [key]
        while stack:
            inner = stack.pop()
            final = final or is_final(inner)
            for sym, nxt in expand(inner):
                if sym is not None:
                    moves.append((sym, nxt))
                elif nxt not in closure:
                    closure.add(nxt)
                    stack.append(nxt)
        pending[key] = moves
        return final

    return alphabet, start, pending.pop, fold


class _OnDemand:
    """The construction value (alphabet, start, expand, is_final) that
    `_explore(*value)` builds, built by `_OnDemand(*value)` only as far
    as a subset walk steps it.

    `_number` is the one id rule: a key gets the next id, and its
    finality is decided, the first time a move reaches it, `start` being
    0.  Here a key's moves are computed the first time a subset holding
    it is stepped, or its successors are read, so ids follow the walk,
    not `_explore`'s worklist.  Offers what `_subset_witness` and
    `shortest_word` read of an `Nfa`: `alphabet`, `initial`,
    `state_count` (the keys numbered so far), `_step` and `_final_bits`
    (which grows as `_step` numbers keys); and what a construction reads
    of an operand (`constructions._insertion_parts`): `successors` and
    `finals` (the final states numbered so far); and `_delta`, which
    `_coreachable` reads, once stepped to the end.  Moves carry symbols,
    never None (`_folded` folds a value's epsilon moves first).  Raises
    ResourceLimitError when more keys than the budget are numbered.
    """

    initial = 0

    def __init__(
        self,
        alphabet: Alphabet,
        start: Hashable,
        expand: Callable[[Hashable], Iterable[tuple[str, Hashable]]],
        is_final: Callable[[Hashable], bool],
    ):
        self.alphabet = alphabet
        self._expand, self._is_final = expand, is_final
        self._ids: dict[Hashable, int] = {}
        self._keys: list[Hashable] = []
        self.finals: set[int] = set()
        # rows by state id: `_step_all` reads only stepped states, a missing entry as 0
        self._masks: dict[str, defaultdict[int, int]] = {sym: defaultdict(int) for sym in alphabet}
        self._expanded = 0
        self._number(start)
        self._final_bits = _mask(self.finals)

    @property
    def state_count(self) -> int:
        return len(self._keys)

    def _number(self, key: Hashable) -> int:
        """Give `key`, which has no id yet, the next one."""
        sid, cap = len(self._keys), DEFAULT_STATE_CAP
        if sid >= cap:
            raise ResourceLimitError(f"exploration exceeded {cap} states", {"cap": cap})
        self._ids[key] = sid
        self._keys.append(key)
        if self._is_final(key):
            self.finals.add(sid)
        return sid

    @property
    def _delta(self) -> dict[tuple[int, str], tuple[int, ...]]:
        """`Nfa._delta` of the whole value: reading it first steps every numbered state."""
        while fresh := ((1 << len(self._keys)) - 1) & ~self._expanded:
            self._expand_states(fresh)
        return {(q, sym): tuple(_bits(bits)) for sym, row in self._masks.items() for q, bits in row.items() if bits}

    def _step(self, subset: int) -> list[int]:
        """The successor bitset of `subset` on every symbol, in alphabet order."""
        fresh = subset & ~self._expanded
        if fresh:
            self._expand_states(fresh)
        return _step_all(subset, self._masks)

    def successors(self, state: int, sym: str) -> tuple[int, ...]:
        if not self._expanded >> state & 1:
            self._expand_states(1 << state)
        return tuple(_bits(self._masks[sym][state]))

    def _expand_states(self, fresh: int) -> None:
        """Compute the moves of the states in `fresh`, none expanded yet."""
        ids, masks, known, finals = self._ids, self._masks, len(self._keys), self.finals
        for q in _bits(fresh):
            for sym, nxt in self._expand(self._keys[q]):
                nid = ids.get(nxt)
                if nid is None:
                    nid = self._number(nxt)
                masks[sym][q] |= 1 << nid
        self._expanded |= fresh
        self._final_bits |= _mask(q for q in range(known, len(self._keys)) if q in finals)


def _reach(seeds: Iterable[Hashable], adjacency: Mapping[Hashable, Iterable[Hashable]]) -> set:
    """The seeds and every node reachable from them along `adjacency`."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for nxt in adjacency.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _bits(subset: int) -> Iterator[int]:
    """The members of a bitset, in ascending order."""
    while subset:
        low = subset & -subset
        yield low.bit_length() - 1
        subset ^= low


def _mask(states: Iterable[int]) -> int:
    """The bitset of a set of states."""
    bits = 0
    for q in states:  # faster than `sum` of a generator
        bits |= 1 << q
    return bits


def _step_all(subset: int, masks: Mapping[str, list[int]]) -> list[int]:
    """The successor bitset of `subset` on every symbol, in the order of
    `masks` (an automaton's `_masks`)."""
    states = list(_bits(subset))
    return [reduce(or_, map(row.__getitem__, states), 0) for row in masks.values()]


def _advance(states: int, row: list[int]) -> int:
    """The successor bitset of a nonempty `states` along `row`, one
    symbol's entry in an automaton's `_masks`."""
    if states & (states - 1):
        nxt = 0
        for q in _bits(states):
            nxt |= row[q]
        return nxt
    return row[states.bit_length() - 1]  # a single state, as in every run of a DFA


def membership(a: Nfa, word: Word) -> bool:
    """True iff some run of `a` on `word` ends in a final state."""
    a.alphabet.check_word(word)
    masks = a._masks
    states = 1 << a.initial
    for sym in word:
        states = _advance(states, masks[sym])
        if not states:
            return False
    return bool(states & a._final_bits)


def _subset_parts(a: Nfa | _OnDemand, flip: bool, useful: set[int] | None = None) -> tuple:
    """The one subset rule: the construction value (alphabet, start,
    expand, is_final) of the subset construction of `a` from {initial}.
    With `flip`, the empty subset is kept as the sink, so the DFA is
    total, and finality is inverted: the complement of L(a).  A subset
    steps by `a._step` and reads `a._final_bits` afresh, so `a` may be an
    `_OnDemand`, which numbers its states as the subsets reach them.
    With `useful`, the co-reachable states of `a`, every step is masked
    to that set (a dead state moves only to dead states, so this masks
    every row): the subsets are those of `trim(a)` renumbered, even when
    the initial state is useless: it steps to the sink."""
    symbols, step = a.alphabet.symbols, a._step
    live = -1 if useful is None else _mask(useful)  # -1: every state

    def expand(subset: int) -> Iterator[tuple[str, int]]:
        for sym, nxt in zip(symbols, step(subset)):
            nxt &= live
            if nxt or flip:
                yield sym, nxt

    return a.alphabet, 1 << a.initial, expand, lambda subset: bool(subset & a._final_bits) != flip


def determinize(a: Nfa) -> Dfa:
    """Subset construction, reachable nonempty subsets only: a possibly
    partial DFA.

    Raises ResourceLimitError when more subsets than the budget appear.
    """
    return _explore(*_subset_parts(a, False), Dfa)


def complement(a: Nfa) -> Dfa:
    """Total DFA for Σ* − L(a), for any NFA `a`: the reachable subsets of
    `a`, the empty one (the sink) included when some move reaches it,
    with finality inverted.

    Raises ResourceLimitError when more subsets than the budget, the
    sink counted, appear.
    """
    return _explore(*_subset_parts(a, True), Dfa)


def product_intersection(a: Nfa, b: Nfa) -> Nfa:
    """Product automaton for L(a) ∩ L(b), reachable pairs only."""

    def moves(p: int) -> Iterator[tuple[str, int]]:
        for sym in a.alphabet:
            for p2 in a.successors(p, sym):
                yield sym, p2

    return _explore(*_meet_parts((a.alphabet, a.initial, moves, a.finals.__contains__), b))


def _meet_parts(value: tuple, b: Nfa) -> tuple:
    """The construction value of the product of the construction `value`
    with `b`, whose alphabet must be the value's.  A key is paired with
    many states of `b`, so its moves are expanded once per search, in
    their order, and reused."""
    alphabet, start, expand, is_final = value
    _require_same_alphabet(alphabet, b)
    moves: dict[Hashable, tuple[tuple[str, Hashable], ...]] = {}

    def meet(pair: tuple[Hashable, int]) -> Iterator[tuple[str, tuple[Hashable, int]]]:
        key, q = pair
        out = moves.get(key)
        if out is None:
            out = moves[key] = tuple(expand(key))
        for sym, nxt in out:
            for q2 in b.successors(q, sym):
                yield sym, (nxt, q2)

    return alphabet, (start, b.initial), meet, lambda pair: pair[1] in b.finals and is_final(pair[0])


def union_all(automata: list[Nfa], alphabet: Alphabet) -> Nfa:
    """Single-initial union: a fresh initial state 0 mirrors the initial
    state of every operand, whose states follow in operand order (so the
    rows of state 0 stay ascending).  Raises ResourceLimitError, before
    building, when the union would have more states than the budget."""
    cap = DEFAULT_STATE_CAP
    if 1 + sum(a.state_count for a in automata) > cap:
        raise ResourceLimitError(f"union exceeded {cap} states", {"cap": cap})
    rows: dict[tuple[int, str], tuple[int, ...]] = {}
    finals: list[int] = []
    offset = 1
    for a in automata:
        _require_same_alphabet(alphabet, a)
        for (src, sym), row in a._delta.items():
            shifted = rows[src + offset, sym] = tuple(dst + offset for dst in row)
            if src == a.initial:
                rows[0, sym] = rows.get((0, sym), ()) + shifted
        finals.extend(q + offset for q in a.finals)
        if a.initial in a.finals:
            finals.append(0)
        offset += a.state_count
    return Nfa._from_rows(alphabet, offset, 0, finals, rows)


def _reachable(a: Nfa) -> set[int]:
    fwd: dict[int, list[int]] = {}
    for (src, _), row in a._delta.items():
        fwd.setdefault(src, []).extend(row)
    return _reach([a.initial], fwd)


def _coreachable(a: Nfa) -> set[int]:
    rev: dict[int, list[int]] = {}
    for (src, _), row in a._delta.items():
        for dst in row:
            rev.setdefault(dst, []).append(src)
    return _reach(a.finals, rev)


def is_empty(a: Nfa) -> bool:
    return shortest_word(a) is None


def trim(a: Nfa) -> Nfa:
    """Drop states that are unreachable or cannot reach a final state."""
    useful = _reachable(a) & _coreachable(a)
    if a.initial not in useful:
        return Nfa.empty_language(a.alphabet)
    new_ids = iter(range(len(useful)))  # increasing, so rows stay ascending
    remap = [next(new_ids) if q in useful else -1 for q in range(a.state_count)]  # -1: dropped
    rows = {}
    for (src, sym), row in a._delta.items():
        if remap[src] >= 0:
            targets = tuple(filter((0).__le__, map(remap.__getitem__, row)))
            if targets:
                rows[remap[src], sym] = targets
    finals = [remap[q] for q in a.finals if q in useful]
    return Nfa._from_rows(a.alphabet, len(useful), remap[a.initial], finals, rows)


def _canonical_rows(a: Nfa) -> tuple[int, list[int], dict[tuple[int, str], tuple[int, ...]]]:
    """The canonical renumbering, the one routine behind `canonicalize`
    and `textio.serialize_automaton`.

    Reachable states are numbered breadth-first from the initial state,
    which becomes 0; the successors of a state are met by symbol, in
    alphabet order, then by their id in `a`, read off `a._delta`.
    Returns the reachable state count, the new ids of the reachable
    finals in ascending order, and every nonempty row {(source, symbol):
    targets} by source, then symbol, with the targets in ascending new
    id: the transitions in canonical text order.
    """
    delta, symbols = a._delta, a.alphabet.symbols
    new = [-1] * a.state_count
    new[a.initial] = 0
    order = [a.initial]
    rows: dict[tuple[int, str], tuple[int, ...]] = {}
    for src, q in enumerate(order):  # grows while it is walked: a FIFO queue
        for sym in symbols:
            targets = []
            for dst in delta.get((q, sym), ()):
                nid = new[dst]
                if nid < 0:
                    nid = new[dst] = len(order)
                    order.append(dst)
                targets.append(nid)
            if targets:
                rows[src, sym] = tuple(sorted(targets))
    finals = sorted(new[q] for q in a.finals if new[q] >= 0)
    return len(order), finals, rows


def canonicalize(a: Nfa) -> Nfa:
    """Renumber reachable states in BFS order from the initial state;
    the successors of a state are visited by symbol, then by state id."""
    count, finals, rows = _canonical_rows(a)
    return type(a)._from_rows(a.alphabet, count, 0, finals, rows)


def _subset_witness(a: Nfa | _OnDemand, b: Nfa | _OnDemand, equivalence: bool) -> Word | None:
    """Length-lex least word accepted by `a` but not by `b` (by exactly
    one of them when `equivalence`), or None when there is none.

    Breadth-first search over pairs (P, S) of the subsets of states of `a`
    and `b` that one word reaches, held as int bitsets and built only as
    far as needed.  The queue is FIFO and symbols go in alphabet order, so
    pairs are found in the length-lex order of the least words that reach
    them, and the first pair that breaks the relation gives the least
    witness.  For inclusion a pair with P empty can never break it and is
    not explored; for equivalence only the dead pair (0, 0) is skipped.
    Either side may be an `_OnDemand` construction: the search reads only
    `_step` and `_final_bits`, the latter afresh for every pair, since
    stepping numbers new states.  Raises ResourceLimitError when more
    pairs than the budget are explored.
    """
    symbols = _require_same_alphabet(a.alphabet, b).symbols
    memo_a: dict[int, list[int]] = {}
    memo_b: dict[int, list[int]] = {}

    def successors(subset: int, side: Nfa | _OnDemand, memo: dict[int, list[int]]) -> list[int]:
        out = memo.get(subset)  # many pairs share a subset: step each one once
        if out is None:
            out = memo[subset] = side._step(subset)
        return out

    def breaks(pair: tuple[int, int]) -> bool:
        in_a, in_b = bool(pair[0] & a._final_bits), bool(pair[1] & b._final_bits)
        return in_a != in_b if equivalence else in_a and not in_b

    cap = DEFAULT_STATE_CAP
    start = (1 << a.initial, 1 << b.initial)
    parent: dict[tuple[int, int], tuple[tuple[int, int], str] | None] = {start: None}
    found = start if breaks(start) else None
    queue = deque([start])
    while queue and found is None:
        pair = queue.popleft()
        steps_a = successors(pair[0], a, memo_a)
        steps_b = successors(pair[1], b, memo_b)
        for sym, p, s in zip(symbols, steps_a, steps_b):
            nxt = (p, s)
            if nxt in parent or not (p or (equivalence and s)):
                continue
            if len(parent) >= cap:
                raise ResourceLimitError(
                    f"subset-pair search exceeded {cap} pairs",
                    {"cap": cap, "input_states": a.state_count + b.state_count},
                )
            parent[nxt] = (pair, sym)
            if breaks(nxt):
                found = nxt
                break
            queue.append(nxt)
    return None if found is None else _trace_back(parent, found)


def _trace_back(parent: Mapping[Hashable, tuple[Hashable, str] | None], found: Hashable) -> Word:
    """The word spelled by the breadth-first parent links from the start to `found`."""
    word: list[str] = []
    link = parent[found]
    while link is not None:
        found, sym = link
        word.append(sym)
        link = parent[found]
    return "".join(reversed(word))


def inclusion_witness(a: Nfa, b: Nfa) -> Word | None:
    """Length-lex least word of L(a) − L(b), or None when L(a) ⊆ L(b)."""
    return _subset_witness(a, b, False)


def equivalence_witness(a: Nfa, b: Nfa) -> Word | None:
    """Length-lex least word in exactly one of L(a), L(b), or None when
    the languages are equal."""
    return _subset_witness(a, b, True)


def is_subset(a: Nfa, b: Nfa) -> bool:
    """L(a) ⊆ L(b)."""
    return inclusion_witness(a, b) is None


def equivalent(a: Nfa, b: Nfa) -> bool:
    """L(a) = L(b)."""
    return equivalence_witness(a, b) is None


def enumerate_language(a: Nfa, max_len: int) -> list[Word]:
    """All accepted words of length <= max_len, in length-then-lex order:
    the list of `length_lex_words`."""
    return list(length_lex_words(a, max_len))


def length_lex_words(a: Nfa, max_len: int) -> Iterator[Word]:
    """The accepted words of length <= max_len, lazily, in length-then-lex order.

    One depth-first walk per length n over prefixes, stepping int
    bitsets of states.  A prefix of d symbols is extended only into a
    subset that meets `ahead[n - d - 1]` (`_ahead`), so every branch
    walked ends in a word of length n; children are pushed in reverse
    alphabet order, so the stack pops them in lex order.  Each distinct
    subset is stepped once and its steps are remembered for every
    length, a lazily built DFA.  Only the stack, that memo and the
    `ahead` table are held, never the words, and a caller that stops
    early walks no further than the word it stopped at.
    """
    if max_len < 0:
        return
    table, loop = _ahead(a, max_len)
    useful = reduce(or_, table)
    start = (1 << a.initial) & useful
    last = max_len
    if loop is not None:
        period = len(table) - loop
        if not any(start & bits for bits in table[loop:]):
            last = min(last, loop - 1)  # no length past the table has a word

    def ahead(r: int) -> int:
        return table[r] if r < len(table) else table[loop + (r - loop) % period]

    # pushed in reverse alphabet order, so the stack pops them in order
    masks = dict(reversed(a._masks.items()))
    symbols = tuple(masks)
    lex = a.alphabet.symbols
    memo: dict[int, tuple[int, ...]] = {}
    for n in range(last + 1):
        if not start & ahead(n):
            continue
        if n == 0:
            yield ""
            continue
        need = [ahead(n - d - 1) for d in range(n)]  # by prefix length d
        stack: list[tuple[int, str]] = [(start, "")]
        while stack:
            subset, prefix = stack.pop()
            d = len(prefix)
            steps = memo.get(subset)
            if steps is None:
                steps = memo[subset] = tuple(nxt & useful for nxt in _step_all(subset, masks))
            want = need[d]
            if d + 1 < n:
                stack.extend((nxt, prefix + sym) for sym, nxt in zip(symbols, steps) if nxt & want)
            else:  # the children are words: in lex order, as the stack would pop them
                for sym, nxt in zip(lex, reversed(steps)):
                    if nxt & want:
                        yield prefix + sym


def _ahead(a: Nfa, max_len: int) -> tuple[list[int], int | None]:
    """`ahead[r]`, the bitset of the states that accept some word of
    exactly r symbols, for r = 0, 1, ... up to `max_len`, and where the
    table loops back to.

    `ahead[0]` is the final states and `ahead[r + 1]` the predecessors
    of `ahead[r]`.  The table stops at the first value it already holds
    (an empty one repeats at once): from index `loop` on it then repeats
    with period `len(table) - loop`.  `loop` is None when the table
    reached `max_len` first.  So it holds at most min(max_len + 1, the
    distinct values) entries, however large `max_len` is.
    """
    pred = [0] * a.state_count
    for (src, _), row in a._delta.items():
        for dst in row:
            pred[dst] |= 1 << src
    table = [a._final_bits]
    seen = {table[0]: 0}
    while len(table) <= max_len:
        nxt = 0
        for q in _bits(table[-1]):
            nxt |= pred[q]
        if nxt in seen:
            return table, seen[nxt]
        seen[nxt] = len(table)
        table.append(nxt)
    return table, None


def shortest_word(a: Nfa | _OnDemand) -> Word | None:
    """Length-lex least accepted word, or None for the empty language.

    A FIFO breadth-first search over int bitsets, symbols in alphabet
    order, that keeps only states no earlier step reached: each state
    joins the frontier of the least word reaching it and is stepped
    once, and the first frontier with a final state gives the answer.
    On an `_OnDemand` it re-reads `_final_bits` after each `_step`.
    """
    symbols = a.alphabet.symbols
    start = seen = 1 << a.initial
    parent: dict[int, tuple[int, str] | None] = {start: None}
    found = start if start & a._final_bits else None
    queue = deque([start])
    while queue and found is None:
        subset = queue.popleft()
        steps = a._step(subset)
        finals = a._final_bits
        for sym, nxt in zip(symbols, steps):
            nxt &= ~seen
            if nxt:
                seen |= nxt
                parent[nxt] = (subset, sym)
                if nxt & finals:
                    found = nxt
                    break
                queue.append(nxt)
    return None if found is None else _trace_back(parent, found)


def is_finite_language(a: Nfa) -> bool:
    """True iff L(a) is finite: the trimmed automaton is acyclic, that is
    Kahn's peel of the states with no incoming edge left removes them all."""
    t = trim(a)
    succ: dict[int, list[int]] = defaultdict(list)
    indegree = [0] * t.state_count
    for src, dst in ((src, dst) for (src, _), row in t._delta.items() for dst in row):
        succ[src].append(dst)  # edges on several symbols are counted and peeled alike
        indegree[dst] += 1
    ready = [q for q, d in enumerate(indegree) if d == 0]
    peeled = 0
    while ready:
        peeled += 1
        for dst in succ[ready.pop()]:
            indegree[dst] -= 1
            if indegree[dst] == 0:
                ready.append(dst)
    return peeled == t.state_count
