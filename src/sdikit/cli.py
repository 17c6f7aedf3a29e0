"""Command-line interface.

Exit codes: 0 success or predicate true, 1 predicate false / unsolvable /
not found, 2 usage or input error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache, partial
from typing import Iterable

from . import complexity, decide, equations
from .automata import (
    InputError,
    Nfa,
    ResourceLimitError,
    Word,
    is_deterministic,
    is_finite_language,
    length_lex_words,
    membership,
)
from .constructions import (
    bounded_insertion_words,
    finite_into_regular,
    insertion_nfa,
    max_sdi_membership,
    min_sdi_membership,
    regular_max_sdi_finite,
)
from .equations import EquationResourceError, EquationSpec, UnknownSide
from .oracle import SdiVariant
from .textio import (
    EPSILON_TOKEN,
    format_word,
    load_automaton,
    load_words,
    parse_word,
    save_automaton,
    serialize_automaton,
)
from .trajectories import (
    NAMED_TRAJECTORIES,
    TrajectoryKind,
    TrajectoryLanguage,
    deletion_nfa,
    named_trajectory,
    shuffle_nfa,
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class _UsageError(InputError):
    pass


def _load(paths: Iterable[str], word_lists: Iterable[bool]) -> list[Nfa | list[str]]:
    """The one reader of operand files, in order: each a word list where
    `word_lists` says so, else an automaton."""
    return [load_words(path) if words else load_automaton(path) for path, words in zip(paths, word_lists)]


def _operands(args, tries: bool = True) -> list[Nfa | list[str]]:
    """The two operands of `op` or `member`, loaded in order: automaton
    files, or word-list files under --left-words/--right-words (`--words
    FILE` is a right word-list operand).  At least one must be an
    automaton; with `tries`, a word list comes back as its trie over
    that automaton's alphabet."""
    right, right_words = args.right, args.right_words
    if getattr(args, "words", None) is not None:  # `member` has no --words
        if right is not None:
            raise _UsageError("--words replaces the second positional operand")
        right, right_words = args.words, True
    if right is None:
        raise _UsageError("two operands required")
    operands = _load((args.left, right), (args.left_words, right_words))
    alphabet = next((x.alphabet for x in operands if isinstance(x, Nfa)), None)
    if alphabet is None:
        raise _UsageError("at least one operand must be an automaton file")
    if tries:
        operands = [x if isinstance(x, Nfa) else Nfa.from_words(x, alphabet) for x in operands]
    return operands


def _at_least(minimum: int):
    """The argparse type of a whole number, at least `minimum`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a whole number: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


def _state_range(text: str) -> tuple[int, int]:
    """An `--m-range`/`--n-range` value: LO:HI, or N for N:N."""
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi or lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not LO:HI or N: {text!r}") from None


def _load_trajectory(spec_text: str, kind: TrajectoryKind) -> TrajectoryLanguage:
    """A named trajectory (T_sdi, T1, ...) or an automaton file path."""
    if spec_text in NAMED_TRAJECTORIES:
        language = named_trajectory(spec_text).language
        if language.kind is not kind:
            raise _UsageError(f"{spec_text} is a {language.kind.value} trajectory")
        return language
    return TrajectoryLanguage(kind, load_automaton(spec_text))


def _cmd_op(args) -> int:
    if args.out and args.max_len is not None:
        raise _UsageError("--out and --max-len exclude each other")
    if args.variant in ("shuffle", "deletion"):
        if args.trajectory is None:
            raise _UsageError(f"--variant {args.variant} needs --trajectory (name or file)")
        kind = TrajectoryKind(args.variant)
        a, b = _operands(args)
        op = shuffle_nfa if kind is TrajectoryKind.SHUFFLE else deletion_nfa
        return _emit_result(args, op(a, b, _load_trajectory(args.trajectory, kind)))
    if args.trajectory is not None:
        raise _UsageError("--trajectory needs --variant shuffle or deletion")

    variant = SdiVariant(args.variant)
    if variant in (SdiVariant.GENERAL, SdiVariant.ALPHABETIC):
        return _emit_result(args, insertion_nfa(variant, *_operands(args)))
    left, right = _operands(args, tries=False)
    if isinstance(right, list):
        result = regular_max_sdi_finite(left, right, variant)
    elif isinstance(left, list):
        result = finite_into_regular(variant, left, right)
    else:
        # two automata under max/min: not regularity preserving, so only
        # words up to --max-len (which --out excludes)
        if args.max_len is None:
            why = " (no automaton output exists in general)" if args.out else ""
            raise _UsageError(f"{variant.value} of two automata needs --max-len{why}")
        return _write_words(bounded_insertion_words(variant, left, right, args.max_len))
    return _emit_result(args, result)


def _emit_result(args, result: Nfa) -> int:
    if args.out:
        save_automaton(args.out, result)
        return EXIT_TRUE
    if args.max_len is not None:
        return _write_words(length_lex_words(result, args.max_len))
    if is_finite_language(result):  # then every word is shorter than the state count
        return _write_words(length_lex_words(result, result.state_count))
    raise _UsageError("result language is infinite; pass --max-len N or --out FILE")


def _write_words(words: Iterable[Word]) -> int:
    """Every CLI word listing: write distinct `words`, given in length-lex
    order, one line each as they come, the text `serialize_words` gives
    for them, without holding them."""
    write = sys.stdout.write
    for w in words:
        write(format_word(w) + "\n")
    return EXIT_TRUE


def _cmd_member(args) -> int:
    variant = SdiVariant(args.variant)
    word = parse_word(args.word)
    a, b = _operands(args)
    if variant is SdiVariant.MAXIMAL:
        answer = max_sdi_membership(word, a, b)
    elif variant is SdiVariant.MINIMAL:
        answer = min_sdi_membership(word, a, b)
    else:
        answer = membership(insertion_nfa(variant, a, b), word)
    print("true" if answer else "false")
    return EXIT_TRUE if answer else EXIT_FALSE


def _counterexample(variant: SdiVariant, a: Nfa, max_len: int) -> int:
    witness = decide.closure_counterexample_search(variant, a, max_len)
    if witness is None:
        print(f"no counterexample up to length {max_len} (not a closure proof)")
        return EXIT_TRUE
    print(f"counterexample: {format_word(witness)}")
    return EXIT_FALSE


# operand kind -> (usage text, per operand file: is it a word list, takes --max-len)
_OPERAND_KINDS = {
    "automata": ("two automaton files", (False, False), False),
    "automaton": ("one automaton file", (False,), False),
    "automaton+words": ("an automaton file and a word-list file", (False, True), False),
    "automaton+max-len": ("one automaton file", (False,), True),
}

# predicate -> (operand kind, decider over the loaded operands).  A decider
# returns a DecisionReport, or the exit code when it takes --max-len.  The
# lambdas look `decide` functions up at call time, so patching the module
# (as a tracer does) reaches them.
_DECIDERS = {
    **{f"{v.value}-free": ("automata", lambda a, b, v=v: decide.is_free(v, a, b)) for v in SdiVariant},
    **{
        f"{v.value}-independent": ("automata", lambda a, b, v=v: decide.is_independent(v, a, b))
        for v in SdiVariant
    },
    "closed-sdi": ("automaton", lambda a: decide.is_closed_under_sdi(a)),
    "closed-finite-max": (
        "automaton+words",
        lambda a, words: decide.closed_under_finite_maxmin(SdiVariant.MAXIMAL, a, words),
    ),
    "closed-finite-min": (
        "automaton+words",
        lambda a, words: decide.closed_under_finite_maxmin(SdiVariant.MINIMAL, a, words),
    ),
    "two-var-solvable": ("automaton", lambda a: decide.two_var_solvable(a)),
    "counterexample-sdi": ("automaton+max-len", partial(_counterexample, SdiVariant.GENERAL)),
    "counterexample-max": ("automaton+max-len", partial(_counterexample, SdiVariant.MAXIMAL)),
    "counterexample-min": ("automaton+max-len", partial(_counterexample, SdiVariant.MINIMAL)),
}


def _cmd_decide(args) -> int:
    pred = args.predicate
    kind, decider = _DECIDERS[pred]
    usage, word_lists, bounded = _OPERAND_KINDS[kind]
    if len(args.operands) != len(word_lists):
        raise _UsageError(f"{pred} needs {usage}")
    if bounded and args.max_len is None:
        raise _UsageError(f"{pred} needs --max-len")
    if not bounded and args.max_len is not None:
        raise _UsageError(f"{pred} takes no --max-len (its verdict is not bounded)")
    operands = _load(args.operands, word_lists)
    if bounded:
        return decider(*operands, args.max_len)
    report = decider(*operands)
    print(report)
    return EXIT_TRUE if report.answer else EXIT_FALSE


def _cmd_solve(args) -> int:
    spec = EquationSpec(
        UnknownSide(args.side),
        SdiVariant(args.variant),
        load_automaton(args.known),
        load_automaton(args.result),
    )
    try:
        solution = equations.solve(spec)
    except EquationResourceError as exc:
        print(f"resource cap hit: {exc}", file=sys.stderr)
        if args.out:
            save_automaton(args.out, exc.candidate)
        return EXIT_RESOURCE
    if not solution.solvable:
        print("unsolvable")
        return EXIT_FALSE
    print("solvable")
    if args.out:
        save_automaton(args.out, solution.candidate)
    else:
        sys.stdout.write(serialize_automaton(solution.candidate))
    return EXIT_TRUE


def _cmd_enum(args) -> int:
    return _write_words(length_lex_words(load_automaton(args.automaton), args.max_len))


def _cmd_audit(args) -> int:
    audits = complexity.size_audit(
        args.construction, args.m_range, args.n_range, args.samples, seed=args.seed
    )
    for audit in audits:
        print(f"{audit.construction} {audit.m} {audit.n} {audit.bound} {audit.actual}")
    worst = max((a.actual - a.bound for a in audits), default=0)
    return EXIT_TRUE if worst <= 0 else EXIT_FALSE


def _cmd_fooling(args) -> int:
    a = load_automaton(args.automaton)
    found = complexity.fooling_set_search(a, args.target, args.max_len, seed=args.seed)
    if found is None:
        print(f"no fooling set of size {args.target} found (not an upper bound)")
        return EXIT_FALSE
    check = complexity.fooling_set_check(a, found)
    for x, w in found.pairs:
        print(f"{format_word(x)} {format_word(w)}")
    print(f"lower bound: {check.bound}")
    return EXIT_TRUE


def _cmd_check_format(args) -> int:
    if args.kind == "words":
        if args.require_dfa:
            raise _UsageError("--require-dfa needs an automaton, not --kind words")
        words = load_words(args.file)
        print(f"ok: {len(words)} words")
        return EXIT_TRUE
    a = load_automaton(args.file)
    if args.kind != "automaton":  # a trajectory kind: validates the alphabet
        TrajectoryLanguage(TrajectoryKind(args.kind.removesuffix("-trajectory")), a)
    deterministic = is_deterministic(a)
    label = "deterministic" if deterministic else "nondeterministic"
    print(f"ok: {a.state_count} states, {len(a.transitions)} transitions, {label}")
    if args.require_dfa and not deterministic:
        print("error: automaton is nondeterministic", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_TRUE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdikit",
        description="Site-directed insertion toolkit: language operations, "
        "decision procedures, equation solving and state-complexity audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_op = sub.add_parser("op", help="apply a language operation to two operands")
    p_op.add_argument("--variant", required=True,
                      choices=sorted(v.value for v in SdiVariant) + ["shuffle", "deletion"])
    p_op.add_argument("left", help="automaton file (or word list with --left-words)")
    p_op.add_argument("right", nargs="?", help="automaton file (or word list with --right-words)")
    p_op.add_argument("--left-words", action="store_true", help="left operand is a word-list file")
    p_op.add_argument("--right-words", action="store_true", help="right operand is a word-list file")
    p_op.add_argument("--words", metavar="FILE", help="shorthand: right operand word-list file")
    p_op.add_argument("--trajectory", metavar="NAME_OR_FILE",
                      help="trajectory set for shuffle/deletion: "
                      f"one of {', '.join(NAMED_TRAJECTORIES)} or an automaton file")
    p_op.add_argument("--out", metavar="FILE", help="write the result automaton")
    p_op.add_argument("--max-len", type=_at_least(0), help="enumerate the result up to this length")
    p_op.set_defaults(func=_cmd_op)

    p_member = sub.add_parser("member", help="decide membership in an operation result")
    p_member.add_argument("--variant", required=True, choices=sorted(v.value for v in SdiVariant))
    p_member.add_argument("word", help=f"query word ({EPSILON_TOKEN!r} for the empty word)")
    p_member.add_argument("left")
    p_member.add_argument("right")
    p_member.add_argument("--left-words", action="store_true")
    p_member.add_argument("--right-words", action="store_true")
    p_member.set_defaults(func=_cmd_member)

    p_decide = sub.add_parser("decide", help="decision procedures")
    p_decide.add_argument("predicate", choices=list(_DECIDERS))
    p_decide.add_argument("operands", nargs="*")
    p_decide.add_argument("--max-len", type=_at_least(0), help="bound for counterexample search")
    p_decide.set_defaults(func=_cmd_decide)

    p_solve = sub.add_parser("solve", help="one-variable language equation X op L = R or L op X = R")
    p_solve.add_argument("--side", required=True, choices=["left", "right"],
                         help="which side the unknown X occupies")
    p_solve.add_argument("--variant", required=True, choices=["sdi", "asdi"])
    p_solve.add_argument("known", help="automaton file for the known operand L")
    p_solve.add_argument("result", help="automaton file for the result R")
    p_solve.add_argument("--out", metavar="FILE", help="write the candidate automaton")
    p_solve.set_defaults(func=_cmd_solve)

    p_enum = sub.add_parser("enum", help="enumerate a regular language")
    p_enum.add_argument("automaton")
    p_enum.add_argument("--max-len", type=_at_least(0), required=True)
    p_enum.set_defaults(func=_cmd_enum)

    p_audit = sub.add_parser("audit", help="construction size audit against the formula bound")
    p_audit.add_argument("--construction", required=True, choices=["sdi", "asdi"])
    p_audit.add_argument("--m-range", type=_state_range, required=True, help="LO:HI host states")
    p_audit.add_argument("--n-range", type=_state_range, required=True, help="LO:HI insert states")
    p_audit.add_argument("--samples", type=_at_least(1), default=5)
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.set_defaults(func=_cmd_audit)

    p_fool = sub.add_parser("fooling", help="search a fooling set certifying an NFA lower bound")
    p_fool.add_argument("automaton")
    p_fool.add_argument("--target", type=int, required=True)
    p_fool.add_argument("--max-len", type=_at_least(0), required=True)
    p_fool.add_argument("--seed", type=int, default=0)
    p_fool.set_defaults(func=_cmd_fooling)

    p_check = sub.add_parser("check-format", help="validate an input file")
    p_check.add_argument("file")
    p_check.add_argument(
        "--kind",
        choices=["automaton", "shuffle-trajectory", "deletion-trajectory", "words"],
        default="automaton",
    )
    p_check.add_argument("--require-dfa", action="store_true")
    p_check.set_defaults(func=_cmd_check_format)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
