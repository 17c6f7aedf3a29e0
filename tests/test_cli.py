import ast
import inspect
import os
import random
from pathlib import Path

import pytest

from sdikit import (
    EquationSpec,
    Nfa,
    SdiVariant,
    UnknownSide,
    asdi_nfa_direct,
    bounded_language_op,
    candidate,
    enumerate_language,
    equivalent,
    max_sdi_membership,
    oracle,
    sdi_nfa_direct,
    union_all,
)
from sdikit import automata, cli
from sdikit.cli import main
from sdikit.complexity import random_nfa
from sdikit.textio import load_automaton, load_words, save_automaton, serialize_automaton, serialize_words

from conftest import AB, ABC, ba_blocks, blowup


@pytest.fixture
def files(tmp_path):
    paths = {}

    def automaton(name, nfa):
        path = tmp_path / name
        save_automaton(str(path), nfa)
        paths[name] = str(path)
        return str(path)

    def words(name, items):
        path = tmp_path / name
        path.write_text("".join((w or "-") + "\n" for w in items))
        paths[name] = str(path)
        return str(path)

    automaton("host.nfa", Nfa.from_words({"ababab"}, ABC))
    words("insert.txt", ["acbab"])
    automaton("pair.nfa", Nfa.from_words({"ab", "b"}, AB))
    automaton("lab.nfa", Nfa.from_word("ab", AB))
    automaton(
        "r.nfa", sdi_nfa_direct(Nfa.from_word("ab", AB), Nfa.from_word("ab", AB))
    )
    automaton("single.nfa", Nfa.from_word("a", AB))
    paths["tmp"] = str(tmp_path)
    return paths


def test_op_maxsdi_finite_enumerates_fully(files, capsys):
    rc = main(["op", "--variant", "maxsdi", files["host.nfa"], "--words", files["insert.txt"]])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["abacbab", "acbabab", "ababacbab"]


def test_op_requires_bound_for_two_automata_maxsdi(files, capsys):
    rc = main(["op", "--variant", "maxsdi", files["host.nfa"], files["host.nfa"]])
    assert rc == 2
    rc = main([
        "op", "--variant", "maxsdi", files["host.nfa"], files["host.nfa"],
        "--out", files["tmp"] + "/never.nfa",
    ])
    assert rc == 2
    rc = main(["op", "--variant", "maxsdi", files["host.nfa"], files["host.nfa"], "--max-len", "12"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[-1] == "ababab"


@pytest.mark.parametrize("variant", ["maxsdi", "minsdi"])
def test_op_maxmin_rejects_mismatched_alphabets(files, capsys, variant):
    rc = main(["op", "--variant", variant, files["lab.nfa"], files["host.nfa"], "--max-len", "6"])
    assert rc == 2
    assert "operand alphabets differ" in capsys.readouterr().err


def _foreign_words(files, word):
    path = files["tmp"] + "/foreign.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(word + "\n")
    return path


@pytest.mark.parametrize("word", ["c", "cc"])
@pytest.mark.parametrize("variant", ["maxsdi", "minsdi", "sdi"])
def test_op_finite_words_reject_foreign_symbols(files, capsys, variant, word):
    argv = ["op", "--variant", variant, files["lab.nfa"], "--words", _foreign_words(files, word)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "symbol 'c' not in alphabet 'ab'" in captured.err


@pytest.mark.parametrize("word", ["c", "cc"])
@pytest.mark.parametrize("predicate", ["closed-finite-max", "closed-finite-min"])
def test_decide_closed_finite_rejects_foreign_symbols(files, capsys, predicate, word):
    assert main(["decide", predicate, files["lab.nfa"], _foreign_words(files, word)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "symbol 'c' not in alphabet 'ab'" in captured.err


def test_bounded_probes_never_call_the_oracle(files, capsys, monkeypatch):
    host = ba_blocks(2, "$")
    inserted = ba_blocks(2, "%$")
    paths = [files["tmp"] + "/blocks.nfa", files["tmp"] + "/inserted.nfa"]
    save_automaton(paths[0], host)
    save_automaton(paths[1], inserted)
    expected = {}
    for variant in (SdiVariant.MAXIMAL, SdiVariant.MINIMAL):
        produced = bounded_language_op(variant, enumerate_language(host, 12), enumerate_language(inserted, 12))
        expected[variant] = serialize_words([w for w in produced if len(w) <= 12])

    def refuse(x, y):
        raise AssertionError("the string oracle was called")

    for variant in SdiVariant:
        monkeypatch.setitem(oracle._VARIANT_OPS, variant, refuse)
    for variant in (SdiVariant.MAXIMAL, SdiVariant.MINIMAL):
        assert main(["op", "--variant", variant.value, *paths, "--max-len", "12"]) == 0
        assert capsys.readouterr().out == expected[variant]
    for predicate in ("counterexample-sdi", "counterexample-max", "counterexample-min"):
        assert main(["decide", predicate, paths[0], "--max-len", "12"]) == 1
        assert capsys.readouterr().out == "counterexample: bababa$\n"


def test_op_writes_equivalent_automaton(files):
    out = files["tmp"] + "/result.nfa"
    rc = main(["op", "--variant", "sdi", files["lab.nfa"], files["lab.nfa"], "--out", out])
    assert rc == 0
    assert equivalent(load_automaton(out), Nfa.from_word("ab", AB))


def test_op_deterministic_output(files, capsys):
    argv = ["op", "--variant", "sdi", files["lab.nfa"], files["lab.nfa"], "--max-len", "6"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_member_exit_codes(files, capsys):
    rc = main(["member", "--variant", "maxsdi", "abacbab",
               files["host.nfa"], files["insert.txt"], "--right-words"])
    assert rc == 0
    rc = main(["member", "--variant", "maxsdi", "abacbabab",
               files["host.nfa"], files["insert.txt"], "--right-words"])
    assert rc == 1
    rc = main(["member", "--variant", "sdi", "abacbabab",
               files["host.nfa"], files["insert.txt"], "--right-words"])
    assert rc == 0
    capsys.readouterr()


def test_decide_independent(files, capsys):
    rc = main(["decide", "sdi-independent", files["pair.nfa"], files["pair.nfa"]])
    assert rc == 0
    assert "true" in capsys.readouterr().out
    rc = main(["decide", "sdi-free", files["lab.nfa"], files["lab.nfa"]])
    assert rc == 1
    assert "witness" in capsys.readouterr().out
    for predicate in ("sdi-independent", "asdi-independent"):
        assert main(["decide", predicate, files["lab.nfa"], files["host.nfa"]]) == 2
        assert capsys.readouterr().err == "error: operand alphabets differ: 'ab' vs 'abc'\n"


def test_decide_closed_and_twovar(files, capsys):
    assert main(["decide", "closed-sdi", files["lab.nfa"]]) == 0
    assert main(["decide", "two-var-solvable", files["single.nfa"]]) == 1
    assert main(["decide", "closed-finite-max", files["host.nfa"], files["insert.txt"]]) == 1
    out = capsys.readouterr().out
    assert "witness" in out


def test_decide_counterexample(files, capsys):
    assert main(["decide", "counterexample-max", files["host.nfa"], "--max-len", "12"]) == 0
    assert main(["decide", "counterexample-sdi", files["host.nfa"], "--max-len", "12"]) == 1
    out = capsys.readouterr().out
    assert "counterexample:" in out


def test_consecutive_calls_share_no_arguments(files, capsys):
    assert main(["decide", "counterexample-sdi", files["lab.nfa"], "--max-len", "3"]) == 0
    capsys.readouterr()
    assert main(["decide", "counterexample-sdi", files["lab.nfa"]]) == 2
    assert "error: counterexample-sdi needs --max-len" in capsys.readouterr().err


DECIDE_OPERAND_COUNTS = {
    "sdi-free": 2, "sdi-independent": 2, "asdi-free": 2, "asdi-independent": 2,
    "maxsdi-free": 2, "minsdi-free": 2, "maxsdi-independent": 2, "minsdi-independent": 2,
    "closed-sdi": 1, "closed-finite-max": 2, "closed-finite-min": 2, "two-var-solvable": 1,
    "counterexample-sdi": 1, "counterexample-max": 1, "counterexample-min": 1,
}


@pytest.mark.parametrize("predicate", [p for p in DECIDE_OPERAND_COUNTS if p.endswith(("-free", "-independent"))])
def test_decide_verdict_names_its_predicate(files, capsys, predicate):
    assert main(["decide", predicate, files["pair.nfa"], files["pair.nfa"]]) in (0, 1)
    assert capsys.readouterr().out.startswith(f"{predicate}: ")


@pytest.mark.parametrize(
    "predicate, count",
    [
        (predicate, count)
        for predicate, needed in sorted(DECIDE_OPERAND_COUNTS.items())
        for count in range(4)
        if count != needed
    ],
)
def test_decide_wrong_operand_count_is_usage_error(files, capsys, predicate, count):
    operands = [files["lab.nfa"]] * count
    assert main(["decide", predicate, *operands, "--max-len", "3"]) == 2
    assert f"error: {predicate} needs " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["op", "--variant", "sdi", "lab.nfa", "lab.nfa", "--trajectory", "T1"], "--trajectory needs --variant"),
        (["op", "--variant", "sdi", "lab.nfa", "lab.nfa", "--out", "out.nfa", "--max-len", "3"],
         "--out and --max-len"),
        (["decide", "sdi-free", "lab.nfa", "lab.nfa", "--max-len", "3"], "sdi-free takes no --max-len"),
        (["check-format", "insert.txt", "--kind", "words", "--require-dfa"], "--require-dfa needs an automaton"),
    ],
)
def test_flags_that_would_be_ignored_are_usage_errors(files, capsys, argv, message):
    files["out.nfa"] = files["tmp"] + "/out.nfa"
    assert main([files.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {message}" in captured.err
    assert not os.path.exists(files["out.nfa"])


def test_solve_round_trip(files, capsys):
    out = files["tmp"] + "/solution.nfa"
    rc = main(["solve", "--side", "left", "--variant", "sdi",
               files["lab.nfa"], files["r.nfa"], "--out", out])
    assert rc == 0
    assert "solvable" in capsys.readouterr().out
    candidate = load_automaton(out)
    assert equivalent(sdi_nfa_direct(candidate, Nfa.from_word("ab", AB)),
                      load_automaton(files["r.nfa"]))
    rc = main(["solve", "--side", "left", "--variant", "sdi",
               files["lab.nfa"], files["single.nfa"]])
    assert rc == 1
    capsys.readouterr()


def test_enum(files, capsys):
    assert main(["enum", files["pair.nfa"], "--max-len", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["b", "ab"]


def test_word_listings_write_the_serialized_words(tmp_path, capsys):
    # every word listing streams the text `serialize_words` gives for the listed words
    rng = random.Random(2020)
    paths = [str(tmp_path / name) for name in ("a.nfa", "b.nfa")]
    for i in range(8):
        a, b = (random_nfa(rng, rng.randint(1, 4), AB, 0.4) for _ in range(2))
        if i % 2 == 0:  # accepts the empty word: listed as "-"
            a = Nfa(AB, a.state_count, a.initial, a.finals | {a.initial}, a.transitions)
        save_automaton(paths[0], a)
        save_automaton(paths[1], b)
        n = rng.randint(0, 6)
        general = sdi_nfa_direct(a, b)
        listings = [
            (["enum", paths[0]], enumerate_language(a, n)),
            (["op", "--variant", "sdi", *paths], enumerate_language(general, n)),
            (["op", "--variant", "maxsdi", *paths],
             [w for w in enumerate_language(general, n) if max_sdi_membership(w, a, b)]),
        ]
        for argv, words in listings:
            assert main([*argv, "--max-len", str(n)]) == 0
            assert capsys.readouterr().out == serialize_words(words)
        if i % 2 == 0:
            assert "-" in serialize_words(enumerate_language(a, n)).splitlines()
    # a finite result without --max-len lists every word
    finite = Nfa.from_words(["", "b", "ab", "ba"], AB)
    save_automaton(paths[0], finite)
    assert main(["op", "--variant", "asdi", paths[0], paths[0]]) == 0
    assert capsys.readouterr().out == serialize_words(enumerate_language(asdi_nfa_direct(finite, finite), 12))


@pytest.mark.parametrize(
    "argv, code_at_zero",
    [
        (["op", "--variant", "maxsdi", "lab.nfa", "lab.nfa"], 0),
        (["decide", "counterexample-sdi", "lab.nfa"], 0),
        (["enum", "lab.nfa"], 0),
        (["fooling", "lab.nfa", "--target", "1"], 1),
    ],
)
def test_negative_max_len_is_usage_error(files, capsys, argv, code_at_zero):
    argv = [files.get(arg, arg) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--max-len", "-1"])
    assert exc.value.code == 2
    assert "--max-len: must be at least 0, got -1" in capsys.readouterr().err
    assert main([*argv, "--max-len", "0"]) == code_at_zero


def test_audit(files, capsys):
    assert main(["audit", "--construction", "asdi", "--m-range", "1:2",
                 "--n-range", "1:2", "--samples", "2", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    for line in lines:
        name, m, n, bound, actual = line.split()
        assert name == "asdi"
        assert int(actual) <= int(bound) == int(m) * int(n) + 2 * int(m)


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--m-range", "x", "--m-range: not LO:HI or N: 'x'"),
        ("--n-range", "1:y", "--n-range: not LO:HI or N: '1:y'"),
        ("--samples", "0", "--samples: must be at least 1, got 0"),
        ("--samples", "-3", "--samples: must be at least 1, got -3"),
    ],
)
def test_audit_bad_option_is_usage_error(capsys, option, value, message):
    options = {"--m-range": "1", "--n-range": "1", option: value}
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--construction", "sdi", *(x for item in options.items() for x in item)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_op_sdi_out_never_builds_the_transition_set(files, tmp_path, monkeypatch):
    reads = []
    view_get = automata._RowsView.__get__

    def spy(self, a, owner=None):
        if a is not None:
            reads.append(a)
        return view_get(self, a, owner)

    monkeypatch.setattr(automata._RowsView, "__get__", spy)
    a, b = (random_nfa(random.Random(seed), 8, AB, 0.3) for seed in (71, 72))
    paths = [str(tmp_path / name) for name in ("a.nfa", "b.nfa", "out.nfa")]
    save_automaton(paths[0], a)
    save_automaton(paths[1], b)
    assert main(["op", "--variant", "sdi", paths[0], paths[1], "--out", paths[2]]) == 0
    assert equivalent(load_automaton(paths[2]), sdi_nfa_direct(a, b))
    assert reads == []
    assert sdi_nfa_direct(a, b).transitions and len(reads) == 1  # the spy sees a read


def test_fooling_cli(files, capsys):
    assert main(["fooling", files["host.nfa"], "--target", "3", "--max-len", "6"]) == 0
    out = capsys.readouterr().out
    assert "lower bound: 3" in out
    assert main(["fooling", files["single.nfa"], "--target", "9", "--max-len", "2"]) == 1
    capsys.readouterr()


def test_check_format(files, capsys, tmp_path):
    assert main(["check-format", files["host.nfa"]]) == 0
    assert "deterministic" in capsys.readouterr().out
    bad = tmp_path / "bad.nfa"
    bad.write_text("alphabet: a\nstates: 1\ninitial: 0\n")
    assert main(["check-format", str(bad)]) == 2
    capsys.readouterr()
    nondet = tmp_path / "nd.nfa"
    nondet.write_text("alphabet: a\nstates: 2\ninitial: 0\nfinal: 1\n0 a -> 0\n0 a -> 1\n")
    assert main(["check-format", str(nondet)]) == 0
    assert "nondeterministic" in capsys.readouterr().out
    assert main(["check-format", str(nondet), "--require-dfa"]) == 2
    capsys.readouterr()


def test_check_format_trajectory(files, capsys, tmp_path):
    traj = tmp_path / "traj.nfa"
    traj.write_text("alphabet: 0 1 s\nstates: 1\ninitial: 0\nfinal: 0\n0 0 -> 0\n")
    assert main(["check-format", str(traj), "--kind", "shuffle-trajectory"]) == 0
    assert main(["check-format", str(traj), "--kind", "deletion-trajectory"]) == 2
    capsys.readouterr()


def test_missing_file_is_usage_error(files, capsys):
    assert main(["enum", files["tmp"] + "/nope.nfa", "--max-len", "3"]) == 2
    capsys.readouterr()


def test_a_file_that_is_not_utf8_is_a_format_error(files, capsys, tmp_path):
    bad, words, marked = tmp_path / "bad.nfa", tmp_path / "bad.txt", tmp_path / "bom-bad.txt"
    bad.write_bytes(b"alphabet: a \xff\nstates: 1\ninitial: 0\nfinal: 0\n")
    words.write_bytes(b"ab\n\xff\n")
    marked.write_bytes(b"\xef\xbb\xbfab\n\xff\n")  # the offset counts the byte-order mark
    for argv, path in [
        (["check-format", str(bad)], bad),
        (["enum", str(bad), "--max-len", "2"], bad),
        (["check-format", str(words), "--kind", "words"], words),
        (["check-format", str(marked), "--kind", "words"], marked),
        (["op", "--variant", "maxsdi", files["lab.nfa"], "--words", str(words)], words),
    ]:
        assert main(argv) == 2
        at = path.read_bytes().index(0xFF)
        assert capsys.readouterr() == ("", f"error: {path}: not UTF-8 text: invalid start byte at byte {at}\n")


def test_a_byte_order_mark_is_not_part_of_the_text(files, capsys, tmp_path):
    # a file saved with a UTF-8 byte-order mark loads as it does without one
    text = serialize_automaton(Nfa.from_word("ab", AB))
    for name, body, kind in [("a.nfa", text, "automaton"), ("w.txt", "ab\nba\n", "words")]:
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_bytes(body.encode("utf-8"))
        marked.write_bytes(body.encode("utf-8-sig"))
        load = load_automaton if kind == "automaton" else load_words
        assert load(str(marked)) == load(str(plain))
        outputs = []
        for path in (plain, marked):
            assert main(["check-format", str(path), "--kind", kind]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == ""
    assert load_words(str(tmp_path / "bom-w.txt")) == ["ab", "ba"]


def test_a_format_error_names_its_file(files, capsys, tmp_path):
    bad = tmp_path / "bad.nfa"
    bad.write_text("ab\n")
    for argv in [
        ["op", "--variant", "sdi", files["lab.nfa"], str(bad)],
        ["member", "--variant", "maxsdi", "ab", files["lab.nfa"], str(bad)],
        ["decide", "sdi-independent", files["lab.nfa"], str(bad)],
        ["decide", "closed-finite-max", str(bad), files["insert.txt"]],
        ["op", "--variant", "deletion", files["lab.nfa"], files["lab.nfa"], "--trajectory", str(bad)],
        ["solve", "--side", "left", "--variant", "sdi", str(bad), files["lab.nfa"]],
    ]:
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {bad}: line 1: expected 'FROM SYMBOL -> TO': 'ab'\n")
    bad.write_text("alphabet: a\nstates: 1\ninitial: 0\nfinal: 0\n0 a -> 1\n")
    assert main(["check-format", str(bad)]) == 2
    assert capsys.readouterr() == ("", f"error: {bad}: transition (0, 'a', 1) out of range\n")


def test_the_cli_holds_no_library_function_outside_a_lambda():
    """A tracer sees a call only through a module binding it can patch, so
    no module-level assignment in `cli` holds a function imported from the
    library: a lambda body looks its names up at call time."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}

    def held(node):
        if isinstance(node, ast.Name) and node.id in imported:
            return getattr(cli, node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in imported:
            return getattr(getattr(cli, node.value.id), node.attr, None)
        return None

    def outside_lambda_bodies(node):
        yield node
        for child in ast.iter_child_nodes(node):
            if not (isinstance(node, ast.Lambda) and child is node.body):
                yield from outside_lambda_bodies(child)

    found = [
        (node.lineno, ast.unparse(node))
        for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value
        for node in outside_lambda_bodies(stmt.value)
        if inspect.isfunction(held(node))
    ]
    assert not found


def test_a_file_declaring_more_states_than_the_budget_exits_3(capsys, tmp_path):
    for count, code in [(2**20, 0), (2**20 + 1, 3)]:
        big = tmp_path / "big.nfa"
        big.write_text(f"alphabet: a\nstates: {count}\ninitial: 0\nfinal: 0\n")
        assert main(["check-format", str(big)]) == code
        captured = capsys.readouterr()
        if code:
            assert captured == ("", f"error: automaton has {count} states, more than {2**20}\n")


def test_emitted_automata_reparse_equivalent(files, tmp_path):
    out = str(tmp_path / "roundtrip.nfa")
    rc = main(["op", "--variant", "asdi", files["lab.nfa"], files["lab.nfa"], "--out", out])
    assert rc == 0
    reparsed = load_automaton(out)
    from sdikit import asdi_nfa_direct

    direct = asdi_nfa_direct(Nfa.from_word("ab", AB), Nfa.from_word("ab", AB))
    assert equivalent(reparsed, direct)


def test_op_shuffle_with_named_trajectory(files, capsys):
    rc = main(["op", "--variant", "shuffle", files["lab.nfa"], files["lab.nfa"],
               "--trajectory", "T_sdi", "--max-len", "4"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["ab"]
    rc = main(["op", "--variant", "shuffle", files["lab.nfa"], files["lab.nfa"]])
    assert rc == 2  # no trajectory given
    capsys.readouterr()


def test_op_deletion_with_trajectory_file(files, capsys, tmp_path):
    traj = tmp_path / "keepdel.nfa"
    traj.write_text(
        "alphabet: i d s\nstates: 2\ninitial: 0\nfinal: 0 1\n"
        "0 i -> 0\n0 d -> 1\n1 i -> 1\n"
    )
    host = tmp_path / "aab.nfa"
    save_automaton(str(host), Nfa.from_word("aab", AB))
    single = tmp_path / "b.nfa"
    save_automaton(str(single), Nfa.from_word("b", AB))
    rc = main(["op", "--variant", "deletion", str(host), str(single),
               "--trajectory", str(traj), "--max-len", "4"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["aa"]
    rc = main(["op", "--variant", "deletion", str(host), str(single),
               "--trajectory", "T_sdi", "--max-len", "4"])
    assert rc == 2  # shuffle-kind name for a deletion op
    capsys.readouterr()


@pytest.mark.parametrize("variant,trajectory", [("shuffle", "T_sdi"), ("deletion", "T1")])
def test_op_trajectory_variants_read_words(files, capsys, variant, trajectory):
    words = files["tmp"] + "/y.txt"
    with open(words, "w") as handle:
        handle.write("ab\nb\n")
    common = ["op", "--variant", variant, "--trajectory", trajectory, "--max-len", "6"]
    assert main(common + [files["r.nfa"], words, "--right-words"]) == 0
    expected = capsys.readouterr().out
    assert expected.strip()
    assert main(common + [files["r.nfa"], "--words", words]) == 0
    assert capsys.readouterr().out == expected
    assert main(common + [files["r.nfa"], files["pair.nfa"], "--words", words]) == 2
    assert "--words replaces the second positional operand" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["op", "--variant", "sdi", "lab.nfa", "lab.nfa", "--out", "out.nfa"],
        ["decide", "closed-sdi", "lab.nfa"],
        ["solve", "--side", "left", "--variant", "sdi", "lab.nfa", "r.nfa", "--out", "out.nfa"],
    ],
)
def test_state_budget_exits_3(files, capsys, monkeypatch, argv):
    # SDI of ab into ab has 7 states, so it fails a budget of 6; the solve
    # loads it as r.nfa, fits a budget of 8, and its candidate needs 9
    files["out.nfa"] = files["tmp"] + "/out.nfa"
    cap = 8 if argv[0] == "solve" else 6
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", cap)
    assert main([files.get(arg, arg) for arg in argv]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: exploration exceeded {cap} states\n")
    assert not os.path.exists(files["out.nfa"])


@pytest.mark.parametrize(
    "argv",
    [
        ["op", "--variant", "maxsdi", "a.nfa", "--words", "words.txt"],
        ["op", "--variant", "minsdi", "a.nfa", "--words", "words.txt"],
        ["decide", "closed-finite-max", "a.nfa", "words.txt"],
        ["decide", "closed-finite-min", "a.nfa", "words.txt"],
    ],
)
def test_per_word_union_budget_exits_3(files, capsys, monkeypatch, argv):
    # every per-word automaton fits in 60 states, their union does not
    files["a.nfa"], files["words.txt"] = files["tmp"] + "/a.nfa", files["tmp"] + "/words.txt"
    save_automaton(files["a.nfa"], random_nfa(random.Random(5), 4, AB, 0.5))
    with open(files["words.txt"], "w", encoding="utf-8") as fh:
        fh.write("ab\nba\naab\nabb\nbab\naba\n")
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 60)
    assert main([files.get(arg, arg) for arg in argv]) == 3
    assert capsys.readouterr() == ("", "error: union exceeded 60 states\n")


def test_solve_answers_unsolvable_within_a_budget_its_deletion_product_exceeds(files, capsys, monkeypatch):
    # the search numbers 1,590 keys of a deletion product of 3,136
    known, result = files["tmp"] + "/known.nfa", files["tmp"] + "/blowup8.nfa"
    save_automaton(known, Nfa.from_words(["ab", "ba", "abb"], AB))
    save_automaton(result, blowup(8))
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 2000)
    assert main(["solve", "--side", "left", "--variant", "sdi", known, result]) == 1
    assert capsys.readouterr() == ("unsolvable\n", "")


def test_solve_writes_the_candidate_when_verification_hits_the_budget(files, capsys, monkeypatch):
    argv = ["solve", "--side", "left", "--variant", "sdi", files["lab.nfa"], files["r.nfa"], "--out"]
    full, kept = files["tmp"] + "/full.nfa", files["tmp"] + "/kept.nfa"
    assert main([*argv, full]) == 0
    capsys.readouterr()
    # the candidate is built within 12 states; verifying it needs 24
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 12)
    assert main([*argv, kept]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource cap hit: verification hit the state cap: "), captured.err
    with open(full, "rb") as want, open(kept, "rb") as got:
        assert got.read() == want.read()


def test_solve_writes_the_candidate_when_an_unsolvable_search_hits_the_budget(files, capsys, monkeypatch):
    # ab sdi X = (ab sdi bb) + {bab}: unsolvable (bab); the candidate has 8 states, the search needs 16
    known = Nfa.from_word("ab", AB)
    result = union_all([sdi_nfa_direct(known, Nfa.from_word("bb", AB)), Nfa.from_word("bab", AB)], AB)
    bab, kept = files["tmp"] + "/bab.nfa", files["tmp"] + "/kept.nfa"
    save_automaton(bab, result)
    argv = ["solve", "--side", "right", "--variant", "sdi", files["lab.nfa"], bab, "--out", kept]
    assert main(argv) == 1
    assert capsys.readouterr().out == "unsolvable\n"
    assert not os.path.exists(kept)
    want = serialize_automaton(candidate(EquationSpec(UnknownSide.RIGHT, SdiVariant.GENERAL, known, result)))
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 12)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource cap hit: verification hit the state cap: "), captured.err
    with open(kept, encoding="utf-8") as got:
        assert got.read() == want
