import random

import pytest

from sdikit import automata
from sdikit import (
    EquationSpec,
    InputError,
    Nfa,
    ResourceLimitError,
    SdiVariant,
    UnknownSide,
    asdi_nfa_direct,
    candidate,
    complement,
    determinize,
    enumerate_language,
    equivalent,
    is_subset,
    membership,
    named_trajectory,
    sdi_nfa_direct,
    solve,
    union_all,
    verify_solution,
)
from sdikit.complexity import random_nfa
from sdikit.equations import _apply, _deletion
from sdikit.textio import serialize_automaton
from sdikit.trajectories import _deletion_parts

from conftest import AB, ABC, blowup, count_numbered, solve_keeping_the_search_candidate, step_to_the_end


def _spec(side, variant, known, result):
    return EquationSpec(side, variant, known, result)


def test_spec_validation():
    with pytest.raises(InputError):
        _spec(UnknownSide.LEFT, SdiVariant.MAXIMAL, Nfa.universal(AB), Nfa.universal(AB))
    with pytest.raises(InputError):
        _spec(UnknownSide.LEFT, SdiVariant.GENERAL, Nfa.universal(AB), Nfa.universal(ABC))


def test_candidate_for_empty_result_is_avoiders():
    # with R = empty, the candidate holds exactly the words that admit no
    # insertion of L at all (every produced word would land outside R)
    known = Nfa.from_word("ab", AB)
    cand = candidate(_spec(UnknownSide.LEFT, SdiVariant.GENERAL, known, Nfa.empty_language(AB)))
    # "ab" admits an insertion of "ab", so it cannot be in the candidate
    assert not membership(cand, "ab")
    assert membership(cand, "ba")
    assert membership(cand, "")
    # substituting the candidate indeed solves X sdi {ab} = empty
    assert verify_solution(cand, _spec(UnknownSide.LEFT, SdiVariant.GENERAL, known, Nfa.empty_language(AB)))


def test_round_trip_left_general():
    s0 = Nfa.from_word("ab", AB)
    known = Nfa.from_word("ab", AB)
    result = sdi_nfa_direct(s0, known)
    spec = _spec(UnknownSide.LEFT, SdiVariant.GENERAL, known, result)
    solution = solve(spec)
    assert solution.solvable
    assert is_subset(s0, solution.candidate)
    assert equivalent(sdi_nfa_direct(solution.candidate, known), result)


def test_round_trip_right_alphabetic():
    s0 = Nfa.from_word("acb", ABC)
    known = Nfa.from_word("ab", ABC)
    result = asdi_nfa_direct(known, s0)  # {acb}
    assert enumerate_language(result, 5) == ["acb"]
    spec = _spec(UnknownSide.RIGHT, SdiVariant.ALPHABETIC, known, result)
    solution = solve(spec)
    assert solution.solvable
    assert is_subset(s0, solution.candidate)


def test_solutions_compare_by_spec_and_witness():
    # a solvable solution caches its candidate: it takes no part in ==, hash or repr
    known = Nfa.from_word("ab", AB)
    solvable = _spec(UnknownSide.LEFT, SdiVariant.GENERAL, known, sdi_nfa_direct(known, known))
    unsolvable = _spec(UnknownSide.LEFT, SdiVariant.GENERAL, known, Nfa.from_word("a", AB))
    for spec in (solvable, unsolvable):
        first, second = solve(spec), solve(spec)
        assert first == second and hash(first) == hash(second)
        assert repr(first) == repr(second) and "_parts" not in repr(first)
    assert solve(solvable) != solve(unsolvable)
    other_side = _spec(UnknownSide.RIGHT, SdiVariant.GENERAL, known, sdi_nfa_direct(known, known))
    assert solve(other_side).witness == solve(solvable).witness
    assert solve(other_side) != solve(solvable)


def test_unsolvable_single_letter_result():
    known = Nfa.from_word("ab", AB)
    for side in UnknownSide:
        for variant in (SdiVariant.GENERAL, SdiVariant.ALPHABETIC):
            spec = _spec(side, variant, known, Nfa.from_word("a", AB))
            assert not solve(spec).solvable


def test_verify_solution_rejects_empty_and_mutants():
    s0 = Nfa.from_word("ab", AB)
    known = Nfa.from_word("ab", AB)
    result = sdi_nfa_direct(s0, known)
    spec = _spec(UnknownSide.LEFT, SdiVariant.GENERAL, known, result)
    assert not verify_solution(Nfa.empty_language(AB), spec)
    solution = solve(spec)
    assert solution.solvable
    # adding a word that produces something outside R breaks the equation
    mutant = union_all([s0, Nfa.from_word("abab", AB)], AB)
    assert not verify_solution(mutant, spec)


def test_every_verified_solution_is_inside_candidate():
    rng = random.Random(179)
    for _ in range(10):
        s0 = determinize(random_nfa(rng, 2, AB))
        known = determinize(random_nfa(rng, 2, AB))
        result = sdi_nfa_direct(s0, known)
        spec = _spec(UnknownSide.LEFT, SdiVariant.GENERAL, known, result)
        cand = candidate(spec)
        if verify_solution(s0, spec):
            assert is_subset(s0, cand)


def test_round_trips_random_all_cases():
    rng = random.Random(181)
    for _ in range(6):
        s0 = determinize(random_nfa(rng, rng.randint(1, 2), AB))
        known = determinize(random_nfa(rng, rng.randint(1, 2), AB))
        for variant, build in (
            (SdiVariant.GENERAL, sdi_nfa_direct),
            (SdiVariant.ALPHABETIC, asdi_nfa_direct),
        ):
            left_result = build(s0, known)
            assert solve(_spec(UnknownSide.LEFT, variant, known, left_result)).solvable
            right_result = build(known, s0)
            assert solve(_spec(UnknownSide.RIGHT, variant, known, right_result)).solvable


def test_candidate_counts_the_deletion_against_the_budget(monkeypatch):
    # the trimmed deletion product alone has 94 states, more than the candidate
    spec = _spec(UnknownSide.LEFT, SdiVariant.GENERAL, Nfa.from_words({"ab", "ba", "abb"}, AB), blowup(3))
    assert candidate(spec).state_count == 46
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 46)
    with pytest.raises(ResourceLimitError, match="^exploration exceeded 46 states$"):
        candidate(spec)


def test_candidate_empty_known_and_result_is_universal():
    # nothing deletable at all: the candidate collapses to all words
    spec = _spec(UnknownSide.LEFT, SdiVariant.GENERAL,
                 Nfa.empty_language(AB), Nfa.empty_language(AB))
    cand = candidate(spec)
    assert equivalent(cand, Nfa.universal(AB))
    assert verify_solution(cand, spec)
    # the deletion product's initial state is dead: both candidates step it
    # to the sink, so each has the start state and the sink
    solution, searched = solve_keeping_the_search_candidate(spec)
    assert cand.state_count == solution.candidate.state_count == step_to_the_end(searched) == 2


def test_verification_builds_only_what_the_search_reaches():
    # unsolvable: the witness turns up long before the search has seen
    # the whole left-hand side
    known = Nfa.from_words(["ab", "ba", "abb"], AB)
    spec = _spec(UnknownSide.LEFT, SdiVariant.GENERAL, known, blowup(9))
    cand = candidate(spec)
    lhs = _apply(cand, spec)
    assert not equivalent(lhs, spec.result)
    built = sdi_nfa_direct(cand, known).state_count
    assert built == 8782
    assert lhs.state_count < built / 2
    assert lhs._expanded.bit_count() < built / 5


def test_solve_searches_only_part_of_an_unsolvable_candidate():
    known = Nfa.from_words(["ab", "ba", "abb"], AB)
    spec = _spec(UnknownSide.LEFT, SdiVariant.GENERAL, known, blowup(9))
    solution, searched = solve_keeping_the_search_candidate(spec)
    assert not solution.solvable and solution.witness == "a" * 10
    assert searched.state_count < 1404 / 2
    # the whole candidate is built only when read, and is the one `candidate` builds
    assert "candidate" not in vars(solution)
    assert solution.candidate.state_count == 1404
    assert serialize_automaton(solution.candidate) == serialize_automaton(candidate(spec))


def _blowup8_spec():
    """Unsolvable, witness a^9; its whole deletion product has 3,136 states."""
    return _spec(UnknownSide.LEFT, SdiVariant.GENERAL, Nfa.from_words(["ab", "ba", "abb"], AB), blowup(8))


def test_solve_numbers_only_part_of_the_deletion_product(monkeypatch):
    spec = _blowup8_spec()
    traj = named_trajectory("T1").language
    whole = automata._explore(*_deletion_parts(complement(spec.result), spec.known, traj)).state_count
    assert whole == 3136
    numbered = count_numbered(monkeypatch)
    assert solve(spec).witness == "a" * 9
    # the product's keys are the int triples (p, q, r); the SDI construction's are tagged
    product_keys = [key for key in numbered if type(key) is tuple and type(key[0]) is int]
    assert len(product_keys) == 1590 < whole


def test_an_unsolvable_equation_is_answered_within_a_budget_its_deletion_product_exceeds(monkeypatch):
    # the search numbers 1,590 of the product's 3,136 keys
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 2000)
    assert solve(_blowup8_spec()).witness == "a" * 9


def test_a_solvable_solve_numbers_each_deletion_product_key_once(monkeypatch):
    # the search and the built candidate step one folded product
    known = Nfa.from_words(["ab", "ba"], AB)
    spec = _spec(UnknownSide.LEFT, SdiVariant.GENERAL, known, sdi_nfa_direct(blowup(3), known))
    numbered = count_numbered(monkeypatch)
    solution = solve(spec)
    assert solution.solvable and solution.candidate.state_count == 53
    product_keys = [key for key in numbered if type(key) is tuple and type(key[0]) is int]
    assert len(product_keys) == len(set(product_keys)) == 138


def test_the_candidate_fits_a_budget_only_the_folded_deletion_product_fits(monkeypatch):
    # the folded product has 3,008 keys, the product `_explore` builds 3,136 states
    spec = _blowup8_spec()
    assert step_to_the_end(_deletion(spec)) == 3008
    expected = serialize_automaton(candidate(spec))
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 3100)
    solution = solve(spec)
    assert solution.witness == "a" * 9
    assert solution.candidate.state_count == 764
    assert serialize_automaton(solution.candidate) == expected
    # under a budget the folded product exceeds, every read builds afresh and fails alike
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 2000)
    solution = solve(spec)
    for _ in range(2):
        with pytest.raises(ResourceLimitError, match="^exploration exceeded 2000 states$"):
            solution.candidate


def test_a_solvable_solution_carries_its_candidate():
    known = Nfa.from_word("ab", AB)
    spec = _spec(UnknownSide.LEFT, SdiVariant.GENERAL, known, sdi_nfa_direct(known, known))
    solution = solve(spec)
    assert solution.solvable and solution.witness is None
    assert "candidate" in vars(solution)  # built by the solve, under the budget
    assert serialize_automaton(solution.candidate) == serialize_automaton(candidate(spec))


def test_an_unsolvable_answer_needs_only_the_candidate_states_its_witness_reaches(monkeypatch):
    # the deletion product fits in 60 states and the search needs 6; the whole candidate needs 78
    rng = random.Random(74)
    known, result = random_nfa(rng, 2, AB), random_nfa(rng, 4, AB)
    spec = _spec(UnknownSide.LEFT, SdiVariant.GENERAL, known, result)
    assert candidate(spec).state_count == 78
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 60)
    with pytest.raises(ResourceLimitError, match="^exploration exceeded 60 states$"):
        candidate(spec)
    solution = solve(spec)
    assert solution.witness == "aa"
    with pytest.raises(ResourceLimitError, match="^exploration exceeded 60 states$"):
        solution.candidate
