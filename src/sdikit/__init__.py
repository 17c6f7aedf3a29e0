"""Regular-language toolkit for site-directed insertion and friends.

Core automata algebra, definition-literal string oracles, trajectory
shuffle/deletion constructions, direct insertion constructions, decision
procedures, a one-variable language-equation solver and a nondeterministic
state-complexity harness, all cross-validated against each other.
"""

from .automata import (
    Alphabet,
    DEFAULT_STATE_CAP,
    Dfa,
    InputError,
    Nfa,
    ResourceLimitError,
    Word,
    canonicalize,
    complement,
    determinize,
    enumerate_language,
    equivalence_witness,
    equivalent,
    inclusion_witness,
    is_deterministic,
    is_empty,
    is_finite_language,
    is_subset,
    length_lex_words,
    membership,
    product_intersection,
    shortest_word,
    trim,
    union_all,
)
from .complexity import (
    FoolingCheck,
    FoolingSet,
    SizeAudit,
    fooling_set_check,
    fooling_set_search,
    random_nfa,
    size_audit,
)
from .constructions import (
    asdi_nfa_direct,
    bounded_insertion_words,
    finite_into_regular,
    insertion_nfa,
    max_sdi_membership,
    max_sdi_single_nfa,
    min_sdi_membership,
    min_sdi_single_nfa,
    regular_max_sdi_finite,
    sdi_nfa_direct,
)
from .decide import (
    DecisionReport,
    closed_under_finite_maxmin,
    closure_counterexample_search,
    is_closed_under_sdi,
    is_free,
    is_independent,
    two_var_solvable,
)
from .equations import (
    EquationResourceError,
    EquationSolution,
    EquationSpec,
    UnknownSide,
    candidate,
    solve,
    verify_solution,
)
from .oracle import (
    SdiVariant,
    asdi_strings,
    bounded_language_op,
    delete_on_trajectory,
    max_sdi_strings,
    min_sdi_strings,
    scan_language,
    scan_member,
    sdi_strings,
    shuffle_on_trajectory,
    unbordered,
)
from .trajectories import (
    NAMED_TRAJECTORIES,
    NamedTrajectory,
    TrajectoryKind,
    TrajectoryLanguage,
    deletion_nfa,
    named_trajectory,
    shuffle_nfa,
)

__version__ = "0.1.0"
