"""Pinned serialized output of every reachable-state construction.

`serialize_automaton` renumbers states breadth-first, but it visits the
nondeterministic successors of a state in the order of their ids in the
built automaton, so these bytes change whenever a construction numbers
its states differently.  Each case builds one automaton from fixed,
seeded inputs; its sha256 digest is pinned below.

The digests were printed by `PYTHONPATH=src python tests/test_golden.py`
at the commit before the shared exploration kernel, when every builder
still ran its own worklist, and they are unchanged since.  The
`sdi_nfa_direct_r30` digest (164k transitions; every other case is
built from operands of at most 9 states) was printed the same way at
the commit before the serializer streamed its rows from the successor
table.  The two `complement_*` digests were printed from
`complement(determinize(x))` at the commit before `complement` took any
NFA through the one subset construction.  The six `max_sdi_single_*` /
`min_sdi_single_*` digests with a suffix and `regular_min_sdi_finite`
were printed at the commit before the maximal and minimal single-word
constructions became one walk.  Regenerate them only for a
deliberate change of numbering.
"""

import hashlib
import random

import pytest

from sdikit import (
    SdiVariant,
    asdi_nfa_direct,
    candidate,
    complement,
    deletion_nfa,
    determinize,
    finite_into_regular,
    max_sdi_single_nfa,
    min_sdi_single_nfa,
    named_trajectory,
    product_intersection,
    regular_max_sdi_finite,
    sdi_nfa_direct,
    shuffle_nfa,
    union_all,
)
from sdikit.complexity import random_nfa
from sdikit.equations import EquationSpec, UnknownSide
from sdikit.textio import serialize_automaton

from conftest import AB, blowup, plain_shuffle


def _rand(seed, n, density=0.3):
    return random_nfa(random.Random(seed), n, AB, density=density)


def _traj(name):
    return named_trajectory(name).language


CASES = {
    "determinize_blowup6": lambda: determinize(blowup(6)),
    "determinize_random": lambda: determinize(_rand(1, 9)),
    "complement_random": lambda: complement(_rand(49, 9, 0.15)),  # partial: gains a sink
    "complement_blowup": lambda: complement(blowup(5)),
    "product_intersection": lambda: product_intersection(_rand(2, 7), _rand(3, 6)),
    "union": lambda: union_all([_rand(4, 4), _rand(5, 5)], AB),
    "union_all": lambda: union_all([_rand(6, 3), _rand(7, 4), _rand(8, 3)], AB),
    "shuffle_plain": lambda: shuffle_nfa(_rand(9, 4), _rand(10, 4), plain_shuffle()),
    "shuffle_T_sdi": lambda: shuffle_nfa(_rand(11, 4), _rand(12, 3), _traj("T_sdi")),
    "shuffle_T_asdi": lambda: shuffle_nfa(_rand(13, 4), _rand(14, 3), _traj("T_asdi")),
    "deletion_T1": lambda: deletion_nfa(_rand(16, 5, 0.4), _rand(17, 3, 0.4), _traj("T1")),
    "deletion_T1a": lambda: deletion_nfa(_rand(17, 5, 0.4), _rand(18, 3, 0.4), _traj("T1a")),
    "deletion_T2": lambda: deletion_nfa(_rand(19, 5), _rand(20, 3), _traj("T2")),
    "deletion_T2a": lambda: deletion_nfa(_rand(21, 5), _rand(22, 3), _traj("T2a")),
    "sdi_nfa_direct": lambda: sdi_nfa_direct(_rand(23, 5), _rand(24, 4)),
    "sdi_nfa_direct_require": lambda: sdi_nfa_direct(_rand(23, 5), _rand(24, 4), True),
    "asdi_nfa_direct": lambda: asdi_nfa_direct(_rand(25, 5), _rand(26, 4)),
    "asdi_nfa_direct_require": lambda: asdi_nfa_direct(_rand(25, 5), _rand(26, 4), True),
    # the size of a 30-state `op --variant sdi --out` request: 2,760 states
    "sdi_nfa_direct_r30": lambda: sdi_nfa_direct(_rand(40, 30, 0.15), _rand(41, 30, 0.15)),
    "max_sdi_single": lambda: max_sdi_single_nfa(_rand(27, 4, 0.35), "abaab"),
    "min_sdi_single": lambda: min_sdi_single_nfa(_rand(28, 4, 0.35), "abaab"),
    "regular_max_sdi_finite": lambda: regular_max_sdi_finite(
        _rand(29, 3, 0.5), ["ab", "aab", "bab"], SdiVariant.MAXIMAL
    ),
    # |y| = 2 keeps an empty window; aaaa and aabaa are bordered
    "max_sdi_single_ab": lambda: max_sdi_single_nfa(_rand(34, 4, 0.4), "ab"),
    "max_sdi_single_aaaa": lambda: max_sdi_single_nfa(_rand(33, 4, 0.4), "aaaa"),
    "max_sdi_single_aabaa": lambda: max_sdi_single_nfa(_rand(33, 4, 0.4), "aabaa"),
    "min_sdi_single_ab": lambda: min_sdi_single_nfa(_rand(34, 4, 0.4), "ab"),
    "min_sdi_single_aaaa": lambda: min_sdi_single_nfa(_rand(33, 4, 0.4), "aaaa"),
    "min_sdi_single_aabaa": lambda: min_sdi_single_nfa(_rand(33, 4, 0.4), "aabaa"),
    "regular_min_sdi_finite": lambda: regular_max_sdi_finite(
        _rand(37, 3, 0.5), ["ab", "aab", "bab", "aaaa", "aabaa"], SdiVariant.MINIMAL
    ),
    "finite_into_regular_max": lambda: finite_into_regular(
        SdiVariant.MAXIMAL, ["abab", "aab"], _rand(30, 4)
    ),
    "finite_into_regular_min": lambda: finite_into_regular(
        SdiVariant.MINIMAL, ["abab", "aab"], _rand(31, 4)
    ),
    "equation_candidate": lambda: candidate(
        EquationSpec(UnknownSide.LEFT, SdiVariant.GENERAL, _rand(32, 2), blowup(3))
    ),
}

GOLDEN = {
    "determinize_blowup6": "a127540f481b64beaadfc0d1ae4bf5401fcd3267feee5c8127238a807bb77339",
    "determinize_random": "56e226d1046b1ef4e3a465d3c7215275786a14c16232bffb4dac2945178922f1",
    "complement_random": "ec7f07bc28468d2e5ee63cb2e0d8a76dc5d13b85b937e47e2e6f49ecb949a795",
    "complement_blowup": "0781d5f265a40261b43b0c44bb97d84d93140c9c9c825649d80c38a5c3845dad",
    "product_intersection": "9a0754cd66deff140ef0752cb23b633d05d478589e782f724793de1e8f7e91d6",
    "union": "497a6aca07c17cf93aad7a2ebab8d48e571f76ab29fec9f0cf1e785b2c4a1c4b",
    "union_all": "ab04d76c762df86d55ed96817b939817cfe2dd418355b7125d6dfc1445e828e4",
    "shuffle_plain": "792243c255c46882e802824ca6099d63c8fc36d27b4edb68b4ac82e6092a905b",
    "shuffle_T_sdi": "8fd7951677f36c8b31306d43567b60402ad2cc6c51be97b2f820a593506f7ee4",
    "shuffle_T_asdi": "077a6bc6790e0c073453367cc366cefc390271dfc43d32fd9cecde81d6bcb139",
    "deletion_T1": "57222e07e8ac8175ac58e73f11a5a356e6e0c7ec9dc98ddc718c9884858f2b0a",
    "deletion_T1a": "6b9915d4f29e976bf0931f20b0a7b87e11c210f7fbcb6a6d26ae8f3fdf929f9b",
    "deletion_T2": "08b7abfa4c61fac1fcf623937bb0dc66a1a537ac67f5fa3c8e2118f898e5471c",
    "deletion_T2a": "d5b0f8528e0bc95418722d20fe0ec02c4fa603c2a5b2fcc6f20cabfd6fa9fe22",
    "sdi_nfa_direct": "0528ea6e92ecdc9a099305a0f3b76a4a6d0fce4e67737abf6bb5e9359a60b2f1",
    "sdi_nfa_direct_require": "12d9752ef8a3c17dcead145d976446d69192a716eb4d3880069e2ca3e4a10266",
    "asdi_nfa_direct": "aff165d553995d8db4ae5dc5b7a20b1ccfafdbb6003945dea11322c8937489d9",
    "asdi_nfa_direct_require": "d3faa9b186898e3387a9975c9cf24ade4e9fcdbad5b4a6787747da571dd19de3",
    "sdi_nfa_direct_r30": "249d7a454e1a59a6145acbd5d0a677a4ef7ad98a915d3640c21855ac2d98765d",
    "max_sdi_single": "c18eeb63d1c9a2852e26fdc93047c0150e19e6566e3a437c558907e1dbc391a9",
    "min_sdi_single": "73e503a6f49aa1dd37320152541cd56c9ab022864aa5b189e61aa20f41a32dfe",
    "regular_max_sdi_finite": "192da63dad1e0d9dacf2a7bada99b1ef2ff61e3250f02d326a1e709e6b032c4f",
    "max_sdi_single_ab": "7d8ff2c63db9442029bd53b756f7885ec2df4db2f82cd54acb5040c516789d33",
    "max_sdi_single_aaaa": "33ba66f374bd02a3773c70a8591b961632479fa577753d273c7deaedeec31529",
    "max_sdi_single_aabaa": "9eb407a8190752e0c19fecd29714037172aac7d3d4030dd6fccdab46ea1c7335",
    "min_sdi_single_ab": "7d8ff2c63db9442029bd53b756f7885ec2df4db2f82cd54acb5040c516789d33",
    "min_sdi_single_aaaa": "7a31cbf7c15f016745a93d096e62b9d5907ec47750cb9716bdf638d5f23de48f",
    "min_sdi_single_aabaa": "fe66d4913cbb09ab0cacea612a70b9beebadb7b7ac61ae5594ac0f46cf2fd1e4",
    "regular_min_sdi_finite": "b1e5a05278ca5694c30ed8687212372bdd20d4b6c5a2ba5d1ef39c0c3e56c611",
    "finite_into_regular_max": "dec8e04ad7d694a99101f520a16eb9a3628b925a5f029e774280ad10e8910c3f",
    "finite_into_regular_min": "3226bc87d7658b4e836517ca168711c0ef0b7e6ddb8e0e34d054dba7c27ad225",
    "equation_candidate": "0aa5e80c116f29923785979c39904d3b26a3a39b826fc63c07633b0c31bca9e7",
}


def _digest(a):
    return hashlib.sha256(serialize_automaton(a).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_serialized_construction_is_pinned(name):
    assert _digest(CASES[name]()) == GOLDEN[name]


if __name__ == "__main__":
    for case, build in CASES.items():
        print(f'    "{case}": "{_digest(build())}",')
