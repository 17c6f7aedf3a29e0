import random

from sdikit import (
    SdiVariant,
    asdi_strings,
    bounded_language_op,
    delete_on_trajectory,
    max_sdi_strings,
    min_sdi_strings,
    scan_member,
    sdi_strings,
    shuffle_on_trajectory,
    unbordered,
)

from sdikit.oracle import _decompositions

from conftest import all_words

GOLDEN_MAX = {"acbabab", "abacbab", "ababacbab"}


def max_sdi_strings_alt(x, y):
    """Maximal variant via the two one-sided conditions: no suffix of x1·u
    longer than u is a prefix of u·z, and no prefix of v·x2 longer than v
    is a suffix of z·v.  A test oracle independent of `max_sdi_strings`."""
    out = set()
    for x1, u, z, v, x2 in _decompositions(x, y):
        uz, zv = u + z, z + v
        left_blocked = any(
            (x1[len(x1) - lp :] + u) == uz[: lp + len(u)]
            for lp in range(1, min(len(x1), len(z)) + 1)
        )
        if left_blocked:
            continue
        right_blocked = any(
            (v + x2[:lq]) == zv[len(zv) - len(v) - lq :]
            for lq in range(1, min(len(x2), len(z)) + 1)
        )
        if not right_blocked:
            out.add(x1 + u + z + v + x2)
    return out


def test_sdi_examples():
    assert sdi_strings("ab", "ab") == {"ab"}
    assert sdi_strings("a", "ab") == set()
    assert "abacbabab" in sdi_strings("ababab", "acbab")


def test_asdi_examples():
    assert asdi_strings("ab", "ab") == {"ab"}
    assert asdi_strings("ab", "acb") == {"acb"}


def test_asdi_specializes_sdi():
    rng = random.Random(41)
    for _ in range(1000):
        x = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        y = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        assert asdi_strings(x, y) <= sdi_strings(x, y)


def test_max_sdi_golden_example():
    assert max_sdi_strings("ababab", "acbab") == GOLDEN_MAX
    assert max_sdi_strings_alt("ababab", "acbab") == GOLDEN_MAX
    assert "abacbabab" not in max_sdi_strings("ababab", "acbab")


def test_max_sdi_unary():
    # |x| >= |y| >= 2 collapses to x itself
    assert max_sdi_strings("aaaa", "aaa") == {"aaaa"}
    # 2 <= |x| < |y| collapses to y
    assert max_sdi_strings("aa", "aaa") == {"aaa"}
    assert max_sdi_strings("a", "aa") == set()


def test_min_sdi_examples():
    assert min_sdi_strings("aa", "aa") == {"aa"}
    assert min_sdi_strings("aaa", "aaaa") == {"aaaaa"}
    assert min_sdi_strings("ab", "acb") == {"acb"}


def test_min_sdi_unary_length():
    for lx in range(2, 6):
        for ly in range(2, 6):
            assert min_sdi_strings("a" * lx, "a" * ly) == {"a" * (lx + ly - 2)}


def test_unbordered():
    assert unbordered("a") and unbordered("ab") and unbordered("aab")
    assert not unbordered("aa") and not unbordered("aba") and not unbordered("abab")


def test_inclusions_all_pairs_to_length_six():
    words = all_words("ab", 6)
    for x in words:
        for y in words:
            general = sdi_strings(x, y)
            maximal = max_sdi_strings(x, y)
            minimal = min_sdi_strings(x, y)
            alpha = asdi_strings(x, y)
            assert maximal <= general
            assert alpha <= minimal <= general
            assert (not general) == (not maximal) == (not minimal)
            assert max_sdi_strings_alt(x, y) == maximal


def test_min_nonempty_with_empty_asdi_witness_exists():
    found = [
        (x, y)
        for x in all_words("ab", 5)
        for y in all_words("ab", 5)
        if min_sdi_strings(x, y) and not asdi_strings(x, y)
    ]
    assert found
    assert ("aba", "aba") in found


def test_shuffle_base_cases():
    assert shuffle_on_trajectory("a", "b", "01") == "ab"
    assert shuffle_on_trajectory("a", "b", "10") == "ba"
    assert shuffle_on_trajectory("ab", "ab", "ss") == "ab"
    assert shuffle_on_trajectory("a", "b", "s") is None
    assert shuffle_on_trajectory("", "", "") == ""
    assert shuffle_on_trajectory("", "", "0") is None
    assert shuffle_on_trajectory("a", "", "0") == "a"
    assert shuffle_on_trajectory("", "a", "1") == "a"


def test_delete_examples():
    assert delete_on_trajectory("abc", "b", "idi") == "ac"
    assert delete_on_trajectory("ab", "ab", "ss") == "ab"
    assert delete_on_trajectory("ab", "b", "dd") is None
    assert delete_on_trajectory("ab", "", "i") is None  # |t| != |x|
    assert delete_on_trajectory("ab", "", "ii") == "ab"


def _sdi_trajectories(xlen, ylen):
    """All words of 0^a s^b 1^c s^d 0^e with b, d >= 1 fitting the lengths."""
    for sync in range(2, min(xlen, ylen) + 1):
        ones = ylen - sync
        zeros = xlen - sync
        for b in range(1, sync):
            d = sync - b
            for a in range(zeros + 1):
                e = zeros - a
                yield "0" * a + "s" * b + "1" * ones + "s" * d + "0" * e


def test_sdi_equals_shuffle_over_sdi_trajectories():
    for x in all_words("ab", 5):
        for y in all_words("ab", 5):
            via_traj = set()
            for t in _sdi_trajectories(len(x), len(y)):
                out = shuffle_on_trajectory(x, y, t)
                if out is not None:
                    via_traj.add(out)
            assert via_traj == sdi_strings(x, y), (x, y)


def test_asdi_equals_shuffle_over_asdi_trajectories():
    # trajectories 0^a s 1^c s 0^e with a+2+e = |x| and c = |y|-2
    for x in all_words("ab", 4):
        for y in all_words("ab", 4):
            via_traj = set()
            if len(x) >= 2 and len(y) >= 2:
                ones = len(y) - 2
                for a in range(len(x) - 1):
                    t = "0" * a + "s" + "1" * ones + "s" + "0" * (len(x) - 2 - a)
                    out = shuffle_on_trajectory(x, y, t)
                    if out is not None:
                        via_traj.add(out)
            assert via_traj == asdi_strings(x, y), (x, y)


def test_bounded_language_op():
    assert bounded_language_op(SdiVariant.GENERAL, {"ab"}, set()) == set()
    assert bounded_language_op(SdiVariant.GENERAL, {"ab"}, {"ab"}) == {"ab"}
    both = bounded_language_op(SdiVariant.MAXIMAL, {"ababab"}, {"acbab"})
    assert both == {"acbabab", "abacbab", "ababacbab"}


def test_scan_member_single_words():
    assert scan_member(SdiVariant.MAXIMAL, "abacbab", {"ababab"}, {"acbab"})
    assert not scan_member(SdiVariant.MAXIMAL, "abacbabab", {"ababab"}, {"acbab"})
    assert scan_member(SdiVariant.GENERAL, "abacbabab", {"ababab"}, {"acbab"})
