"""
Acceptance suite: one test per criterion, each asserting exact values
and (where specified) wall-clock budgets.

One test (criterion 8, the conjecture harness) is expected to fail: four
conjectured identities have counterexamples, listed in its assertion
message.  Criterion 6 records a discrepancy with the published sources as
a passing check: it asserts the computed det(I - x B_5) and that the
published t = 5 recurrence contradicts the published t = 5 counts.  The
implementation side of each discrepancy is independently cross-verified
elsewhere in this suite.
"""
import time

import pytest

from lexcount import verify
from lexcount.engine import count_avoiders, count_extensions
from lexcount.formulas import (catalan, count_2143_closed, fuss_catalan,
                               hook_count, inv_bounds_1243)
from lexcount.gentree import count_at_depth
from lexcount.paths import enumerate_12354_paths, enumerate_jk
from lexcount.polys import degree, poly
from lexcount.posets import build
from lexcount.qstats import stat_gf
from lexcount.transfer import (b_matrix, char_poly, count_2143,
                               recurrence_extend)

# |NE_{s,t}(123)|, rows s = 1..7, columns t = 1..6 (None: st > 20,
# outside the desk-scale budget)
TABLE_NE123 = {
    (1, 1): 1, (1, 2): 1, (1, 3): 1, (1, 4): 1, (1, 5): 1, (1, 6): 1,
    (2, 1): 1, (2, 2): 2, (2, 3): 5, (2, 4): 14, (2, 5): 42, (2, 6): 132,
    (3, 1): 1, (3, 2): 5, (3, 3): 33, (3, 4): 234, (3, 5): 1706,
    (3, 6): 12618,
    (4, 1): 1, (4, 2): 14, (4, 3): 238, (4, 4): 4146, (4, 5): 72152,
    (5, 1): 1, (5, 2): 42, (5, 3): 1782, (5, 4): 75187,
    (6, 1): 1, (6, 2): 132, (6, 3): 13593,
    (7, 1): 1, (7, 2): 429,
}

# |EN_{s,t}(2143)|, rows s = 1..6, columns t = 1..5
TABLE_2143 = {
    (1, 1): 1, (1, 2): 1, (1, 3): 1, (1, 4): 1, (1, 5): 1,
    (2, 1): 1, (2, 2): 2, (2, 3): 5, (2, 4): 14, (2, 5): 42,
    (3, 1): 1, (3, 2): 4, (3, 3): 21, (3, 4): 121, (3, 5): 728,
    (4, 1): 1, (4, 2): 8, (4, 3): 89, (4, 4): 1094, (4, 5): 14041,
    (5, 1): 1, (5, 2): 16, (5, 3): 377, (5, 4): 9841, (5, 5): 266110,
    (6, 1): 1, (6, 2): 32, (6, 3): 1597, (6, 4): 88574, (6, 5): 5057369,
}

# minimum-maximum inversion numbers over EN_{s,t}(1243), s, t <= 4
TABLE_INV_BOUNDS = {
    (1, 1): (0, 0), (1, 2): (0, 0), (1, 3): (0, 0), (1, 4): (0, 0),
    (2, 1): (1, 1), (2, 2): (3, 4), (2, 3): (7, 9), (2, 4): (13, 16),
    (3, 1): (3, 3), (3, 2): (9, 12), (3, 3): (21, 27), (3, 4): (39, 48),
    (4, 1): (6, 6), (4, 2): (18, 24), (4, 3): (42, 54), (4, 4): (78, 96),
}


def shapes(max_n, min_s=1, min_t=1):
    return [(s, t) for s in range(min_s, max_n + 1)
            for t in range(min_t, max_n // s + 1)]


def test_criterion_1_ne123_table():
    start = time.monotonic()
    for (s, t), expected in TABLE_NE123.items():
        got = count_avoiders(build("NE", s, t), [(1, 2, 3)])
        assert got == expected, f"NE({s},{t})(123): got {got}, table says {expected}"
    assert time.monotonic() - start < 120


def test_criterion_2_2143_three_routes():
    start = time.monotonic()
    for (s, t), expected in TABLE_2143.items():
        tm = count_2143(s, t)
        assert tm == expected, f"transfer EN({s},{t})(2143): {tm} != {expected}"
        if t <= 4:
            cf = count_2143_closed(s, t)
            assert cf == expected, f"closed form ({s},{t}): {cf} != {expected}"
        if s * t <= 20:
            oracle = count_avoiders(build("EN", s, t), [(2, 1, 4, 3)])
            assert oracle == expected, f"oracle ({s},{t}): {oracle} != {expected}"
    assert time.monotonic() - start < 60


def test_criterion_3_hook_product():
    for s, t in shapes(16):
        assert hook_count(s, t) == count_extensions(build("EN", s, t)), (s, t)
    for n in range(1, 11):
        assert hook_count(2, n) == catalan(n)


def test_criterion_4_fuss_catalan_triple():
    start = time.monotonic()
    for t in range(1, 7):
        for s in range(0, 11):
            assert count_at_depth(t, s) == fuss_catalan(s, t), (s, t)
    for s, t in shapes(16):
        oracle = count_avoiders(build("EN", s, t), [(1, 2, 4, 3)])
        assert oracle == fuss_catalan(s, t), (s, t)
    assert time.monotonic() - start < 60


def test_criterion_5_bijection_roundtrips():
    result = verify.check_bijections(12)
    assert result.ok, result.detail


def test_criterion_6_b_matrix_and_char_poly():
    for n in range(1, 8):
        bm = b_matrix(n)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                assert bm[j - 1][k - 1] == enumerate_jk(n, j, k), (n, j, k)
    identities = verify.check_b_matrix(max_n=10, oracle_n=1)
    assert identities.ok, identities.detail

    assert char_poly(2) == (1, -2)
    assert char_poly(3) == (1, -4, -1)
    assert char_poly(4) == (1, -8, -9)

    # The published t = 5 recurrence is a_n = 16a_{n-1} + 3a_{n-2}
    # - 235a_{n-3} + 36a_{n-4}, i.e. characteristic polynomial
    # 1 - 16x - 3x^2 + 235x^3 - 36x^4.  It contradicts the published
    # t = 5 column 1, 42, 728, 14041, 266110, 5057369 (whose first four
    # terms criterion 2 checks against the oracle, and whose s = 5 term
    # 266110 the oracle also gives on EN:5x5): from those four terms it
    # predicts 16*14041 + 3*728 - 235*42 + 36*1 = 217006 at s = 5.  The
    # determinant det(I - x B_5) computed here (Faddeev-LeVerrier,
    # cross-checked by cofactor expansion) is 1 - 16x - 57x^2 + x^3, and
    # its recurrence a_n = 16a_{n-1} + 57a_{n-2} - a_{n-3} reproduces the
    # whole column.  The published coefficients are kept below, and the
    # discrepancy is asserted rather than papered over.
    column = [TABLE_2143[(s, 5)] for s in range(1, 7)]
    published = poly((1, -16, -3, 235, -36))
    computed = char_poly(5)
    assert computed == (1, -16, -57, 1), (
        f"det(I - x*B_5) computed as {computed}, expected 1 - 16x - 57x^2 "
        f"+ x^3 (recurrence a_n = 16a_(n-1) + 57a_(n-2) - a_(n-3))")
    extended = recurrence_extend(column[:3], computed, 3)
    assert list(extended) == column, (
        f"the recurrence of det(I - x*B_5) = {computed} extends "
        f"{column[:3]} to {extended}, not the published t = 5 column "
        f"{column}")
    predicted = recurrence_extend(column[:4], published, 1)[-1]
    assert predicted != TABLE_2143[(5, 5)], (
        f"the published recurrence {published} reproduces the published "
        f"count {TABLE_2143[(5, 5)]} at (5, 5); it was expected to "
        f"contradict it (giving 217006)")


def test_criterion_7_q_identities():
    start = time.monotonic()
    r61 = verify.check_thm61(7)
    assert r61.ok, r61.detail
    r62 = verify.check_thm62(14)
    assert r62.ok, r62.detail
    for s in range(1, 5):
        for t in range(1, 5):
            gf = stat_gf(build("EN", s, t), [(1, 2, 4, 3)], "inv")
            lo = next(k for k, c in enumerate(gf) if c)
            hi = degree(gf)
            assert (lo, hi) == TABLE_INV_BOUNDS[(s, t)], (s, t)
            assert (lo, hi) == inv_bounds_1243(s, t), (s, t)
    assert time.monotonic() - start < 120


def test_criterion_8_conjecture_harness():
    # Any inconsistency in the conjecture suite is a hard failure here.
    # Four clauses fail, each with a concrete counterexample that was
    # confirmed by direct enumeration:
    #   * the three-row inversion polynomial for 1243 fails at every t
    #     (already at q = 1 the claimed product has (2t-1)(4t-1) terms
    #     but there are (2t-1)(3t-2) extensions);
    #   * the claimed q^2 coefficient s(s+3)/2 of F_s (actual
    #     (s-1)(s+2)/2) and the claimed q^(s+1) coefficient
    #     binomial(2s+1, s-1) both fail from s = 2 on;
    #   * maj max = 2 min fails on the single-column shapes t = 1, where
    #     min = max = binomial(s, 2).
    failures = []
    for result in [verify.conj_2143_t2(6), verify.conj_2143_t3(5),
                   verify.conj_1243_rows3(3),
                   *verify.conj_F_coefficients(10),
                   verify.conj_maj_identities(6),
                   verify.conj_maj_ratio_1243(12)]:
        if not result.ok:
            failures.append(f"{result.name}: {result.detail}")
    assert not failures, "counterexamples found:\n" + "\n".join(failures)


def test_criterion_9_12354_paths():
    for s, t in shapes(12, min_t=2):
        lhs = enumerate_12354_paths(s, t)
        rhs = count_avoiders(build("EN", s, t), [(1, 2, 3, 5, 4)])
        assert lhs == rhs, (s, t, lhs, rhs)
