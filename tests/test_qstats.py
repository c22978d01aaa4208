from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from lexcount import verify
from lexcount.engine import avoiders
from lexcount.formulas import catalan, fibonacci
from lexcount.perms import inv, maj
from lexcount.polys import (add, degree, is_unimodal, monomial,
                            reverse_on_degree)
from lexcount.posets import GridPoset, build
from test_engine import _patterns, _posets, cyclic_poset, cyclic_posets
from lexcount.qstats import (TWO_LINE, F_poly, catalan_words,
                             conj_1243_rhs, conj_2143_t2_rhs,
                             conj_2143_t3_rhs, f_coeff_export,
                             maj_q_catalan, q_catalan,
                             q_catalan_by_words, q_catalan_tilde, q_int,
                             stat_gf, thm61_rhs, thm62_rhs)


class TestQCatalan:
    def test_words(self):
        assert list(catalan_words(2)) == [(0, 0, 1, 1), (0, 1, 0, 1)]
        for n in range(6):
            assert sum(1 for _ in catalan_words(n)) == catalan(n)

    def test_small_polys(self):
        assert q_catalan(0) == (1,)
        assert q_catalan(2) == (1, 1)
        assert q_catalan(3) == (1, 1, 2, 1)

    def test_recurrence_matches_words(self):
        for n in range(8):
            assert q_catalan(n) == q_catalan_by_words(n)

    @pytest.mark.parametrize("f", [q_catalan, q_catalan_by_words,
                                   maj_q_catalan])
    def test_negative_n_rejected(self, f):
        with pytest.raises(ValueError, match="non-negative"):
            f(-1)

    def test_specializes_to_catalan(self):
        for n in range(10):
            assert sum(q_catalan(n)) == catalan(n)
            assert sum(maj_q_catalan(n)) == catalan(n)

    def test_tilde(self):
        assert q_catalan_tilde(3) == (1, 2, 1, 1)
        for n in range(7):
            assert q_catalan_tilde(n) == reverse_on_degree(
                q_catalan(n), comb(n, 2))

    def test_maj_variant(self):
        assert maj_q_catalan(2) == (1, 0, 1)
        assert sum(maj_q_catalan(4)) == 14

    def test_q_int(self):
        assert q_int(1) == (1,)
        assert q_int(4) == (1, 1, 1, 1)
        with pytest.raises(ValueError):
            q_int(0)


class TestStatGf:
    def test_empty_result(self):
        assert stat_gf(build("EN", 3, 3), [(2, 1, 3), (1, 2, 3)]) == ()

    def test_inv_on_small_grid(self):
        # the two 123-avoiding extensions of the EN 2x2 grid have 3 and 4
        # inversions
        assert stat_gf(build("EN", 2, 2), [(1, 2, 3)]) == (0, 0, 0, 1, 1)

    def test_unknown_stat_rejected(self):
        with pytest.raises(KeyError):
            stat_gf(build("EN", 2, 2), [], stat="des")
        with pytest.raises(KeyError):  # before the pattern is looked at
            stat_gf(build("EN", 2, 2), [(1, 3)], stat="des")


def enumerated_gf(poset, patterns, stat):
    """Reference: q^stat summed over the listed avoiders."""
    f = {"inv": inv, "maj": maj}[stat]
    out = ()
    for pi in avoiders(poset, patterns):
        out = add(out, monomial(f(pi)))
    return out


class TestStatGfDP:
    """stat_gf (the avoider DP with q-weights) against enumeration."""

    @given(_posets, _patterns, st.sampled_from(["inv", "maj"]))
    @settings(max_examples=150, deadline=None)
    def test_matches_enumeration(self, poset, patterns, stat):
        assert (stat_gf(poset, patterns, stat)
                == enumerated_gf(poset, patterns, stat))

    @pytest.mark.parametrize("stat", ["inv", "maj"])
    def test_edge_cases(self, stat):
        assert stat_gf(build("EN", 2, 2), [()], stat) == ()
        assert stat_gf(GridPoset("EN", 0, 1), [], stat) == (1,)
        assert stat_gf(GridPoset("EN", 0, 1), [(1,)], stat) == (1,)
        assert stat_gf(build("NE", 2, 3), [(1,)], stat) == ()

    def test_cycle_detected(self):
        for poset in cyclic_posets():
            for stat in ("inv", "maj"):
                with pytest.raises(ValueError, match="cycle"):
                    stat_gf(poset, [(1, 2, 3)], stat)

    @pytest.mark.parametrize("stat", ["inv", "maj"])
    def test_cycle_detected_with_the_empty_pattern(self, stat):
        with pytest.raises(ValueError, match="cycle"):
            stat_gf(cyclic_poset(), [()], stat)

    def test_en_5x5_2143(self):
        gf = stat_gf(build("EN", 5, 5), [(2, 1, 4, 3)], "inv")
        assert sum(gf) == 266110


class TestClosedForms:
    @pytest.mark.parametrize("case,maker", [
        ("i", lambda n, stat: stat_gf(build("EN", 2, n), [(3, 2, 1)], stat)),
        ("ii", lambda n, stat: stat_gf(build("EN", n, 2), [(1, 2, 3)], stat)),
        ("iii", lambda n, stat: stat_gf(build("NE", n, 2), [(1, 2, 3)], stat)),
        ("iv", lambda n, stat: stat_gf(build("NE", 2, n), [(1, 2, 3)], stat)),
    ])
    def test_two_line_identities(self, case, maker):
        for n in range(1, 5):
            assert thm61_rhs(case, n) == maker(n, "inv"), (case, n)
            assert TWO_LINE[case].maj(n) == maker(n, "maj"), (case, n)

    def test_213_product_form(self):
        assert thm62_rhs(2, 3) == tuple([0] * 13 + [1, 1, 1])
        for s in range(1, 4):
            for t in range(1, 5):
                if s * t > 10:
                    continue
                assert thm62_rhs(s, t) == stat_gf(
                    build("NE", s, t), [(2, 1, 3)]), (s, t)

    def test_bad_case_rejected(self):
        with pytest.raises(ValueError, match="case must be one of"):
            thm61_rhs("v", 2)

    @pytest.mark.parametrize("form,args,message", [
        (thm61_rhs, ("i", 0), "need size >= 1"),
        (thm61_rhs, ("iv", -1), "need size >= 1"),
        (thm62_rhs, (0, 3), "need s >= 1 and t >= 1"),
        (thm62_rhs, (3, 0), "need s >= 1 and t >= 1"),
        (thm62_rhs, (-1, 2), "need s >= 1 and t >= 1"),
        (conj_2143_t2_rhs, (0,), "need s >= 1"),
        (conj_2143_t3_rhs, (0,), "need s >= 1"),
        (conj_1243_rhs, (0,), "need t >= 1"),
    ])
    def test_empty_shapes_rejected(self, form, args, message):
        with pytest.raises(ValueError, match=message):
            form(*args)


class TestFPoly:
    def test_small_values(self):
        assert F_poly(0) == (1,)
        assert F_poly(1) == (1,)
        assert F_poly(2) == (1, 1, 2, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            F_poly(-1)

    def test_specializes_to_fibonacci(self):
        for s in range(1, 12):
            assert sum(F_poly(s)) == fibonacci(3 * s - 1)

    def test_degree_and_ends(self):
        for s in range(2, 10):
            f = F_poly(s)
            assert degree(f) == 2 * s - 1
            assert f[0] == 1
            assert f[-1] == 2 ** (s - 2)

    def test_unimodal(self):
        for s in range(12):
            assert is_unimodal(F_poly(s))


class TestConjecturedForms:
    def test_t2_rhs_matches_enumeration(self):
        for s in range(1, 6):
            assert conj_2143_t2_rhs(s) == stat_gf(
                build("EN", s, 2), [(2, 1, 4, 3)]), s

    def test_t3_rhs_matches_enumeration(self):
        for s in range(1, 5):
            assert conj_2143_t3_rhs(s) == stat_gf(
                build("EN", s, 3), [(2, 1, 4, 3)]), s

    def test_1243_rhs_shape(self):
        rhs = conj_1243_rhs(2)
        assert sum(rhs) == 3 * 7
        assert rhs[9] == 1  # leading shift is 3(t^2 - t + 1) = 9

    def test_f_coeff_export_shape(self):
        rows = f_coeff_export(6)
        assert len(rows) == 5
        for row in rows:
            assert set(row) == {"coefficient", "reference", "first_s", "values"}
            assert len(row["values"]) == 5


class TestVerifySuites:
    def test_theorem_suite_all_green(self):
        results = verify.theorem_checks(fast=True)
        bad = [r.name for r in results if not r.ok]
        assert not bad, bad

    def test_conjecture_suite_statuses(self):
        results = verify.conjecture_checks(fast=True)
        by_name = {r.name: r for r in results}
        assert by_name["two-column 2143 inversion polynomial"].ok
        assert by_name["three-column 2143 inversion polynomial"].ok
        assert by_name["two-line major-index polynomials"].ok
        # the known failures are reported as counterexamples, with
        # witnesses in the detail field
        failing = [
            "three-row odd-column 1243 inversion polynomial",
            "F q^2-coefficient s(s+3)/2",
            "F q^(s+1)-coefficient binomial(2s+1,s-1)",
            "1243 major-index max = 2 min",
        ]
        for name in failing:
            assert by_name[name].status == "counterexample", name
            assert by_name[name].detail, name
