import pytest
from hypothesis import given, settings, strategies as st

from lexcount import verify
from lexcount.engine import count_avoiders
from lexcount.formulas import (CLOSED_FORMS, catalan, count_2143_closed,
                               count_formula, fibonacci, fuss_catalan,
                               hook_count, inv_bounds_1243)
from lexcount.perms import rc_closure_key
from lexcount.posets import build, canonicalize

# the closed forms of the paper, written out apart from the table
CASES = [
    ("EN", {(2, 1, 3)}), ("EN", {(2, 3, 1)}), ("EN", {(3, 2, 1)}),
    ("EN", {(1, 2, 3)}), ("EN", {(1, 2, 4, 3)}), ("EN", {(2, 1, 4, 3)}),
    ("NE", {(2, 1, 3)}), ("NE", {(2, 1, 3), (1, 2, 3)}),
    ("NE", {(2, 1, 3), (1, 3, 2)}), ("NE", {(3, 1, 2)}),
    ("NE", {(1, 2, 3)}),
]


class TestSequences:
    def test_catalan(self):
        assert [catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]

    def test_fibonacci(self):
        assert [fibonacci(n) for n in range(9)] == [0, 1, 1, 2, 3, 5, 8, 13, 21]
        assert fibonacci(8) == 21

    def test_fuss_catalan(self):
        assert fuss_catalan(4, 3) == 55
        assert fuss_catalan(0, 5) == 1
        for s in range(11):
            assert fuss_catalan(s, 2) == catalan(s)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            catalan(-1)
        with pytest.raises(ValueError):
            fibonacci(-2)
        with pytest.raises(ValueError):
            fuss_catalan(2, 0)


class TestHookCount:
    def test_known_values(self):
        assert hook_count(2, 2) == 2
        assert hook_count(4, 3) == 462
        for n in range(1, 8):
            assert hook_count(n, 1) == 1

    @pytest.mark.parametrize("s,t", [(0, 3), (3, 0), (0, 0)])
    def test_empty_shapes_rejected(self, s, t):
        with pytest.raises(ValueError, match="need s >= 1 and t >= 1"):
            hook_count(s, t)

    def test_symmetry(self):
        for s in range(1, 9):
            for t in range(1, 9):
                assert hook_count(s, t) == hook_count(t, s)

    def test_two_row_case_is_catalan(self):
        for n in range(1, 11):
            assert hook_count(2, n) == catalan(n)

    @pytest.mark.parametrize("s,t", [(s, t) for s in range(1, 5)
                                     for t in range(1, 5) if s * t <= 16])
    def test_agrees_with_enumeration(self, s, t):
        assert hook_count(s, t) == count_avoiders(build("EN", s, t), [])


class TestDispatcher:
    def test_en_213(self):
        res = count_formula(canonicalize("EN", 5, 7, [(2, 1, 3)]))
        assert res.value == 1 and res.provenance == "Thm3.1"

    def test_ne_213(self):
        res = count_formula(canonicalize("NE", 4, 3, [(2, 1, 3)]))
        assert res.value == 27 and res.provenance == "Thm3.5"

    def test_en_2143_t4(self):
        res = count_formula(canonicalize("EN", 3, 4, [(2, 1, 4, 3)]))
        assert res.value == 121 and res.provenance == "Thm5.9iv"

    def test_en_1243(self):
        res = count_formula(canonicalize("EN", 4, 3, [(1, 2, 4, 3)]))
        assert res.value == 55 and res.provenance == "Cor4.6"

    def test_empty_pattern_set_uses_hook_count(self):
        res = count_formula(canonicalize("NE", 3, 4, []))
        assert res.value == hook_count(3, 4)

    def test_rc_closure_doubles_coverage(self):
        # 132 is the reverse-complement of 213, so it resolves to the
        # same one-extension result
        res = count_formula(canonicalize("EN", 3, 3, [(1, 3, 2)]))
        assert res is not None and res.value == 1

    def test_open_case_declines(self):
        assert count_formula(canonicalize("NE", 3, 3, [(1, 2, 3)])) is None
        assert count_formula(canonicalize("EN", 3, 3, [(1, 3, 2, 4)])) is None

    @pytest.mark.parametrize("family,pats", CASES)
    def test_every_case_matches_oracle(self, family, pats):
        for s in range(1, 5):
            for t in range(1, 5):
                if s * t > 12:
                    continue
                res = count_formula(canonicalize(family, s, t, pats))
                if res is None:
                    continue
                assert res.value == count_avoiders(build(family, s, t), pats), \
                    (family, s, t, pats)

    def test_cases_are_the_table_keys(self):
        assert CASES == [(family, set(pats)) for family, pats in CLOSED_FORMS]

    def test_closure_keys_are_distinct(self):
        # two rows with one key would leave one of them unreachable
        keys = {(family, rc_closure_key(pats))
                for family, pats in CLOSED_FORMS}
        assert len(keys) == len(CLOSED_FORMS)

    @pytest.mark.parametrize("row", list(CLOSED_FORMS))
    def test_verify_checks_every_row(self, row, monkeypatch):
        form = CLOSED_FORMS[row]
        assert verify.check_formulas_vs_oracle(6).ok
        monkeypatch.setitem(CLOSED_FORMS, row,
                            form._replace(count=lambda s, t: -1))
        res = verify.check_formulas_vs_oracle(6)
        assert res.status == "fail" and form.provenance in res.detail

    def test_2143_provenance_names_the_part(self):
        for t, part in enumerate(("i", "ii", "iii", "iv"), 1):
            res = count_formula(canonicalize("EN", 3, t, [(2, 1, 4, 3)]))
            assert res.provenance == "Thm5.9" + part
        assert count_formula(canonicalize("EN", 2, 5, [(2, 1, 4, 3)])) is None

    @given(st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_all_eight_families_supported(self, s, t):
        for fam in ("WN", "WS", "ES", "SE", "NW", "SW"):
            res = count_formula(canonicalize(fam, s, t, [(2, 1, 3)]))
            assert res is not None
            assert res.value == count_avoiders(build(fam, s, t), [(2, 1, 3)])


class Test2143ClosedForms:
    def test_t_values(self):
        assert count_2143_closed(5, 1) == 1
        assert count_2143_closed(5, 2) == 16
        assert count_2143_closed(3, 3) == fibonacci(8) == 21
        assert count_2143_closed(4, 4) == 1094

    def test_t5_not_available(self):
        with pytest.raises(ValueError):
            count_2143_closed(3, 5)

    @pytest.mark.parametrize("s,t", [(0, 1), (0, 2), (0, 3), (0, 4), (-1, 2),
                                     (2, 0), (3, -1)])
    def test_empty_shapes_rejected(self, s, t):
        with pytest.raises(ValueError, match="need s >= 1 and t >= 1"):
            count_2143_closed(s, t)


class TestInvBounds:
    @pytest.mark.parametrize("s,t,expected", [
        (2, 3, (7, 9)),
        (4, 4, (78, 96)),
        (1, 5, (0, 0)),
        (6, 6, (465, 540)),
    ])
    def test_table_entries(self, s, t, expected):
        assert inv_bounds_1243(s, t) == expected

    @pytest.mark.parametrize("s,t", [(0, 2), (2, 0)])
    def test_empty_shapes_rejected(self, s, t):
        with pytest.raises(ValueError, match="need s >= 1 and t >= 1"):
            inv_bounds_1243(s, t)

    def test_product_structure(self):
        # entry(s,t) = entry(s,1) * entry(2,t), in both coordinates
        for s in range(1, 7):
            for t in range(1, 7):
                lo, hi = inv_bounds_1243(s, t)
                base = inv_bounds_1243(s, 1)[0]
                lo2, hi2 = inv_bounds_1243(2, t)
                assert lo == base * lo2 and hi == base * hi2
