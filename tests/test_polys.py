import pytest
from hypothesis import given, strategies as st

from lexcount.polys import (add, degree, format_q, format_x, is_unimodal,
                            monomial, mul, poly, reverse_on_degree, shift,
                            to_json_dict)

coeff_lists = st.lists(st.integers(-9, 9), max_size=6)


class TestConstruction:
    def test_poly_trims(self):
        assert poly([1, 2, 0, 0]) == (1, 2)
        assert poly([0, 0]) == ()
        assert poly([]) == ()

    def test_degree(self):
        assert degree((1,)) == 0
        assert degree((0, 0, 3)) == 2
        assert degree(()) == -1
        assert degree((1, 2, 0, 0)) == 1
        assert degree((0, 0)) == -1

    def test_monomial(self):
        assert monomial(0) == (1,)
        assert monomial(3) == (0, 0, 0, 1)
        assert monomial(2, 5) == (0, 0, 5)


class TestArithmetic:
    def test_add_sub(self):
        assert add((1, 2), (0, 1, 1)) == (1, 3, 1)
        assert add((1, 3, 1), (0, -1, -1)) == (1, 2)
        assert add((1, 2), (-1, -2)) == ()

    def test_mul(self):
        assert mul((1, 1), (1, 1)) == (1, 2, 1)
        assert mul((1, 1, 1), (1, -1)) == (1, 0, 0, -1)
        assert mul((), (5, 5)) == ()

    def test_shift(self):
        assert shift((1, 2), 2) == (0, 0, 1, 2)
        assert shift((), 4) == ()

    def test_shift_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            shift((1, 2), -1)

    @given(coeff_lists, coeff_lists)
    def test_mul_evaluates_correctly(self, a, b):
        p, q = poly(a), poly(b)
        at_2 = lambda a: sum(c << k for k, c in enumerate(a))
        assert at_2(mul(p, q)) == at_2(p) * at_2(q)


class TestReversal:
    def test_reverse_on_degree(self):
        assert reverse_on_degree((1, 2, 3), 2) == (3, 2, 1)
        assert reverse_on_degree((1, 1), 3) == (0, 0, 1, 1)

    def test_reverse_is_involution_on_exact_degree(self):
        p = (1, 0, 4, 2)
        assert reverse_on_degree(reverse_on_degree(p, 3), 3) == p

    def test_rejects_too_small_degree(self):
        with pytest.raises(ValueError):
            reverse_on_degree((1, 2, 3), 1)
        # () has degree -1, so only the sign check refuses d = -1
        with pytest.raises(ValueError, match="non-negative"):
            reverse_on_degree((), -1)


class TestPredicates:
    def test_is_unimodal(self):
        assert is_unimodal((1, 2, 3, 2, 1))
        assert is_unimodal((1, 1, 1))
        assert is_unimodal(())
        assert not is_unimodal((1, 0, 1))
        assert not is_unimodal((2, 1, 2))


class TestFormatting:
    def test_format_q(self):
        assert format_q((1, 1, 2)) == "1 + q + 2q^2"
        assert format_q((0, 0, 1)) == "q^2"
        assert format_q(()) == "0"

    def test_format_x(self):
        assert format_x((1, -4, -1)) == "1 - 4x - x^2"
        assert format_x((1, -8, -9)) == "1 - 8x - 9x^2"

    def test_json_roundtrip(self):
        p = (1, 0, 3)
        assert to_json_dict(p) == {"coeffs": [1, 0, 3]}
