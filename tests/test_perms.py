from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from lexcount.perms import (avoids, complement, contains, descents,
                            format_perm, inv, maj, parse_perm, perm, reverse,
                            reverse_complement)


def random_perms(max_n=8):
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))).map(tuple)


class TestBasics:
    def test_perm_validates(self):
        assert perm([2, 1, 3]) == (2, 1, 3)
        with pytest.raises(ValueError):
            perm([1, 1, 2])
        with pytest.raises(ValueError):
            perm([0, 1, 2])

    def test_empty_perm(self):
        assert perm([]) == ()
        assert inv(()) == 0
        assert maj(()) == 0

    def test_identity_decreasing(self):
        assert inv((1, 2, 3, 4)) == 0
        assert inv((5, 4, 3, 2, 1)) == 10


class TestSymmetries:
    def test_reverse(self):
        assert reverse((2, 1, 3)) == (3, 1, 2)

    def test_complement(self):
        assert complement((2, 1, 3)) == (2, 3, 1)

    def test_reverse_complement(self):
        assert reverse_complement((1, 2, 4, 3)) == (2, 1, 3, 4)
        assert reverse_complement((2, 1, 4, 3)) == (2, 1, 4, 3)

    @given(random_perms())
    def test_rc_is_an_involution(self, pi):
        assert reverse_complement(reverse_complement(pi)) == pi

    @given(random_perms())
    def test_rc_is_reverse_then_complement(self, pi):
        assert reverse_complement(pi) == complement(reverse(pi))


class TestContainment:
    def test_simple_containment(self):
        assert contains((3, 1, 4, 2), (2, 1))
        assert contains((3, 1, 4, 2), (1, 2))
        assert not contains((3, 1, 4, 2), (1, 2, 3))

    def test_2143_examples(self):
        assert contains((2, 1, 4, 3), (2, 1, 4, 3))
        assert contains((3, 1, 6, 2, 5, 4), (2, 1, 4, 3))
        assert avoids((1, 2, 3, 4), (2, 1, 4, 3))

    def test_empty_pattern_always_contained(self):
        assert contains((), ())
        assert contains((1,), ())

    def test_too_long_pattern(self):
        assert not contains((1, 2), (1, 2, 3))

    @given(random_perms(7))
    def test_contains_self(self, pi):
        assert contains(pi, pi)

    @given(random_perms(7), random_perms(5))
    @settings(max_examples=300)
    def test_contains_matches_brute_force(self, pi, sigma):
        # independent reference: order-isomorphism of every subsequence
        rank = lambda seq: tuple(sorted(seq).index(v) + 1 for v in seq)  # noqa: E731
        expected = any(rank(sub) == sigma
                       for sub in combinations(pi, len(sigma)))
        assert contains(pi, sigma) == expected

    @given(random_perms(6), random_perms(4))
    def test_containment_respects_rc(self, pi, sigma):
        assert contains(pi, sigma) == contains(
            reverse_complement(pi), reverse_complement(sigma))


class TestStatistics:
    @pytest.mark.parametrize("pi, expected", [
        ((1, 2, 3), 0),
        ((3, 2, 1), 3),
        ((2, 1, 4, 3), 2),
        ((10, 11, 7, 12, 8, 9, 4, 5, 1, 6, 2, 3), 52),
    ])
    def test_inv(self, pi, expected):
        assert inv(pi) == expected

    def test_descents_and_maj(self):
        assert descents((3, 1, 2)) == {1}
        assert descents((1, 3, 2, 4)) == {2}
        assert maj((3, 1, 2)) == 1
        assert maj((4, 1, 3, 2)) == 1 + 3

    @given(random_perms())
    def test_inv_of_reverse(self, pi):
        n = len(pi)
        assert inv(pi) + inv(reverse(pi)) == n * (n - 1) // 2

    @given(random_perms())
    def test_maj_within_range(self, pi):
        assert 0 <= maj(pi) <= len(pi) * (len(pi) - 1) // 2


class TestSerialization:
    def test_short_form(self):
        assert format_perm((1, 2, 4, 3)) == "1243"
        assert parse_perm("1243") == (1, 2, 4, 3)

    def test_long_form(self):
        pi = tuple(range(12, 0, -1))
        text = format_perm(pi)
        assert "," in text
        assert parse_perm(text) == pi

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_perm("12a3")
        with pytest.raises(ValueError):
            parse_perm("1233")

    @pytest.mark.parametrize("text", ["1,2,x", "1,,2", "12,", "1,2.5,3"])
    def test_parse_names_the_text_in_comma_form(self, text):
        with pytest.raises(ValueError) as info:
            parse_perm(text)
        assert str(info.value) == f"cannot parse permutation: {text!r}"

    @pytest.mark.parametrize("text", ["", "  "])
    def test_parse_empty_text(self, text):
        assert parse_perm(text) == ()

    @given(random_perms(15))
    def test_roundtrip(self, pi):
        assert parse_perm(format_perm(pi)) == pi
