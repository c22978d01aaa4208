import os
import subprocess
import sys
from pathlib import Path

import pytest

from lexcount import verify
from lexcount.engine import count_avoiders
from lexcount.formulas import count_2143_closed
from lexcount.posets import build
from lexcount.transfer import (a_vector, b_matrix, char_poly, count_2143,
                               recurrence_extend)

SRC = Path(__file__).resolve().parents[1] / "src"


class TestBMatrix:
    def test_b3(self):
        assert b_matrix(3) == ((1, 1, 1), (2, 2, 1), (2, 2, 1))

    def test_b4(self):
        assert b_matrix(4) == ((1, 1, 1, 1),
                               (3, 3, 2, 1),
                               (5, 5, 3, 1),
                               (5, 5, 3, 1))

    def test_boundary_structure(self):
        for n in range(1, 8):
            bm = b_matrix(n)
            # j = 1 and k = n entries are all 1
            assert bm[0] == (1,) * n
            assert all(bm[j][n - 1] == 1 for j in range(n))
            # the last two rows coincide
            if n >= 2:
                assert bm[n - 1] == bm[n - 2]

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            b_matrix(0)

    def test_matches_the_recurrence(self):
        b = {}
        for m in range(1, 13):
            for j in range(1, m + 1):
                for k in range(1, m + 1):
                    b[j, k, m] = (1 if j == 1 or k == m else
                                  b.get((j, k, m - 1), 0) + b[j - 1, k, m])
            assert b_matrix(m) == tuple(
                tuple(b[j, k, m] for k in range(1, m + 1))
                for j in range(1, m + 1))

    def test_large_n_needs_no_recursion(self):
        # a recursive build would need about n frames, past this limit
        code = ("import sys; sys.setrecursionlimit(200); "
                "from lexcount.transfer import b_matrix; "
                "print(sum(b_matrix(150)[-1]))")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        r = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, timeout=60)
        assert r.returncode == 0, r.stderr
        assert int(r.stdout) == sum(b_matrix(150)[-1])

    def test_verify_names_the_failing_identity(self, monkeypatch):
        # b(1,1;1) = 1 is checked by symmetry and the binomial identity
        assert verify.check_b_matrix(4, 3).detail == "44 instances"
        monkeypatch.setattr(verify, "comb", lambda n, k: 0)
        res = verify.check_b_matrix(4, 3)
        assert res.status == "fail"
        assert res.detail.startswith("symmetry, binomial (1,1;1); ")


class TestAVector:
    def test_base_case(self):
        assert a_vector(3, 1) == (0, 0, 1)
        assert a_vector(1, 1) == (1,)

    def test_growth(self):
        assert sum(a_vector(3, 2)) == 5
        assert sum(a_vector(3, 3)) == 21

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            a_vector(0, 2)
        with pytest.raises(ValueError):
            a_vector(2, 0)


class TestCount2143:
    @pytest.mark.parametrize("s,t,expected", [
        (1, 1, 1), (5, 1, 1),
        (2, 3, 5), (3, 3, 21), (4, 3, 89),
        (4, 4, 1094), (5, 4, 9841), (6, 4, 88574),
        (2, 5, 42), (3, 5, 728), (4, 5, 14041),
    ])
    def test_frozen_values(self, s, t, expected):
        assert count_2143(s, t) == expected

    @pytest.mark.parametrize("t", [1, 2])
    def test_rejects_empty_and_negative_s(self, t):
        # the chain (t = 1) validates s like any other width
        for s in (0, -3):
            with pytest.raises(ValueError, match="s >= 1"):
                count_2143(s, t)
        assert [count_2143(s, 1) for s in range(1, 6)] == [1] * 5

    def test_matches_enumeration(self):
        for s in range(1, 5):
            for t in range(1, 5):
                if s * t > 14:
                    continue
                direct = count_avoiders(build("EN", s, t), [(2, 1, 4, 3)])
                assert count_2143(s, t) == direct, (s, t)

    def test_matches_closed_forms(self):
        for t in range(1, 5):
            for s in range(1, 10):
                assert count_2143(s, t) == count_2143_closed(s, t)


class TestCharPoly:
    def test_small_polys(self):
        assert char_poly(1) == (1, -1)
        assert char_poly(2) == (1, -2)
        assert char_poly(3) == (1, -4, -1)
        assert char_poly(4) == (1, -8, -9)

    def test_t5(self):
        assert char_poly(5) == (1, -16, -57, 1)

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6, 7, 8])
    def test_recurrence_reproduces_counts(self, t):
        cp = char_poly(t)
        d = len(cp) - 1
        seed = [count_2143(s, t) for s in range(1, d + 1)]
        got = recurrence_extend(seed, cp, 6)
        want = tuple(count_2143(s, t) for s in range(1, d + 7))
        assert got == want


class TestRecurrenceExtend:
    def test_fibonacci_like_t3(self):
        # a_n = 4 a_{n-1} + a_{n-2} from 1, 5
        assert recurrence_extend([1, 5], (1, -4, -1), 3) == (1, 5, 21, 89, 377)

    def test_t4(self):
        got = recurrence_extend([1, 14], (1, -8, -9), 3)
        assert got == (1, 14, 121, 1094, 9841)
        assert recurrence_extend([1, 14, 121], (1, -8, -9), 2)[-1] == 1094 * 8 + 121 * 9

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            recurrence_extend([1, 2], (2, -1), 1)  # constant term not 1
        with pytest.raises(ValueError):
            recurrence_extend([1], (1, -4, -1), 1)  # too few seed terms
