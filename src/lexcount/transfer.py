"""
Transfer-matrix counting of 2143-avoiding EN extensions.

b_matrix(n) tabulates b_{j,k}(n), the number of j,k-Catalan paths of
semilength n, from the recurrence

    b_{j,k}(n) = b_{j,k}(n-1) + b_{j-1,k}(n)

with b_{1,k}(n) = b_{j,n}(n) = 1.  Iterating the matrix against the tail
vector a_{t,*}(s) counts |EN_{s,t}(2143)| in O(s t^2) integer operations,
and the characteristic polynomial det(I - x B_t) yields a linear
recurrence satisfied by the counts as s grows.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .polys import QPoly, poly

BMatrix = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def b_matrix(n: int) -> BMatrix:
    if n < 1:
        raise ValueError("n must be at least 1")

    @lru_cache(maxsize=None)
    def b(j: int, k: int, m: int) -> int:
        if j < 1 or m < 1 or j > m or not 1 <= k <= m:
            return 0
        if j == 1 or k == m:
            return 1
        return b(j, k, m - 1) + b(j - 1, k, m)

    return tuple(tuple(b(j, k, n) for k in range(1, n + 1))
                 for j in range(1, n + 1))


def a_vector(t: int, s: int) -> tuple[int, ...]:
    """(a_{t,1}(s), ..., a_{t,t}(s)): counts of dimension-s zippers by how
    many trailing top letters they end with.  Base case s = 1 is the
    single word with all t letters terminal."""
    if t < 1 or s < 1:
        raise ValueError("need t >= 1 and s >= 1")
    a = [0] * (t - 1) + [1]
    bm = b_matrix(t)
    for _ in range(s - 1):
        a = [sum(bm[j][k] * a[j] for j in range(t)) for k in range(t)]
    return tuple(a)


def count_2143(s: int, t: int) -> int:
    """|EN_{s,t}(2143)|, exactly."""
    if t == 1:
        return 1
    return sum(a_vector(t, s))


def char_poly(t: int) -> QPoly:
    """det(I - x * B_t) as an integer polynomial, constant term 1.

    The determinant has degree at most t, so it is recovered exactly by
    evaluating the integer determinant at t + 1 points and interpolating
    over the rationals (every coefficient comes out integral)."""
    bm = b_matrix(t)
    points = list(range(t + 1))
    values = [
        _int_det([[(1 if j == k else 0) - x * bm[j][k] for k in range(t)]
                  for j in range(t)])
        for x in points
    ]
    coeffs = _interpolate(points, values)
    assert coeffs and coeffs[0] == 1
    return coeffs


def _int_det(rows: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in rows]
    n = len(m)
    sign = 1
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            swap = next((r for r in range(col + 1, n) if m[r][col]), None)
            if swap is None:
                return 0
            m[col], m[swap] = m[swap], m[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                num = m[col][col] * m[r][c] - m[r][col] * m[col][c]
                q, rem = divmod(num, prev)
                assert rem == 0
                m[r][c] = q
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def _interpolate(points: Sequence[int], values: Sequence[int]) -> QPoly:
    """Lagrange interpolation with exact rational arithmetic; the result
    must have integer coefficients."""
    from fractions import Fraction
    n = len(points)
    acc = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(zip(points, values)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            basis = [Fraction(0)] + basis  # multiply by x, then by -xj
            for k in range(len(basis) - 1):
                basis[k] -= xj * basis[k + 1]
        coeff = Fraction(yi) / denom
        for k in range(len(basis)):
            acc[k] += coeff * basis[k]
    out = []
    for c in acc:
        assert c.denominator == 1
        out.append(int(c))
    return poly(out)


def recurrence_extend(initial_terms: Sequence[int], charpoly: Sequence[int],
                      how_many: int) -> tuple[int, ...]:
    """Extend a sequence by the linear recurrence encoded by charpoly:
    with charpoly = 1 + p1 x + ... + pd x^d, each new term is
    -(p1*a_{n-1} + ... + pd*a_{n-d})."""
    cp = poly(charpoly)
    if not cp or cp[0] != 1:
        raise ValueError("characteristic polynomial must have constant term 1")
    d = len(cp) - 1
    if len(initial_terms) < d:
        raise ValueError(f"need at least {d} initial terms, got {len(initial_terms)}")
    terms = list(initial_terms)
    for _ in range(how_many):
        terms.append(-sum(cp[i] * terms[-i] for i in range(1, d + 1)))
    return tuple(terms)
