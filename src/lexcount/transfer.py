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
from collections.abc import Sequence
from functools import lru_cache

from .polys import QPoly, poly

BMatrix = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def b_matrix(n: int) -> BMatrix:
    """(b_{j,k}(n)) for 1 <= j, k <= n.  The recurrence runs for m = 1..n
    in turn, without recursion: row j of b(m) adds row j of b(m - 1) to
    row j - 1 of b(m), and its last entry is 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    b = [[1]]
    for m in range(2, n + 1):
        prev = b + [[0] * (m - 1)]  # b_{m,k}(m-1) = 0
        b = [[1] * m]  # b_{1,k}(m) = 1
        # b_{j+1,k}(m) = b_{j+1,k}(m-1) + b_{j,k}(m), and b_{j+1,m}(m) = 1
        for j in range(1, m):
            b.append([p + q for p, q in zip(prev[j], b[j - 1])] + [1])
    return tuple(map(tuple, b))


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
    return sum(a_vector(t, s))


def char_poly(t: int) -> QPoly:
    """det(I - x * B_t) as an integer polynomial, constant term 1.

    By Faddeev-LeVerrier: with M_1 = I, c_k = -tr(B M_k) / k and
    M_{k+1} = B M_k + c_k I, det(I - x B) = sum of c_k x^k, c_0 = 1.
    The c_k are the coefficients of B's characteristic polynomial, so for
    an integer matrix every division is exact."""
    bm = b_matrix(t)
    idx = range(t)
    m = [[int(j == k) for k in idx] for j in idx]
    coeffs = [1]
    for k in range(1, t + 1):
        bmk = [[sum(bm[j][i] * m[i][l] for i in idx) for l in idx]
               for j in idx]
        c, rem = divmod(-sum(bmk[j][j] for j in idx), k)
        assert rem == 0
        coeffs.append(c)
        m = [[bmk[j][l] + c * (j == l) for l in idx] for j in idx]
    return poly(coeffs)


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
