"""
q-analogues: statistic generating functions over pattern-avoiding
extensions, the q-Catalan families, and the closed forms they match.
`stat_gf` is the engine's avoider DP carrying q-weights, re-exported here.
`TWO_LINE` is the one table of Thm 6.1's two-line cases, which verify
reads; `thm61_rhs` is kept for perfbench/make_pool.py and the tests.

Conventions.  A Catalan word is a 0/1 word of length 2n, n of each
letter, in which every prefix has at least as many 0s as 1s.  C_n(q)
sums q^inv over Catalan words, c_n(q) sums q^maj, and the tilde variant
reverses C_n's coefficients against degree n(n-1)/2.
"""
from collections import namedtuple
from collections.abc import Callable, Iterator
from functools import lru_cache
from math import comb

from .engine import stat_gf  # noqa: F401 -- computed by the avoider DP
from .perms import inv, maj
from .polys import QPoly, add, degree, monomial, mul, reverse_on_degree, shift


def q_int(n: int) -> QPoly:
    """[n]_q = 1 + q + ... + q^(n-1)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return (1,) * n


def catalan_words(n: int) -> Iterator[tuple[int, ...]]:
    """All 0/1 Catalan words of length 2n, lexicographically."""
    word: list[int] = []

    def rec(zeros: int, ones: int) -> Iterator[tuple[int, ...]]:
        if zeros == ones == n:
            yield tuple(word)
            return
        if zeros < n:
            word.append(0)
            yield from rec(zeros + 1, ones)
            word.pop()
        if ones < zeros:
            word.append(1)
            yield from rec(zeros, ones + 1)
            word.pop()

    return rec(0, 0)


def _word_sum(n: int, stat: Callable[[tuple[int, ...]], int]) -> QPoly:
    """q^stat(w) summed over the Catalan words w of length 2n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    out: QPoly = ()
    for w in catalan_words(n):
        out = add(out, monomial(stat(w)))
    return out


def q_catalan_by_words(n: int) -> QPoly:
    """C_n(q) summed directly over Catalan words by inversion count."""
    return _word_sum(n, inv)


@lru_cache(maxsize=None)
def q_catalan(n: int) -> QPoly:
    """C_n(q) via the recurrence C_n = sum_k q^{k(n-k)} C_{k-1} C_{n-k}."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return (1,)
    out: QPoly = ()
    for k in range(1, n + 1):
        out = add(out, shift(mul(q_catalan(k - 1), q_catalan(n - k)),
                             k * (n - k)))
    return out


def q_catalan_tilde(n: int) -> QPoly:
    """C~_n(q) = q^binom(n,2) C_n(1/q), realized as coefficient reversal."""
    return reverse_on_degree(q_catalan(n), comb(n, 2))


def maj_q_catalan(n: int) -> QPoly:
    """c_n(q): major index summed over Catalan words."""
    return _word_sum(n, maj)


# case -> the family and shape(n) of a grid with a line of n, the pattern,
# and the avoiders' forms by inv (Thm 6.1) and by maj (conjectured)
TwoLine = namedtuple("TwoLine", "family shape pattern inv maj")
TWO_LINE = {
    "i": TwoLine("EN", lambda n: (2, n), (3, 2, 1),
                 lambda n: shift(q_catalan_tilde(n), comb(n + 1, 2)),
                 lambda n: shift(maj_q_catalan(n), n)),
    "ii": TwoLine("EN", lambda n: (n, 2), (1, 2, 3),
                  lambda n: shift(q_catalan(n), 3 * comb(n, 2)),
                  lambda n: shift(maj_q_catalan(n), 2 * comb(n, 2))),
    "iii": TwoLine("NE", lambda n: (n, 2), (1, 2, 3),
                   lambda n: shift(q_catalan(n), n * (3 * n - 1) // 2),
                   lambda n: shift(maj_q_catalan(n), n * n)),
    "iv": TwoLine("NE", lambda n: (2, n), (1, 2, 3),
                  lambda n: shift(q_catalan_tilde(n), n * (3 * n - 1) // 2),
                  lambda n: shift(maj_q_catalan(n), n * n)),
}


def thm61_rhs(case: str, size: int) -> QPoly:
    """The inversion form of TWO_LINE's case (i)-(iv) on a line of size."""
    if case not in TWO_LINE:
        raise ValueError(f"case must be one of i..iv, got {case!r}")
    if size < 1:
        raise ValueError("need size >= 1")
    return TWO_LINE[case].inv(size)


def thm62_rhs(s: int, t: int) -> QPoly:
    """Inversion generating function of the 213-avoiding NE extensions:
    a single power of q times [t]_q^(s-1)."""
    if s < 1 or t < 1:
        raise ValueError("need s >= 1 and t >= 1")
    e = s * comb(t, 2) + t * comb(s, 2) + (s - 1) * (t - 1) * (s * t - 2) // 2
    out = monomial(e)
    for _ in range(s - 1):
        out = mul(out, q_int(t))
    return out


@lru_cache(maxsize=None)
def F_poly(s: int) -> QPoly:
    """F_0 = F_1 = 1; F_s = (1 + q + 2q^2) F_{s-1} + q^3 F_{s-2}."""
    if s < 0:
        raise ValueError("s must be non-negative")
    if s <= 1:
        return (1,)
    return add(mul((1, 1, 2), F_poly(s - 1)), shift(F_poly(s - 2), 3))


def conj_2143_t2_rhs(s: int) -> QPoly:
    """Conjectured inversion polynomial on two-column 2143-avoiders:
    q^((2s-1)(s-1)) (1+q)^(s-1)."""
    if s < 1:
        raise ValueError("need s >= 1")
    out = monomial((2 * s - 1) * (s - 1))
    for _ in range(s - 1):
        out = mul(out, (1, 1))
    return out


def conj_2143_t3_rhs(s: int) -> QPoly:
    """Conjectured inversion polynomial on three-column 2143-avoiders:
    q^(9*binom(s,2)) F_s(1/q), normalized through coefficient reversal."""
    if s < 1:
        raise ValueError("need s >= 1")
    f = F_poly(s)
    d = degree(f)
    return shift(reverse_on_degree(f, d), 9 * comb(s, 2) - d)


def conj_1243_rhs(t: int) -> QPoly:
    """Conjectured inversion polynomial on EN three-row grids with 2t-1
    columns, no 1243: q^(3(t^2-t+1)) [2t-1]_q [4t-1]_q."""
    if t < 1:
        raise ValueError("need t >= 1")
    return shift(mul(q_int(2 * t - 1), q_int(4 * t - 1)),
                 3 * (t * t - t + 1))


# raw coefficient sequences referenced to external tables, exported for
# side-by-side comparison rather than auto-verified: (name, reference,
# the power of q as a function of s)
F_COEFF_EXPORTS: tuple[tuple[str, str, Callable[[int], int]], ...] = (
    ("q^3 coefficient", "A098156", lambda s: 3),
    ("q^(2s-2) coefficient", "A134465", lambda s: 2 * s - 2),
    ("q^(s+2) coefficient", "A127531", lambda s: s + 2),
    ("q^s coefficient", "A072547", lambda s: s),
    ("q^(s-1) coefficient", "A116914", lambda s: s - 1),
)


def f_coeff_export(max_s: int) -> list[dict]:
    """Coefficient slices of F_poly for comparison against the external
    sequence tables they are conjectured to match."""
    out = []
    for name, ref, power in F_COEFF_EXPORTS:
        seq = []
        for s in range(2, max_s + 1):
            f, k = F_poly(s), power(s)
            seq.append(f[k] if k < len(f) else 0)
        out.append({"coefficient": name, "reference": ref,
                    "first_s": 2, "values": seq})
    return out
