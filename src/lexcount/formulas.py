"""
Closed-form counts and the formula dispatcher.

`count_formula` maps a canonical (family, s, t, patterns) problem to an
exact count when a closed form is known, together with a provenance
identifier naming the formula used.  Pattern sets are normalized under
simultaneous reverse-complement first, which doubles the coverage for
free.  Absence of a formula is an empty result, never an error.
"""
from __future__ import annotations

from math import comb, factorial
from typing import NamedTuple, Optional

from .perms import Perm, rc_closure_key
from .posets import CanonicalProblem


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("n must be non-negative")
    return comb(2 * n, n) // (n + 1)


def fibonacci(n: int) -> int:
    """F_0 = 0, F_1 = 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fuss_catalan(s: int, t: int) -> int:
    """binomial(st, s) / ((t-1)s + 1), the number of t-Fuss-Catalan paths
    of semilength s."""
    if s < 0 or t < 1:
        raise ValueError("need s >= 0 and t >= 1")
    num = comb(s * t, s)
    den = (t - 1) * s + 1
    assert num % den == 0
    return num // den


def hook_count(s: int, t: int) -> int:
    """Total number of linear extensions of the s x t grid:
    (st)! * prod_{j=1}^{t} (j-1)! / (s+t-j)!.

    The product is always integral; the 2 x n case specializes to the
    Catalan numbers.
    """
    if s < 1 or t < 1:
        raise ValueError("need s >= 1 and t >= 1")
    num = factorial(s * t)
    for j in range(1, t + 1):
        num *= factorial(j - 1)
    den = 1
    for j in range(1, t + 1):
        den *= factorial(s + t - j)
    assert num % den == 0
    return num // den


def count_2143_closed(s: int, t: int) -> int:
    """The t <= 4 closed forms for |EN_{s,t}(2143)|."""
    if t == 1:
        return 1
    if t == 2:
        return 2 ** (s - 1)
    if t == 3:
        return fibonacci(3 * s - 1)
    if t == 4:
        return (3 * 9 ** (s - 1) + (-1) ** s) // 2
    raise ValueError("closed forms are available for t <= 4 only")


def inv_bounds_1243(s: int, t: int) -> tuple[int, int]:
    """(min, max) inversion number over 1243-avoiding EN extensions."""
    if s < 1 or t < 1:
        raise ValueError("need s >= 1 and t >= 1")
    pairs = comb(s, 2)
    return ((t * t - t + 1) * pairs, t * t * pairs)


class FormulaResult(NamedTuple):
    value: int
    provenance: str


_P213 = rc_closure_key([(2, 1, 3)])
_P231 = rc_closure_key([(2, 3, 1)])
_P321 = rc_closure_key([(3, 2, 1)])
_P123 = rc_closure_key([(1, 2, 3)])
_P312 = rc_closure_key([(3, 1, 2)])
_P213_123 = rc_closure_key([(2, 1, 3), (1, 2, 3)])
_P213_132 = rc_closure_key([(2, 1, 3), (1, 3, 2)])
_P1243 = rc_closure_key([(1, 2, 4, 3)])
_P2143 = rc_closure_key([(2, 1, 4, 3)])


def count_formula(problem: CanonicalProblem) -> Optional[FormulaResult]:
    """Return (value, provenance) when a closed form covers the problem."""
    s, t = problem.s, problem.t
    key = rc_closure_key(problem.patterns)
    if not key:
        return FormulaResult(hook_count(s, t), "Prop2.2")
    if problem.family == "EN":
        return _en_formula(s, t, key)
    return _ne_formula(s, t, key)


def _en_formula(s: int, t: int, key: frozenset[Perm]) -> Optional[FormulaResult]:
    if key == _P213:
        return FormulaResult(1, "Thm3.1")
    if key == _P231:
        if s == 1 or t == 1:
            return FormulaResult(1, "Thm3.2")
        return FormulaResult(0, "Thm3.2")
    if key == _P321:
        if s == 1:
            return FormulaResult(1, "Thm3.3")
        if s == 2:
            return FormulaResult(catalan(t), "Thm3.3")
        return FormulaResult(0, "Thm3.3")
    if key == _P123:
        if t == 1:
            return FormulaResult(1, "Thm3.4")
        if t == 2:
            return FormulaResult(catalan(s), "Thm3.4")
        return FormulaResult(0, "Thm3.4")
    if key == _P1243:
        return FormulaResult(fuss_catalan(s, t), "Cor4.6")
    if key == _P2143 and t <= 4:
        roman = {1: "i", 2: "ii", 3: "iii", 4: "iv"}[t]
        return FormulaResult(count_2143_closed(s, t), f"Thm5.9{roman}")
    return None


def _ne_formula(s: int, t: int, key: frozenset[Perm]) -> Optional[FormulaResult]:
    if key == _P213:
        return FormulaResult(t ** (s - 1), "Thm3.5")
    if key == _P213_123:
        return FormulaResult(t ** (s - 1), "Cor3.6")
    if key == _P213_132:
        if t == 1:
            return FormulaResult(1, "Cor3.7")
        return FormulaResult(2 ** (s - 1), "Cor3.7")
    if key == _P312:
        return FormulaResult(1, "Thm3.8")
    if key == _P123:
        # only the boundary cases are known; s, t >= 3 is open
        if s == 1 or t == 1:
            return FormulaResult(1, "Sec3-exercise")
        if t == 2:
            return FormulaResult(catalan(s), "Sec3-exercise")
        if s == 2:
            return FormulaResult(catalan(t), "Sec3-exercise")
        return None
    return None
