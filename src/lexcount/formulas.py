"""
Closed-form counts and the formula dispatcher.

`CLOSED_FORMS` is the one table of the paper's closed forms.
`count_formula` looks a canonical (family, s, t, patterns) problem up in
it by the pattern set's reverse-complement closure, which doubles the
coverage for free, and gives the count with a provenance identifier
naming the formula.  Absence of a formula is an empty result, never an
error.
"""
from collections import namedtuple
from math import comb, factorial

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
    if s < 1 or t < 1:
        raise ValueError("need s >= 1 and t >= 1")
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


FormulaResult = namedtuple("FormulaResult", "value provenance")


def _en_231(s: int, t: int) -> int:
    return 1 if s == 1 or t == 1 else 0


def _en_321(s: int, t: int) -> int:
    if s == 1:
        return 1
    return catalan(t) if s == 2 else 0


def _en_123(s: int, t: int) -> int:
    if t == 1:
        return 1
    return catalan(s) if t == 2 else 0


def _en_2143(s: int, t: int) -> int | None:
    return count_2143_closed(s, t) if t <= 4 else None


def _ne_213_132(s: int, t: int) -> int:
    return 1 if t == 1 else 2 ** (s - 1)


def _ne_123(s: int, t: int) -> int | None:
    """Only the boundary shapes are known; s, t >= 3 is open."""
    if min(s, t) == 1:
        return 1
    return catalan(max(s, t)) if min(s, t) == 2 else None


ClosedForm = namedtuple("ClosedForm", "provenance count parts",
                        defaults=({},))
ClosedForm.__doc__ = """Where the paper states a form, and count(s, t), None
on the shapes it does not cover; a form stated per column t names each part
(parts: t -> label)."""


# Every closed form for a nonempty pattern set, keyed by the family and
# the pattern set as the paper states them.
CLOSED_FORMS: dict[tuple[str, tuple[Perm, ...]], ClosedForm] = {
    ("EN", ((2, 1, 3),)): ClosedForm("Thm3.1", lambda s, t: 1),
    ("EN", ((2, 3, 1),)): ClosedForm("Thm3.2", _en_231),
    ("EN", ((3, 2, 1),)): ClosedForm("Thm3.3", _en_321),
    ("EN", ((1, 2, 3),)): ClosedForm("Thm3.4", _en_123),
    ("EN", ((1, 2, 4, 3),)): ClosedForm("Cor4.6", fuss_catalan),
    ("EN", ((2, 1, 4, 3),)): ClosedForm(
        "Thm5.9", _en_2143, {1: "i", 2: "ii", 3: "iii", 4: "iv"}),
    ("NE", ((2, 1, 3),)): ClosedForm("Thm3.5", lambda s, t: t ** (s - 1)),
    ("NE", ((2, 1, 3), (1, 2, 3))): ClosedForm(
        "Cor3.6", lambda s, t: t ** (s - 1)),
    ("NE", ((2, 1, 3), (1, 3, 2))): ClosedForm("Cor3.7", _ne_213_132),
    ("NE", ((3, 1, 2),)): ClosedForm("Thm3.8", lambda s, t: 1),
    ("NE", ((1, 2, 3),)): ClosedForm("Sec3-exercise", _ne_123),
}

# the table key of each row under its reverse-complement closure key;
# count_formula reads the row itself from CLOSED_FORMS
_ROW_KEY = {(family, rc_closure_key(patterns)): (family, patterns)
            for family, patterns in CLOSED_FORMS}


def count_formula(problem: CanonicalProblem) -> FormulaResult | None:
    """Return (value, provenance) when a closed form covers the problem."""
    s, t = problem.s, problem.t
    key = rc_closure_key(problem.patterns)
    if not key:
        return FormulaResult(hook_count(s, t), "Prop2.2")
    form = CLOSED_FORMS.get(_ROW_KEY.get((problem.family, key)))
    value = None if form is None else form.count(s, t)
    if value is None:
        return None
    return FormulaResult(value, form.provenance + form.parts.get(t, ""))
