"""
Exact one-variable integer polynomials as coefficient tuples.

A polynomial is a tuple of arbitrary-precision integers indexed by the
power of the variable, with trailing zeros trimmed; the zero polynomial
is the empty tuple.  This is deliberately minimal: the rest of the
package needs nothing beyond addition and multiplication, shifts,
coefficient reversal, and two pretty-printers (variable q for statistic
generating functions, variable x for characteristic polynomials).
"""
from collections.abc import Iterable, Sequence

QPoly = tuple[int, ...]


def poly(coeffs: Iterable[int]) -> QPoly:
    """Freeze coefficients, trimming trailing zeros."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(a: Sequence[int]) -> int:
    """Degree of the polynomial; -1 for the zero polynomial."""
    d = len(a) - 1
    while d >= 0 and a[d] == 0:
        d -= 1
    return d


def add(a: Sequence[int], b: Sequence[int]) -> QPoly:
    n = max(len(a), len(b))
    return poly((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(n))


def mul(a: Sequence[int], b: Sequence[int]) -> QPoly:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return poly(out)


def shift(a: Sequence[int], k: int) -> QPoly:
    """Multiply by the k-th power of the variable."""
    if k < 0:
        raise ValueError("shift must be non-negative")
    return poly((0,) * k + tuple(a))


def reverse_on_degree(a: Sequence[int], d: int) -> QPoly:
    """Coefficient reversal against degree d: c_i becomes c_{d-i}.

    For a polynomial of degree <= d this realizes q |-> 1/q followed by
    multiplication by q^d.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    if d < degree(a):
        raise ValueError(f"d={d} is below the degree {degree(a)}")
    return poly((a[d - i] if 0 <= d - i < len(a) else 0) for i in range(d + 1))


def monomial(k: int, c: int = 1) -> QPoly:
    return shift((c,), k)


def is_unimodal(a: Sequence[int]) -> bool:
    """True iff the coefficients rise (weakly) then fall (weakly)."""
    cs = list(a)
    i = 0
    while i + 1 < len(cs) and cs[i] <= cs[i + 1]:
        i += 1
    while i + 1 < len(cs) and cs[i] >= cs[i + 1]:
        i += 1
    return i + 1 >= len(cs)


def _format(a: Sequence[int], var: str) -> str:
    a = poly(a)
    if not a:
        return "0"
    parts: list[str] = []
    for k, c in enumerate(a):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            term = str(mag)
        else:
            v = var if k == 1 else f"{var}^{k}"
            term = v if mag == 1 else f"{mag}{v}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {term}")
    return " ".join(parts)


def format_q(a: Sequence[int]) -> str:
    """Pretty form like "1 + q + 2q^2 + q^3"."""
    return _format(a, "q")


def format_x(a: Sequence[int]) -> str:
    """Pretty form like "1 - 4x - x^2"."""
    return _format(a, "x")


def to_json_dict(a: Sequence[int]) -> dict:
    return {"coeffs": list(poly(a))}
