"""
Permutations in one-line notation.

A permutation of length n is a tuple of the integers 1..n, each appearing
exactly once.  The empty tuple is the (valid) empty permutation.  All
functions here are pure; permutations are never mutated.

Serialization convention: a permutation of length <= 9 prints as a bare
digit string ("1243"), longer ones as comma-separated integers
("10,7,11,4").  `parse_perm` accepts both forms.
"""
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache

Perm = tuple[int, ...]


def is_perm(p: Sequence[int]) -> bool:
    """True iff p lists the ints 1..len(p) in some order (a bool is not
    an int)."""
    return (all(type(x) is int for x in p)
            and sorted(p) == list(range(1, len(p) + 1)))


def perm(entries: Iterable[int]) -> Perm:
    """Validate and freeze a sequence of entries as a permutation of [n]."""
    p = tuple(entries)
    if not is_perm(p):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p}")
    return p


def reverse(pi: Sequence[int]) -> Perm:
    return tuple(reversed(pi))


def complement(pi: Sequence[int]) -> Perm:
    n = len(pi)
    return tuple(n + 1 - x for x in pi)


def reverse_complement(pi: Sequence[int]) -> Perm:
    n = len(pi)
    return tuple(n + 1 - x for x in reversed(pi))


def contains(pi: Sequence[int], sigma: Sequence[int]) -> bool:
    """True iff some subsequence of pi is order-isomorphic to sigma.  The
    empty pattern is contained in everything."""
    if not sigma:
        return True
    ends_at = ending_matcher(tuple(sigma))
    return any(ends_at(pi, j, pi[j]) for j in range(len(sigma) - 1, len(pi)))


@lru_cache(maxsize=None)
def ending_matcher(sigma: Perm) -> Callable[[Sequence[int], int, int], bool]:
    """
    For a non-empty pattern sigma, the test ends_at(seq, n, x): does
    seq[:n] followed by x (a value not in seq[:n]) contain an occurrence of
    sigma whose last entry is x?  Built once per pattern.

    Pruned depth-first subsequence matching: entries of sigma[:-1] are
    matched left to right in seq[:n].  The values already fixed (x and the
    earlier entries) are order-isomorphic to their part of sigma, so a
    candidate fits iff it lies strictly between the two fixed values that
    are its neighbours in sigma's order; those neighbours are looked up
    once per pattern here, not once per candidate.
    """
    m = len(sigma) - 1
    top = float("inf")
    # chosen[k] holds the value matched to sigma[k] for k < m, chosen[m] is
    # x, and chosen[m + 1] / chosen[m + 2] stand below / above every value
    bounds = []
    for k in range(m):
        known = [*range(k), m]
        below = [q for q in known if sigma[q] < sigma[k]]
        above = [q for q in known if sigma[q] > sigma[k]]
        bounds.append((max(below, key=sigma.__getitem__, default=m + 1),
                       min(above, key=sigma.__getitem__, default=m + 2)))

    def dfs(seq: Sequence[int], n: int, chosen: list, k: int,
            start: int) -> bool:
        if k == m:
            return True
        lo, hi = bounds[k]
        lo, hi = chosen[lo], chosen[hi]
        for p in range(start, n - m + k + 1):
            v = seq[p]
            if lo < v < hi:
                chosen[k] = v
                if dfs(seq, n, chosen, k + 1, p + 1):
                    return True
        return False

    def ends_at(seq: Sequence[int], n: int, x: int) -> bool:
        return n >= m and dfs(seq, n, [0] * m + [x, 0, top], 0, 0)

    return ends_at


def avoids(pi: Sequence[int], sigma: Sequence[int]) -> bool:
    return not contains(pi, sigma)


def inv(pi: Sequence[int]) -> int:
    """Number of pairs i < j with pi(i) > pi(j)."""
    n = len(pi)
    return sum(1 for i in range(n) for j in range(i + 1, n) if pi[i] > pi[j])


def descents(pi: Sequence[int]) -> set[int]:
    """Positions i (1-based) with pi(i) > pi(i+1)."""
    return {i + 1 for i in range(len(pi) - 1) if pi[i] > pi[i + 1]}


def maj(pi: Sequence[int]) -> int:
    """Major index: the sum of the descent positions."""
    return sum(descents(pi))


def rc_closure_key(patterns: Iterable[Sequence[int]]) -> frozenset[Perm]:
    """
    Canonical key of a pattern set under simultaneous reverse-complement:
    the lexicographically smaller of the set and its rc-image.  Two pattern
    sets with equal keys have equinumerous avoiding extension sets on every
    rectangular poset.
    """
    ps = frozenset(perm(p) for p in patterns)
    rc = frozenset(reverse_complement(p) for p in ps)
    return min(ps, rc, key=lambda s: sorted(s))


def perm_sep(n: int) -> str:
    """What `format_perm` puts between the entries of a length-n perm."""
    return "" if n <= 9 else ","


def format_perm(pi: Sequence[int]) -> str:
    return perm_sep(len(pi)).join(map(str, pi))


def parse_perm(text: str) -> Perm:
    text = text.strip()
    tokens = text.split(",") if "," in text else text
    if not all(tok.strip().isdecimal() for tok in tokens):
        raise ValueError(f"cannot parse permutation: {text!r}")
    return perm(int(tok) for tok in tokens)
