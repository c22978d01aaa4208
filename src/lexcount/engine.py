"""
Enumerate and count (pattern-avoiding) linear extensions.

`linear_extensions` and `avoiders` are backtracking generators that always
try currently-available elements in increasing label order, so extensions
come out in lexicographic order.  Pattern filtering prunes a branch as
soon as the partial extension contains a forbidden pattern; since a
contained pattern can never be destroyed by appending, it is enough to
test occurrences that end at the newly placed element.  They serve
listing, and are the plain reference the DPs below are tested against.

`count_avoiders` counts without listing, by a forward DP over prefix
length.  A prefix matters to its completions only through the order
ideal it fills and its partial pattern matches, each matched value
replaced by its rank among the values not yet placed; prefixes that agree
on both are merged.  `stat_gf` runs the same DP with a q-polynomial
weight per state instead of a count, to sum q^inv or q^maj.

`count_extensions` counts pattern-free extensions by dynamic programming
over order ideals alone.
"""
from __future__ import annotations

from bisect import bisect_right, insort
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator, Optional, Sequence

from .perms import Perm, contains, ending_matcher, perm
from .polys import QPoly
from .posets import GridPoset, build


# ---------------------------------------------------------------------------
# incremental pattern trackers

class GenericTracker:
    """Checks whether appending x completes an occurrence of sigma, with
    x fixed as the last pattern entry (`perms.ending_matcher`)."""

    def __init__(self, sigma: Perm):
        if len(sigma) == 0:
            raise ValueError("empty pattern forbids everything")
        self.prefix: list[int] = []
        self._ends_at = ending_matcher(sigma)

    def completes(self, x: int) -> bool:
        return self._ends_at(self.prefix, len(self.prefix), x)

    def push(self, x: int) -> None:
        self.prefix.append(x)

    def pop(self) -> None:
        self.prefix.pop()


class Tracker123:
    """O(1) tracker for the pattern 123: appending x completes 123 iff some
    earlier ascent has its top below x.  Keeps, per prefix length, the
    minimum over ascents (i < j, w_i < w_j) of w_j, and the prefix minimum."""

    _INF = float("inf")

    def __init__(self, sigma: Perm):
        assert sigma == (1, 2, 3)
        self._stack: list[tuple[float, float]] = [(self._INF, self._INF)]

    def completes(self, x: int) -> bool:
        return self._stack[-1][1] < x

    def push(self, x: int) -> None:
        lo, top = self._stack[-1]
        if x > lo:
            top = min(top, x)
        self._stack.append((min(lo, x), top))

    def pop(self) -> None:
        self._stack.pop()


class Tracker2143:
    """Tracker for the pattern 2143.  Appending x (as the '3') completes an
    occurrence iff there is a position p with w_p > x (the '4') preceded by
    an inversion whose top value is below x (the '21').  Maintains, per
    position, the minimum inversion-top over pairs lying strictly before
    that position, plus a sorted list of prefix values."""

    _INF = float("inf")

    def __init__(self, sigma: Perm):
        assert sigma == (2, 1, 4, 3)
        self.prefix: list[int] = []
        self._min_top_before: list[float] = []  # over pairs before w[p]
        self._min_top_after: list[float] = []   # over pairs within w[..p]
        self._sorted: list[int] = []
        self._cur_min_top: float = self._INF

    def completes(self, x: int) -> bool:
        mtb = self._min_top_before
        for p, v in enumerate(self.prefix):
            if v > x and mtb[p] < x:
                return True
        return False

    def push(self, x: int) -> None:
        self.prefix.append(x)
        self._min_top_before.append(self._cur_min_top)
        # new inversions (v, x) for every earlier v > x; the least such top
        # is the successor of x among prefix values
        i = bisect_right(self._sorted, x)
        if i < len(self._sorted):
            self._cur_min_top = min(self._cur_min_top, self._sorted[i])
        self._min_top_after.append(self._cur_min_top)
        insort(self._sorted, x)

    def pop(self) -> None:
        x = self.prefix.pop()
        self._min_top_before.pop()
        self._min_top_after.pop()
        self._sorted.remove(x)
        self._cur_min_top = (self._min_top_after[-1]
                             if self._min_top_after else self._INF)


def make_tracker(sigma: Sequence[int]):
    sig = perm(sigma)
    if sig == (1, 2, 3):
        return Tracker123(sig)
    if sig == (2, 1, 4, 3):
        return Tracker2143(sig)
    return GenericTracker(sig)


# ---------------------------------------------------------------------------
# enumeration

def linear_extensions(poset: GridPoset) -> Iterator[Perm]:
    """All linear extensions, in lexicographic order."""
    return avoiders(poset, ())


def avoiders(poset: GridPoset, patterns: Iterable[Sequence[int]]) -> Iterator[Perm]:
    """Linear extensions avoiding every pattern, in lexicographic order.

    Cyclic constraint sets are rejected here, before iteration starts.
    """
    n = poset.n
    patset = {tuple(p) for p in patterns}
    if any(len(p) == 0 for p in patset):
        return iter(())  # the empty pattern is contained in everything
    trackers = [make_tracker(p) for p in sorted(patset)]
    poset._closure  # noqa: B018 -- topological sort; raises on a cycle
    indeg = [len(p) for p in poset.direct_preds]
    succs = poset.succs

    prefix: list[int] = []

    def rec() -> Iterator[Perm]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for x in range(1, n + 1):
            if indeg[x - 1] != 0:
                continue
            if any(tr.completes(x) for tr in trackers):
                continue
            indeg[x - 1] = -1
            for y in succs[x - 1]:
                indeg[y - 1] -= 1
            for tr in trackers:
                tr.push(x)
            prefix.append(x)
            yield from rec()
            prefix.pop()
            for tr in trackers:
                tr.pop()
            for y in succs[x - 1]:
                indeg[y - 1] += 1
            indeg[x - 1] = 0

    if n == 0:
        return iter([()])  # the empty poset has exactly one extension
    return rec()


def count_avoiders(poset: GridPoset, patterns: Iterable[Sequence[int]]) -> int:
    """Number of linear extensions avoiding every pattern."""
    return _avoider_dp(poset, patterns, None, 0)


def stat_gf(poset: GridPoset, patterns: Iterable[Sequence[int]],
            stat: str = "inv") -> QPoly:
    """Sum of q^stat over the pattern-avoiding extensions of poset, for
    stat "inv" or "maj" (KeyError otherwise, before any work).

    Runs the avoider DP with each weight a polynomial packed into one int,
    coefficient e in bits [e*w, (e+1)*w).  A coefficient counts prefixes
    of extensions, at most n!, so with w = bit_length(n!) no coefficient
    carries into the next: multiplying by q^e is a shift by e*w and adding
    polynomials is adding ints.
    """
    if stat not in ("inv", "maj"):
        raise KeyError(stat)
    width = factorial(poset.n).bit_length()
    packed = _avoider_dp(poset, patterns, stat, width)
    low = (1 << width) - 1
    out = []
    while packed:
        out.append(packed & low)
        packed >>= width
    return tuple(out)


def _avoider_dp(poset: GridPoset, patterns: Iterable[Sequence[int]],
                stat: Optional[str], width: int) -> int:
    """Total weight of the pattern-avoiding extensions: their number if
    stat is None, else the sum of q^stat packed as in `stat_gf`.

    Layer k maps each state reachable by a k-element prefix to the total
    weight of such prefixes.  A state is (mask of placed elements, frozenset
    of partial matches (pattern index, gaps)), where gaps[q] is the number
    of unplaced values below the value matched to sigma[q].  Placing a value
    with r unplaced values below it lies above exactly the matched values
    with gap <= r, so the gaps decide every comparison with future values.
    Placing x adds to inv the number of placed values above x, which the
    mask knows.  It adds k to maj if x is below the last placed value, that
    is if r is below that value's own count of unplaced values below it;
    for maj the mask holds that count in the bits above n.
    """
    pats = sorted({perm(p) for p in patterns})
    if () in pats:
        return 0  # the empty pattern is contained in everything
    poset._closure  # noqa: B018 -- topological sort; raises on a cycle
    n = poset.n
    if (1,) in pats:
        return int(n == 0)
    pred_masks = _pred_masks(poset)
    # above[i][k][q]: must the value matched to sigma_i[k] exceed sigma_i[q]?
    above = [[tuple(sig[k] > sig[q] for q in range(k)) for k in range(len(sig))]
             for sig in pats]
    full = (1 << n) - 1

    @lru_cache(maxsize=None)
    def step(match: tuple, r: int) -> tuple[tuple, Optional[tuple]]:
        """Placing a value of rank r: the match with its gaps renumbered,
        and the match extended by the value (None if the value does not
        fit, () if it completes the pattern)."""
        i, gaps = match
        shifted = tuple(g - (g > r) for g in gaps)
        if any((g <= r) != a for g, a in zip(gaps, above[i][len(gaps)])):
            return (i, shifted), None
        if len(gaps) + 1 == len(pats[i]):
            return (i, shifted), ()
        return (i, shifted), (i, shifted + (r,))

    def advance(matches: frozenset, r: int) -> Optional[frozenset]:
        """The partial matches after placing a value of rank r, or None if
        the value completes a pattern."""
        new = {(i, (r,)) for i in range(len(pats))}
        for match in matches:
            kept, grown = step(match, r)
            new.add(kept)
            if grown is not None:
                if not grown:
                    return None
                new.add(grown)
        return frozenset(new)

    layer: dict[tuple[int, frozenset], int] = {(0, frozenset()): 1}
    for k in range(n):
        nxt: dict[tuple[int, frozenset], int] = {}
        for (mask, matches), ways in layer.items():
            free = full & ~mask
            for x in range(n):
                bit = 1 << x
                if not free & bit or pred_masks[x] & ~mask:
                    continue
                r = (free & (bit - 1)).bit_count()
                after = advance(matches, r)
                if after is None:
                    continue
                if stat is None:
                    state, w = (mask | bit, after), ways
                elif stat == "inv":
                    state = (mask | bit, after)
                    w = ways << width * (mask >> x).bit_count()
                else:
                    state = ((mask & full) | bit | r << n, after)
                    w = ways << width * k if r < mask >> n else ways
                nxt[state] = nxt.get(state, 0) + w
        layer = nxt
    return sum(layer.values())


# ---------------------------------------------------------------------------
# exact counting without listing

_DOWNSET_CAP = 24


def count_extensions(poset: GridPoset) -> int:
    """Exact number of linear extensions, by order-ideal DP.

    Pure grids use the monotone tooth-profile lattice (at most C(s+t, s)
    states).  Posets with extra precedence pairs fall back to a bitmask
    DP over explicit downsets, capped at n = 24 elements.
    """
    if poset.n == 0:
        return 1
    if not poset.extra_before:
        return _grid_count(poset.grid_s, poset.grid_t)
    if poset.n > _DOWNSET_CAP:
        raise ValueError(
            f"downset DP capped at {_DOWNSET_CAP} elements, got {poset.n}")
    return _downset_count(poset)


@lru_cache(maxsize=None)
def _grid_count(gs: int, gt: int) -> int:
    """Extensions of a pure gs x gt grid.  State: how many elements have
    been taken from each tooth; a tooth may advance only while staying
    strictly behind every later tooth."""

    @lru_cache(maxsize=None)
    def f(profile: tuple[int, ...]) -> int:
        if all(c == gt for c in profile):
            return 1
        total = 0
        for i in range(gs):
            c = profile[i]
            if c == gt:
                continue
            if all(profile[k] > c for k in range(i + 1, gs)):
                total += f(profile[:i] + (c + 1,) + profile[i + 1:])
        return total

    result = f((0,) * gs)
    f.cache_clear()
    return result


def _pred_masks(poset: GridPoset) -> list[int]:
    """Bitmask of the direct predecessors of each element (bit x-1 for x)."""
    return [sum(1 << (a - 1) for a in preds) for preds in poset.direct_preds]


def _downset_count(poset: GridPoset) -> int:
    n = poset.n
    pred_masks = _pred_masks(poset)
    full = (1 << n) - 1
    memo: dict[int, int] = {full: 1}

    def f(taken: int) -> int:
        if taken in memo:
            return memo[taken]
        total = 0
        for x in range(n):
            bit = 1 << x
            if taken & bit:
                continue
            if pred_masks[x] & ~taken:
                continue
            total += f(taken | bit)
        memo[taken] = total
        return total

    result = f(0)
    if result == 0:
        raise ValueError("precedence constraints contain a cycle")
    return result


# ---------------------------------------------------------------------------
# the 213 insertion construction on NE grids

def insert_213(ext: Sequence[int], s: int, t: int, position_choice: int) -> Perm:
    """Map a 213-avoiding extension of the NE s x t grid to one of the NE
    (s+1) x t grid: prepend `position_choice` new largest values, then the
    old first entry, then the remaining new values in decreasing order.
    """
    pi = perm(ext)
    if len(pi) != s * t:
        raise ValueError(f"expected an extension of length {s * t}, got {len(pi)}")
    if not 1 <= position_choice <= t:
        raise ValueError(f"position_choice must be in 1..{t}")
    if contains(pi, (2, 1, 3)):
        raise ValueError("source extension contains 213")
    if not is_extension(build("NE", s, t), pi):
        raise ValueError("source is not a linear extension of the NE grid")
    top = (s + 1) * t
    i = position_choice
    head = tuple(range(top, top - i, -1))
    tail = tuple(range(top - i, s * t, -1))
    return head + (pi[0],) + tail + pi[1:]


def is_extension(poset: GridPoset, pi: Sequence[int]) -> bool:
    """True iff pi lists all elements in an order consistent with poset."""
    if sorted(pi) != list(range(1, poset.n + 1)):
        return False
    pos = {x: k for k, x in enumerate(pi)}
    for b in range(1, poset.n + 1):
        for a in poset.direct_preds[b - 1]:
            if pos[a] > pos[b]:
                return False
    return True
