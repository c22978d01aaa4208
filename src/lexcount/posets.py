"""
Rectangular grid posets on [s*t] and their two augmentations.

Coordinates: an element sits on a tooth i (1..s) and a spine j (1..t).
The element at (i, j) must precede the element at (i', j') in every
linear extension whenever i >= i' and j >= j' (and the coordinates
differ).  Two label conventions cover the eight compass-named families:

    EN: label(i, j) = i*t - j + 1
    NE: label(i, j) = (i - 1)*t + j

The remaining six families are obtained by swapping (s, t) (vertical
mirror, an identical poset) and/or dualizing (horizontal mirror, which
reverses every extension):

    WN(s,t) = EN(t,s)         NW(s,t) = NE(t,s)
    WS(s,t) = dual EN(s,t)    ES(s,t) = dual EN(t,s)
    SW(s,t) = dual NE(s,t)    SE(s,t) = dual NE(t,s)

CLI spec strings look like "EN:4x3", optionally suffixed "+saw" or "+zip".
`TAGS` is the one table of these augmentations: each tag's constructor
and the pattern whose avoiders on the EN grid are the tagged poset's
linear extensions.  Spec parsing, the CLI's counting routes and the
verify suite all read it.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from sys import maxsize
from typing import Iterable, Sequence

from .perms import Perm, reverse as perm_reverse

FAMILIES = ("EN", "NE", "ES", "SE", "WN", "NW", "WS", "SW")

# families whose declared (s, t) swap against the internal grid
_SWAPPED = {"WN", "NW", "ES", "SE"}
# families built as duals (extensions are reversed relative to the base grid)
_DUAL = {"WS", "ES", "SW", "SE"}
_NE_BASED = {"NE", "NW", "SW", "SE"}


# family, s, t, extra_before: frozenset of (a, b) pairs, tag: "" or a TAGS key
_GridFields = namedtuple("_GridFields", "family s t extra_before tag",
                         defaults=(frozenset(), ""))


class GridPoset(_GridFields):
    """A labeled grid order, possibly with extra precedence constraints.

    The order is the EN or NE grid that ``canonicalize`` reduces the
    family to, reversed for a dual family.  ``extra_before`` holds pairs
    (a, b): a must precede b beyond the grid order.

    An immutable value compared and hashed by its fields, kept in a
    ``collections.namedtuple`` base, which costs CLI start-up far less than
    a dataclass or a ``typing.NamedTuple`` (see CHANGES.md).  The subclass
    keeps a ``__dict__``, where ``cached_property`` stores derived tables.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"GridPoset is immutable; cannot set {name!r}")

    @property
    def n(self) -> int:
        return self.s * self.t

    @cached_property
    def direct_preds(self) -> tuple[frozenset[int], ...]:
        """For each element, the elements that must come directly before it
        (grid covers plus extra_before pairs).  On the grid with t spines
        (after the swap), x precedes x - t on the tooth below, and its
        neighbour toward spine 1 on its own tooth: x + 1 on EN, x - 1 on
        NE."""
        grid, _, t, _ = canonicalize(self.family, self.s, self.t)
        n = self.n
        along = [(x, x + 1) if grid == "EN" else (x + 1, x)
                 for x in range(1, n) if x % t]
        pairs = [(x, x - t) for x in range(t + 1, n + 1)] + along
        if self.family in _DUAL:
            pairs = [(b, a) for a, b in pairs]
        preds: list[set[int]] = [set() for _ in range(n)]
        for a, b in (*pairs, *self.extra_before):
            preds[b - 1].add(a)
        return tuple(frozenset(p) for p in preds)

    @cached_property
    def _offsets(self) -> tuple[tuple[int, int], ...]:
        """The pairs (a, b) of ``direct_preds`` grouped by offset d = a - b:
        one (d, mask) per offset, bit b - 1 of mask set when b has a
        predecessor at b + d.  A grid has two offsets; each extra pair adds
        at most one."""
        masks: dict[int, int] = {}
        for b, preds in enumerate(self.direct_preds, start=1):
            for a in preds:
                masks[a - b] = masks.get(a - b, 0) | 1 << (b - 1)
        return tuple(masks.items())

    def ready(self, placed: int) -> int:
        """The elements that may come next once the elements of placed
        are: those not placed whose direct predecessors all are.  Both are
        masks in which element x is bit x - 1; bits of placed at n and
        above are ignored."""
        ready = ~placed & ((1 << self.n) - 1)
        for d, mask in self._offsets:
            ready &= ~mask | (placed >> d if d > 0 else placed << -d)
        return ready

    @cached_property
    def _closure(self) -> tuple[int, ...]:
        """ancestors[x-1]: the mask of all elements that must precede x,
        filled one ``ready`` set at a time; raises ValueError on a cycle."""
        anc = [0] * self.n
        placed = 0
        while placed != (1 << self.n) - 1:
            layer = self.ready(placed)
            if not layer:
                raise ValueError("precedence constraints contain a cycle")
            placed |= layer
            while layer:
                bit = layer & -layer
                layer ^= bit
                x = bit.bit_length() - 1
                for p in self.direct_preds[x]:
                    anc[x] |= anc[p - 1] | 1 << (p - 1)
        return tuple(anc)

    def must_precede(self, a: int, b: int) -> bool:
        """Strict precedence in the transitive closure.  The engines read
        only direct covers; this is the independent closure the tests
        check orders against."""
        for x in (a, b):
            if not 1 <= x <= self.n:
                raise ValueError(f"element {x} out of range 1..{self.n}")
        return bool(self._closure[b - 1] >> (a - 1) & 1)

    def problem(self, patterns: Iterable[Sequence[int]] = ()
                ) -> CanonicalProblem:
        """The canonical problem that counts this poset's extensions
        avoiding patterns: its plain grid's, with its tag's pattern added."""
        tagged = [TAGS[self.tag][1]] if self.tag else []
        return canonicalize(self.family, self.s, self.t, [*patterns, *tagged])

    def spec_string(self) -> str:
        suffix = f"+{self.tag}" if self.tag else ""
        return f"{self.family}:{self.s}x{self.t}{suffix}"


def build(family: str, s: int, t: int) -> GridPoset:
    """Construct one of the eight rectangular posets on [s*t]."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if s <= 0 or t <= 0:
        raise ValueError(f"dimensions must be positive, got s={s}, t={t}")
    if s * t > maxsize:
        raise ValueError(f"too many elements, got s={s}, t={t}")
    return GridPoset(family, s, t)


def saw_poset(s: int, t: int) -> GridPoset:
    """EN grid plus the pairs ((j+1)t before (j-1)t+2), 1 <= j <= s-1.

    Its linear extensions are exactly the 1243-avoiding extensions of the
    EN grid.  s = 0 gives the empty poset (one empty extension).  For
    t = 1 the pairs would be self-loops, and every extension of the chain
    avoids 1243 anyway, so it is the chain with no pairs, tagged "saw".
    """
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if s < 0:
        raise ValueError(f"s must be non-negative, got {s}")
    base = build("EN", s, t) if s else GridPoset("EN", 0, t)
    extra = frozenset(((j + 1) * t, (j - 1) * t + 2)
                      for j in range(1, s)) if t > 1 else frozenset()
    return base._replace(extra_before=extra, tag="saw")


def zip_poset(s: int, t: int) -> GridPoset:
    """EN grid plus the pairs (jt before (j-3)t+1), 3 <= j <= s.

    Its linear extensions are exactly the 2143-avoiding extensions of the
    EN grid.  For t = 1 the pairs would repeat the chain's order, so it is
    the chain with no pairs, tagged "zip".
    """
    base = build("EN", s, t)
    extra = frozenset((j * t, (j - 3) * t + 1)
                      for j in range(3, s + 1)) if t > 1 else frozenset()
    return base._replace(extra_before=extra, tag="zip")


# tag -> (constructor, pattern): the tagged poset's linear extensions are
# exactly the EN grid's that avoid the pattern (Sec. 4 and Sec. 5)
TAGS = {"saw": (saw_poset, (1, 2, 4, 3)), "zip": (zip_poset, (2, 1, 4, 3))}


# family "EN" or "NE", s, t, patterns: a frozenset of Perm
CanonicalProblem = namedtuple("CanonicalProblem", "family s t patterns",
                              defaults=(frozenset(),))


def canonicalize(family: str, s: int, t: int,
                 patterns: Iterable[Sequence[int]] = ()) -> CanonicalProblem:
    """Reduce any of the eight families to an EN or NE problem with the
    same avoider count.  Swapped families exchange (s, t); dual families
    additionally reverse every forbidden pattern."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    ps = frozenset(tuple(p) for p in patterns)
    if family in _SWAPPED:
        s, t = t, s
    if family in _DUAL:
        ps = frozenset(perm_reverse(p) for p in ps)
    return CanonicalProblem(family="NE" if family in _NE_BASED else "EN",
                            s=s, t=t, patterns=ps)


def parse_poset_spec(text: str) -> GridPoset:
    """Parse a CLI poset spec like "EN:4x3", "EN:4x3+saw", "SW:2x4", once
    stripped; S and T are Unicode decimal digits, as int reads them."""
    family, _, rest = text.strip().partition(":")
    dims, plus, tag = rest.partition("+")
    s, _, t = dims.partition("x")
    if not (len(family) == 2 and family.isascii()
            and family.isalpha() and family.isupper() and s.isdecimal()
            and t.isdecimal() and (not plus or tag in TAGS)):
        tags = "|".join(f"+{tag}" for tag in TAGS)
        raise ValueError(
            f"bad poset spec {text!r}; expected FAMILY:SxT[{tags}]")
    s, t = int(s), int(t)
    if tag and family != "EN":
        raise ValueError(f"{tag} augmentation is defined on EN only")
    if not tag or s == 0 or t == 0:
        return build(family, s, t)  # which refuses a zero dimension
    return TAGS[tag][0](s, t)
