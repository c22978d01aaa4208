"""
The sawblade generating tree.

Extensions of saw_poset(s, t) form a tree: the children of an extension
of the (s, t) sawblade are the extensions of the (s+1, t) sawblade that
restrict to it.  A node's branching is controlled by a single integer
label, the distance of the entry 1 from the end, and the succession rule

    root (0);   (j) -> (t-1)(t)...(j+t-1)

so each label-j node has j+1 children.  Level s of the tree is counted
by the Fuss-Catalan number binomial(st, s)/((t-1)s + 1).
"""
from collections import Counter
from collections.abc import Sequence

from .engine import is_extension
from .perms import Perm, perm
from .posets import saw_poset


def saw_label(pi: Sequence[int], s: int, t: int) -> int:
    """The j such that entry 1 sits at position st - j of pi."""
    ext = perm(pi)
    if not is_extension(saw_poset(s, t), ext):
        raise ValueError("not a linear extension of the sawblade poset")
    return s * t - (ext.index(1) + 1) if ext else 0  # the root is 0


def children_labels(j: int, t: int) -> set[int]:
    """Labels of the children of a label-j node: {t-1, t, ..., j+t-1}."""
    if j < 0 or t < 1:
        raise ValueError("need j >= 0 and t >= 1")
    return set(range(t - 1, j + t))


def count_at_depth(t: int, depth: int) -> int:
    """Number of tree nodes at the given depth, by dynamic programming
    over the label-count profile."""
    if t < 1 or depth < 0:
        raise ValueError("need t >= 1 and depth >= 0")
    profile: Counter[int] = Counter({0: 1})
    for _ in range(depth):
        nxt: Counter[int] = Counter()
        for j, cnt in profile.items():
            for child in range(t - 1, j + t):
                nxt[child] += cnt
        profile = nxt
    return sum(profile.values())


def grow_extensions(s: int, t: int) -> set[Perm]:
    """All extensions of saw_poset(s, t), materialized level by level.

    Each extension pi of the (k, t) sawblade yields its children by
    relabeling every entry up by t, appending 2, 3, ..., t at the end,
    and inserting 1 at each slot strictly after position kt - label(pi)
    and before the appended 2.
    """
    if s < 0 or t < 1:
        raise ValueError("need s >= 0 and t >= 1")
    level: set[Perm] = {()}
    for k in range(s):
        nxt: set[Perm] = set()
        for pi in level:
            n = k * t
            label = n - (pi.index(1) + 1) if pi else 0
            shifted = tuple(x + t for x in pi) + tuple(range(2, t + 1))
            # 1 may land anywhere after the old 1's slot, up to just
            # before the appended 2 -- label + 1 choices
            for pos in range(n - label, n + 1):
                nxt.add(shifted[:pos] + (1,) + shifted[pos:])
        level = nxt
    return level
