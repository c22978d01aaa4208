"""
Enumerate and count (pattern-avoiding) linear extensions.

`_avoider_dp` is the package's one order-ideal DP, a forward DP over
prefix length that leaves the weight of a placement to its caller:
`count_avoiders` and `count_extensions` count, `stat_gf` sums q^inv or
q^maj, and `listing` keeps out-edges and builds the text `list` prints,
which `format_avoiders` splits into lines and `list_avoiders` parses.
The docstring of `_avoider_dp` describes the states, their dominance and
the gap rules that kill dead states (the gap-vector test of Zeilberger's
and Vatter's enumeration schemes); that of `listing` describes the
backward prune and the block walk.

`avoiders` is the independent reference the DP is tested against: a
backtracking generator that tries the elements `GridPoset.ready` gives
for the placed set, lowest label first, and prunes a branch as soon as
the prefix contains a forbidden pattern.  Since a contained pattern can
never be destroyed by appending, it tests only occurrences that end at
the newly placed element.
"""
from collections.abc import Iterable, Iterator, Sequence
from math import factorial
from operator import le

from .perms import (Perm, contains, ending_matcher, is_perm, parse_perm, perm,
                    perm_sep)
from .polys import QPoly
from .posets import GridPoset, build


# ---------------------------------------------------------------------------
# enumeration

def linear_extensions(poset: GridPoset) -> Iterator[Perm]:
    """All linear extensions, in lexicographic order."""
    return avoiders(poset, ())


def avoiders(poset: GridPoset, patterns: Iterable[Sequence[int]]) -> Iterator[Perm]:
    """Linear extensions avoiding every pattern, in lexicographic order,
    by backtracking.

    Cyclic constraint sets are rejected here, before iteration starts.
    """
    n = poset.n
    patset = {tuple(p) for p in patterns}
    matchers = [ending_matcher(perm(p)) for p in sorted(patset)]
    poset._closure  # noqa: B018 -- topological sort; raises on a cycle
    if () in patset:
        return iter(())  # the empty pattern is contained in everything

    prefix: list[int] = []

    def rec(placed: int) -> Iterator[Perm]:
        k = len(prefix)
        if k == n:
            yield tuple(prefix)
            return
        ready = poset.ready(placed)
        while ready:
            bit = ready & -ready
            ready ^= bit
            x = bit.bit_length()
            if any(ends_at(prefix, k, x) for ends_at in matchers):
                continue
            prefix.append(x)
            yield from rec(placed | bit)
            prefix.pop()

    return rec(0)


def list_avoiders(poset: GridPoset,
                  patterns: Iterable[Sequence[int]]) -> list[Perm]:
    """Linear extensions avoiding every pattern, in lexicographic order:
    the list `avoiders` gives, parsed from the lines of `format_avoiders`.

    A cyclic poset or a bad pattern raises here.
    """
    return [parse_perm(line) for line in format_avoiders(poset, patterns)]


def format_avoiders(poset: GridPoset,
                    patterns: Iterable[Sequence[int]]) -> list[str]:
    """`format_perm` of each pattern-avoiding extension, in lexicographic
    order: the lines of the text `listing` gives."""
    return [line for chunk in listing(poset, patterns)
            for line in chunk.split("\n")]


# The most characters a state's block may hold.  At a few thousand
# characters the walk's Python work per chunk is already small beside
# copying the chunk's text.  A larger cap gains nothing: it builds bigger
# blocks that then overflow it, and the blocks kept take up to states x
# BLOCK_CAP characters.
BLOCK_CAP = 1 << 12


def listing(poset: GridPoset, patterns: Iterable[Sequence[int]]) -> list[str]:
    """The text `list` prints, as chunks of whole lines: "\n".join(chunks)
    is `format_perm` of each pattern-avoiding extension, one a line, in
    lexicographic order.  [] if no extension avoids the patterns, [""] for
    the one empty extension of the empty poset.

    The DP weighs each state by its out-edge list [(x, child's list)], x
    increasing, and layers[k] holds the lists of layer k.  A backward pass
    keeps only the edges into states from which some extension can be
    completed; every state of the last layer can, and a state of an
    earlier layer can iff it keeps an edge.  An edge's token is its label,
    after the separator unless the edge leaves the root.  The same pass
    gives a state its block, the text of all its completions, one a line:
    "" in the last layer; above it, when every kept child has a block,
    each child's lines with the edge's token before each, joined, if that
    holds at most BLOCK_CAP characters.  The edge into a state with a
    block carries the block in place of the state.  A block at the root
    is the whole text.  Otherwise the walk descends, in increasing label
    order, only through states without a block, and at each edge into a
    block appends one chunk: the block with the tokens of the path down,
    the edge's included, before each line.

    The cap bounds the memory the blocks take: one per state, each of at
    most BLOCK_CAP characters, so at most states x BLOCK_CAP beside the
    output however long the listing is.  The graph, dead states included,
    is freed on return.
    """
    n = poset.n
    root: list = []
    layers = [[root]] + [[] for _ in range(n)]

    def edge(nxt, state, edges, mask, x, r, k):
        child = nxt.get(state)
        if child is None:
            child = nxt[state] = []
            layers[k + 1].append(child)
        edges.append((x, child))

    if not _avoider_dp(poset, patterns, root, edge):
        return []
    labels = [str(x) for x in range(1, n + 1)]
    tokens = [perm_sep(n) + label for label in labels]
    blocks = {id(edges): "" for edges in layers[-1]}
    for k in range(n - 1, -1, -1):
        toks = tokens if k else labels
        for edges in layers[k]:
            edges[:] = [(x, blocks.get(id(child), child))
                        for x, child in edges if child or id(child) in blocks]
            if edges and all(type(child) is str for _, child in edges):
                block = "\n".join(toks[x] + b.replace("\n", "\n" + toks[x])
                                  for x, b in edges)
                if len(block) <= BLOCK_CAP:
                    blocks[id(edges)] = block
    if id(root) in blocks:
        return [blocks[id(root)]]
    chunks = []
    stack = [(iter(root), "", labels)]
    while stack:
        edges, prefix, toks = stack[-1]
        for x, child in edges:
            p = prefix + toks[x]
            if type(child) is str:
                chunks.append(p + child.replace("\n", "\n" + p))
            else:
                stack.append((iter(child), p, tokens))
                break
        else:
            stack.pop()
    return chunks


def count_avoiders(poset: GridPoset, patterns: Iterable[Sequence[int]]) -> int:
    """Number of linear extensions avoiding every pattern."""
    def add(nxt, state, ways, mask, x, r, k):
        nxt[state] = nxt.get(state, 0) + ways
    return sum(_avoider_dp(poset, patterns, 1, add).values())


def count_extensions(poset: GridPoset) -> int:
    """Exact number of linear extensions: the avoider DP without patterns,
    whose states are then the order ideals alone.  An s x t grid has at
    most C(s+t, s) of them, and extra precedence pairs only remove some,
    so there is no element limit.  Raises ValueError on a cycle."""
    return count_avoiders(poset, ())


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
    def inv(nxt, state, ways, mask, x, r, k):
        # placing x adds the number of placed values above x
        ways <<= width * (mask >> x).bit_count()
        nxt[state] = nxt.get(state, 0) + ways

    def maj(nxt, state, ways, mask, x, r, k):
        # placing x adds k if x is below the last value placed, that is if r
        # is below that value's rank, which the key keeps above bit n
        if r < mask >> n:
            ways <<= width * k
        state = (state[0] & full | r << n, state[1])
        nxt[state] = nxt.get(state, 0) + ways

    edge = {"inv": inv, "maj": maj}[stat]
    n = poset.n
    width = factorial(n).bit_length()
    full = (1 << n) - 1
    packed = sum(_avoider_dp(poset, patterns, 1, edge).values())
    low = (1 << width) - 1
    out = []
    while packed:
        out.append(packed & low)
        packed >>= width
    return tuple(out)


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit.bit_length() - 1


def _slot_plan(sig: Perm, L: int) -> tuple:
    """What decides the future of a match of sig[:L]: the positions in
    sig[:L] of the lower and upper neighbours of sig[L] (-1 for none); for
    each position, whether it bounds the slot of some entry sig[j], j >= L;
    the positions that bound slots from both sides, from below only and
    from above only; and the (lower, upper) neighbours of each slot j >= L
    that is bounded above."""
    slots = [(max((q for q in range(L) if sig[q] < v),
                  key=sig.__getitem__, default=-1),
              min((q for q in range(L) if sig[q] > v),
                  key=sig.__getitem__, default=-1))
             for v in sig[L:]]
    lows = {lo for lo, _ in slots} - {-1}
    highs = {hi for _, hi in slots} - {-1}
    return (slots[0], tuple(q in lows | highs for q in range(L)),
            sorted(lows & highs), sorted(lows - highs), sorted(highs - lows),
            [(lo, hi) for lo, hi in slots if hi >= 0])


def _avoider_dp(poset: GridPoset, patterns: Iterable[Sequence[int]],
                root, edge) -> dict:
    """The last layer of the avoider DP, a map from state to weight.

    Layer k maps each state reachable by a k-element prefix to a weight,
    layer 0 its one state to root (none if a pattern is empty).  Placing
    x + 1, of rank r among the unplaced values, at a state of layer k with
    weight ways calls edge(nxt, (mask | 1 << x, matches after), ways, mask,
    x, r, k) to add its weight to layer k + 1, nxt, under that key or one
    of the edge's own, which may use the mask bits above n.

    A state is (mask of placed elements, id of a set of partial matches),
    and places the elements of `GridPoset.ready(mask)`, lowest first.
    A match (i, gaps) of length L maps sigma_i[:L] into the prefix, and
    gaps[q] is the number of unplaced values below the value matched to
    sigma_i[q].  A value with r unplaced values below it lies above exactly
    the matched values with gap <= r, so the gaps decide every comparison
    with future values.  Each entry sigma_i[j], j >= L, must fall in the
    slot between the matched values next to it in sigma_i[:L]: above the
    one whose gap is the slot's lower bound, below the one whose gap is its
    upper bound.  A gap that bounds no slot decides nothing any more and is
    stored as 0.  Match A dominates match B of the same pattern and length
    if each slot of A contains the same slot of B: A's lower bounds are <=
    B's and its upper bounds >= B's.  Then every value that extends or
    completes B does the same to A, and the matches that result keep the
    relation, so B never decides whether a prefix dies.  A state keeps only
    the matches no other match dominates, the empty match of every pattern
    among them: prefixes with the same ideal and the same such matches
    have the same completions, so dropping B changes no count or
    polynomial, and more prefixes share a state.  Nor does it change the
    order of `list`, whose walk takes the out-edges of every state in
    increasing label order, whichever prefixes share the state.

    Every unplaced value comes after the prefix, and values only leave a
    slot, so two rules find dead states when they form, from a match's
    gaps.  The slot of sigma_i[j] holds the unplaced values of rank r with
    lower gap <= r < upper gap, a missing lower neighbour counting as gap
    0.  One entry short: if a match lacks only sigma_i's last entry and its
    slot holds a value, that value will complete the pattern, so the state
    is dead and is never built.  Hopeless: a match with a slot still to
    fill, the last one included, that is bounded above and empty can never
    complete, and is dropped.  Both are decided once, when a match is
    interned, except for a one-short slot open above, which holds a value
    iff its lower gap is below the n - k - 1 values left unplaced after the
    placement.  The per-rank memos cannot see that count, so the memo of a
    set and a rank keeps the least such lower gap beside the id of the set
    it leads to, and the layer loop compares the two.  No gap exceeds the
    count, so in a state that lives each such gap equals it: the slot is
    empty for good, and the match is dropped as well.  No set keeps a match
    one entry short, then, and no step completes a pattern.  The rules are
    sufficient, not complete: a state whose every completion the poset
    blocks through several matches or elements is still built, so
    `listing` keeps its backward prune.

    Matches are interned as ints, and a set of matches is the mask of
    their ids, interned in turn.  Dominance is decided once per pair of
    matches, when the later one is interned.  Each match keeps the mask of
    what a value of rank r leaves of it, and each set the set it becomes
    and that least gap, so one call of the DP takes each step once per rank.
    """
    pats = sorted({perm(p) for p in patterns})
    n = poset.n
    full = (1 << n) - 1
    plan = [[_slot_plan(sig, L) for L in range(len(sig))] for sig in pats]

    matches: dict = {}  # (i, gaps) -> id, -1 if dead
    info: list = []     # id -> (i, gaps)
    moves: list = []    # id -> r -> mask of the matches it leaves, -1 if dead
    # groups[(i, L, the gaps that bound slots from both sides, which must be
    # equal)]: [(id, coordinates)], the lower bounds and the negated upper
    # bounds, so that A dominates B iff A's are <= B's one by one.
    # below[id]: the mask of the matches of its group that it dominates,
    # and its own bit if it is one entry short: a set keeps neither
    groups: dict = {}
    below: list = []
    # short[id]: the lower gap of a match one entry short whose slot is open
    # above, n for any other match
    short: list = []

    def match(i: int, gaps: tuple) -> int:
        """The id of match (i, gaps), classified once: -1 if it is one
        entry short and its slot, bounded above, holds a value; the id of
        the empty match of sigma_i, which every set holds, if a slot still
        to fill is bounded above and empty."""
        mid = matches.get((i, gaps))
        if mid is None:
            L = len(gaps)
            (lo, hi), _, both, low, high, bounded = plan[i][L]
            ends = L + 1 == len(pats[i])
            if any((gaps[a] if a >= 0 else 0) >= gaps[b] for a, b in bounded):
                mid = match(i, ())
            elif ends and hi >= 0:
                mid = -1
            else:
                mid = len(info)
                info.append((i, gaps))
                moves.append([None] * n)
                short.append((gaps[lo] if lo >= 0 else 0) if ends else n)
                below.append(1 << mid if ends else 0)
                coords = [gaps[q] for q in low] + [-gaps[q] for q in high]
                key = i, L, tuple(gaps[q] for q in both)
                group = groups.setdefault(key, [])
                for other, theirs in group:
                    if all(map(le, coords, theirs)):
                        below[mid] |= 1 << other
                    elif all(map(le, theirs, coords)):
                        below[other] |= 1 << mid
                group.append((mid, coords))
            matches[i, gaps] = mid
        return mid

    def step(mid: int, r: int) -> int:
        """The mask of what placing a value of rank r leaves: the match with
        its gaps renumbered and, if the value fits the next slot, the match
        extended by it, each as `match` classifies it; -1 if the latter is
        dead.  No set holds a match one entry short, so none completes here."""
        i, gaps = info[mid]
        (lo, hi), *_ = plan[i][len(gaps)]
        shifted = tuple(g - (g > r) for g in gaps)
        kept = 1 << match(i, shifted)
        if lo >= 0 and gaps[lo] > r or hi >= 0 and gaps[hi] <= r:
            return kept
        used = plan[i][len(gaps) + 1][1]
        grown = match(i, tuple(g if u else 0 for g, u
                               in zip(shifted + (r,), used)))
        return -1 if grown < 0 else kept | 1 << grown

    sets: dict = {}     # mask of match ids -> id
    members: list = []  # id -> match ids
    # after[id][r]: `settle` of the matches that placing a value of rank r
    # leaves, dead (below every count of unplaced values) if one of them is
    # dead
    after: list = []
    dead = (-1, -1)

    def settle(new: int) -> tuple:
        """(id of the set of the matches in new that no other one dominates
        but those one entry short with a slot open above, the least lower
        gap of those, n if none).  A state is live only if that gap is at
        least its number of unplaced values; then it is equal, every such
        slot is empty for good, and the matches are dropped."""
        drop, low = 0, n
        for mid in _bits(new):
            drop |= below[mid]
            if short[mid] < low:
                low = short[mid]
        new &= ~drop
        sid = sets.get(new)
        if sid is None:
            sid = sets[new] = len(members)
            members.append(tuple(_bits(new)))
            after.append([None] * n)
        return sid, low

    def advance(sid: int, r: int) -> tuple:
        new = 0
        for mid in members[sid]:
            row = moves[mid]
            move = row[r]
            if move is None:
                move = row[r] = step(mid, r)
            if move < 0:
                return dead
            new |= move
        return settle(new)

    layer: dict = {}
    poset._closure  # noqa: B018 -- topological sort; raises on a cycle
    if () not in pats:  # the empty pattern is contained in everything
        sid, low = settle(sum(1 << match(i, ()) for i in range(len(pats))))
        if low >= n:
            layer[0, sid] = root
    for k in range(n):
        nxt: dict = {}
        live = n - k - 1  # values still unplaced after this placement
        for (mask, sid), ways in layer.items():
            free = full & ~mask
            row = after[sid]
            ready = poset.ready(mask)
            while ready:
                bit = ready & -ready
                ready ^= bit
                x = bit.bit_length() - 1
                r = (free & (bit - 1)).bit_count()
                move = row[r]
                if move is None:
                    move = row[r] = advance(sid, r)
                nsid, low = move
                if low >= live:
                    edge(nxt, (mask | bit, nsid), ways, mask, x, r, k)
        layer = nxt
    return layer


# ---------------------------------------------------------------------------
# the 213 insertion construction on NE grids

def insert_213(ext: Sequence[int], s: int, t: int, position_choice: int) -> Perm:
    """Map a 213-avoiding extension of the NE s x t grid to one of the NE
    (s+1) x t grid: prepend `position_choice` new largest values, then the
    old first entry, then the remaining new values in decreasing order.
    """
    pi = perm(ext)
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
    if len(pi) != poset.n or not is_perm(pi):
        return False
    pos = {x: k for k, x in enumerate(pi)}
    for b in range(1, poset.n + 1):
        for a in poset.direct_preds[b - 1]:
            if pos[a] > pos[b]:
                return False
    return True
