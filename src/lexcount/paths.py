"""
Lattice words, standard tableaux, and the constructive bijections.

Word conventions:

* Paths over {N, E} are plain strings like "NNENE".
* Zipper words use one letter N_j per tooth index; they are tuples of
  integers (j stands for N_j) and serialize as space-separated tokens
  "N1 N2 ...", which stays unambiguous past nine teeth.
* The three-letter words attached to 12354-avoidance are tuples over the
  tokens "N1", "N2", "E".

All bijections validate their inputs and raise ValueError on anything
outside their domain.  `BIJECTIONS` is the one table of the three, each
field a function of (..., s, t); `bijection` and verify read it.
"""
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations, combinations_with_replacement

from .engine import is_extension
from .perms import Perm, perm
from .posets import build, saw_poset, zip_poset

Tableau = tuple[tuple[int, ...], ...]
ZipperWord = tuple[int, ...]


def _ballot(word: Sequence, up, down, k: int = 1, lead: int = 0) -> bool:
    """True iff every prefix of word has lead + #up >= k * #down; other
    letters are skipped.  Every lattice-word family below is defined by
    one or two such inequalities."""
    bal = lead
    for x in word:
        if x == up:
            bal += 1
        elif x == down:
            bal -= k
            if bal < 0:
                return False
    return True


# ---------------------------------------------------------------------------
# Fuss-Catalan paths

def is_fuss_catalan(w: str, t: int) -> bool:
    """True iff w is a t-Fuss-Catalan path: s Es and (t-1)s Ns for some s,
    with every prefix holding at least t-1 times as many Ns as Es."""
    if t < 1 or any(ch not in "NE" for ch in w):
        return False
    return (_ballot(w, "N", "E", t - 1)
            and w.count("N") == (t - 1) * w.count("E"))


def fc_paths(s: int, t: int) -> Iterator[str]:
    """All t-Fuss-Catalan paths of semilength s: every placement of s Es
    among s * t letters that is_fuss_catalan accepts."""
    n = s * t
    for epos in combinations(range(n), s):
        word = ["N"] * n
        for p in epos:
            word[p] = "E"
        w = "".join(word)
        if is_fuss_catalan(w, t):
            yield w


def _fill(word: Iterable, queues: dict) -> Perm:
    """Hand each letter of word the next element of that letter's queue.
    Callers validate word first: a queue that ran dry would surface as a
    RuntimeError, not a ValueError."""
    heads = {letter: iter(queue) for letter, queue in queues.items()}
    return tuple(next(heads[letter]) for letter in word)


def ext_to_fcpath(pi: Sequence[int], s: int, t: int) -> str:
    """Encode a sawblade extension as a t-Fuss-Catalan path, one letter per
    entry of pi read from the right: a root (1, t+1, ..., (s-1)t+1) gives
    E, any other element N."""
    ext = perm(pi)
    if not is_extension(saw_poset(s, t), ext):
        raise ValueError("not a linear extension of the sawblade poset")
    return "".join("N" if (x - 1) % t else "E" for x in reversed(ext))


def fcpath_to_ext(w: str, s: int, t: int) -> Perm:
    """Inverse of ext_to_fcpath, reading w from the right: its Es take the
    roots (s-1)t+1, ..., t+1, 1 in turn, and its Ns the other elements of
    tooth s, then of tooth s-1, and so on down to tooth 1."""
    if not is_fuss_catalan(w, t) or w.count("E") != s:
        raise ValueError(f"not a {t}-Fuss-Catalan path of semilength {s}")
    teeth = range(s - 1, -1, -1)
    return _fill(reversed(w), {
        "E": [i * t + 1 for i in teeth],
        "N": [x for i in teeth for x in range(i * t + 2, i * t + t + 1)]})


# ---------------------------------------------------------------------------
# standard tableaux

def ext_to_tableau(pi: Sequence[int], s: int, t: int) -> Tableau:
    """Row r, column c of the tableau records the position in pi of the
    element (s-r)t + c; rows and columns come out strictly increasing."""
    ext = perm(pi)
    if not is_extension(build("EN", s, t), ext):
        raise ValueError("not a linear extension of the EN grid")
    pos = {x: k + 1 for k, x in enumerate(ext)}
    return tuple(tuple(pos[(s - r) * t + c] for c in range(1, t + 1))
                 for r in range(1, s + 1))


def is_standard_tableau(rows: Sequence[Sequence[int]]) -> bool:
    entries = [x for row in rows for x in row]
    if sorted(entries) != list(range(1, len(entries) + 1)):
        return False
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        return False
    for row in rows:
        if any(a >= b for a, b in zip(row, row[1:])):
            return False
    for up, down in zip(rows, rows[1:]):
        if any(a >= b for a, b in zip(up, down)):
            return False
    return True


def tableau_to_ext(rows: Sequence[Sequence[int]]) -> Perm:
    """Inverse of ext_to_tableau."""
    if not rows or not is_standard_tableau(rows):
        raise ValueError("not a standard rectangular tableau")
    s, t = len(rows), len(rows[0])
    out = [0] * (s * t)
    for r, row in enumerate(rows, start=1):
        for c, position in enumerate(row, start=1):
            out[position - 1] = (s - r) * t + c
    return tuple(out)


def standard_tableaux(s: int, t: int) -> Iterator[Tableau]:
    """All standard tableaux of rectangular shape with s rows of length t,
    generated by placing 1, 2, ... at the frontier of each row."""
    rows: list[list[int]] = [[] for _ in range(s)]

    def rec(k: int) -> Iterator[Tableau]:
        if k > s * t:
            yield tuple(tuple(row) for row in rows)
            return
        for r, row in enumerate(rows):
            if len(row) < t and (r == 0 or len(rows[r - 1]) > len(row)):
                row.append(k)
                yield from rec(k + 1)
                row.pop()

    return rec(1)


# ---------------------------------------------------------------------------
# Catalan zippers

def is_zipper(w: Sequence[int], s: int, t: int) -> bool:
    """True iff w is a Catalan zipper of dimension s and length t: each of
    N_1..N_s appears t times, each adjacent projection (N_j as N, N_{j+1}
    as E) is a Catalan path, and the rightmost N_j precedes the leftmost
    N_{j+2}."""
    if s < 1 or t < 1:
        return False
    word = tuple(w)
    if len(word) != s * t or any(not 1 <= x <= s for x in word):
        return False
    if any(word.count(j) != t for j in range(1, s + 1)):
        return False
    if not all(_ballot(word, j, j + 1) for j in range(1, s)):
        return False
    for j in range(1, s - 1):
        last_j = max(p for p, x in enumerate(word) if x == j)
        first_j2 = min(p for p, x in enumerate(word) if x == j + 2)
        if last_j > first_j2:
            return False
    return True


def zippers(s: int, t: int) -> Iterator[ZipperWord]:
    """All Catalan zippers of dimension s and length t, built letter class
    by letter class so only valid interleavings are explored."""
    def rec(word: tuple[int, ...], j: int) -> Iterator[ZipperWord]:
        if j > s:
            yield word
            return
        lo = 0
        if j >= 3:
            lo = max(p for p, x in enumerate(word) if x == j - 2) + 1
        slots = range(lo, len(word) + 1)
        for places in combinations_with_replacement(slots, t):
            merged: list[int] = []
            prev = 0
            for p in places:
                merged.extend(word[prev:p])
                merged.append(j)
                prev = p
            merged.extend(word[prev:])
            # Catalan projection against the previous letter
            if j < 2 or _ballot(merged, j - 1, j):
                yield from rec(tuple(merged), j + 1)

    if s < 1 or t < 1:
        return iter(())
    return rec((), 1)


def ext_to_zipper(pi: Sequence[int], s: int, t: int) -> ZipperWord:
    """Encode a 2143-avoiding EN extension one letter per entry of pi, in
    order: an element of tooth k gives N_j with j = s + 1 - k."""
    ext = perm(pi)
    if not is_extension(zip_poset(s, t), ext):
        raise ValueError("not a 2143-avoiding extension of the EN grid")
    return tuple(s - (x - 1) // t for x in ext)


def zipper_to_ext(w: Sequence[int], s: int, t: int) -> Perm:
    """Inverse of ext_to_zipper: each N_j of w takes the next element of
    tooth s + 1 - j, in increasing order."""
    if not is_zipper(w, s, t):
        raise ValueError(f"not a Catalan zipper of dimension {s}, length {t}")
    return _fill(w, {j: range((s - j) * t + 1, (s - j + 1) * t + 1)
                     for j in range(1, s + 1)})


def format_zipper(w: Sequence[int]) -> str:
    return " ".join(f"N{x}" for x in w)


def parse_zipper(text: str) -> ZipperWord:
    out = []
    for tok in text.split():
        if not tok.startswith("N") or not tok[1:].isdecimal():
            raise ValueError(f"bad zipper letter {tok!r}")
        out.append(int(tok[1:]))
    return tuple(out)


# kind -> its Bijection; objects(s, t) gives every word of the shape
Bijection = namedtuple("Bijection", "poset encode decode valid objects")
BIJECTIONS = {
    "tableau": Bijection(lambda s, t: build("EN", s, t), ext_to_tableau,
                         lambda T, s, t: tableau_to_ext(T),
                         lambda T, s, t: is_standard_tableau(T),
                         standard_tableaux),
    "fcpath": Bijection(saw_poset, ext_to_fcpath, fcpath_to_ext,
                        lambda w, s, t: is_fuss_catalan(w, t), fc_paths),
    "zipper": Bijection(zip_poset, ext_to_zipper, zipper_to_ext, is_zipper,
                        zippers),
}


# ---------------------------------------------------------------------------
# j,k-Catalan paths

def is_jk_catalan(w: str, n: int, j: int, k: int) -> bool:
    """True iff w consists of j Ns and n Es, becomes a Catalan path after
    prepending n - j Ns, and ends with N followed by k Es (or k = n and
    w is all Es)."""
    if not (0 <= j <= n and 1 <= k <= n):
        return False
    if w.count("N") != j or w.count("E") != n or len(w) != j + n:
        return False
    tail_ok = (len(w) >= k + 1 and w[-(k + 1):] == "N" + "E" * k) or \
              (k == n and w == "E" * n)
    return tail_ok and _ballot(w, "N", "E", lead=n - j)


def jk_paths(n: int, j: int, k: int) -> Iterator[str]:
    for npos in combinations(range(j + n), j):
        word = ["E"] * (j + n)
        for p in npos:
            word[p] = "N"
        w = "".join(word)
        if is_jk_catalan(w, n, j, k):
            yield w


def enumerate_jk(n: int, j: int, k: int) -> int:
    """Count of j,k-Catalan paths by direct generation; the slow oracle
    the transfer-matrix recurrence is checked against."""
    return sum(1 for _ in jk_paths(n, j, k))


# ---------------------------------------------------------------------------
# the three-letter paths counting 12354-avoiders

def is_12354_path(w: Sequence[str], s: int, t: int) -> bool:
    """True iff w has s N1s, s N2s, and (t-2)s Es, every prefix has at
    least as many N1s as N2s, and every prefix has at least t-2 times as
    many Es as N1s."""
    if t < 2 or s < 0:
        return False
    word = tuple(w)
    if len(word) != s * t or any(x not in ("N1", "N2", "E") for x in word):
        return False
    if word.count("N1") != s or word.count("N2") != s:
        return False
    return _ballot(word, "N1", "N2") and _ballot(word, "E", "N1", t - 2)


def paths_12354(s: int, t: int) -> Iterator[tuple[str, ...]]:
    n = s * t
    for n1pos in combinations(range(n), s):
        remaining = [p for p in range(n) if p not in set(n1pos)]
        for n2sel in combinations(remaining, s):
            word = ["E"] * n
            for p in n1pos:
                word[p] = "N1"
            for p in n2sel:
                word[p] = "N2"
            w = tuple(word)
            if is_12354_path(w, s, t):
                yield w


def enumerate_12354_paths(s: int, t: int) -> int:
    return sum(1 for _ in paths_12354(s, t))


def ext_to_12354_path(pi: Sequence[int], s: int, t: int) -> tuple[str, ...]:
    """Encode a 12354-avoiding EN extension one letter per entry of pi read
    from the right, as ext_to_fcpath does: an element on spine t (x = 1
    mod t) gives N2, one on spine t - 1 (x = 2 mod t) N1, any other E."""
    ext = perm(pi)
    if t < 2:
        raise ValueError("defined for t >= 2 only")
    if not is_extension(build("EN", s, t), ext):
        raise ValueError("not a linear extension of the EN grid")
    return tuple(("N2", "N1", "E")[min((x - 1) % t, 2)] for x in reversed(ext))
