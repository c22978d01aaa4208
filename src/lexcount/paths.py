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
from collections.abc import Callable, Iterable, Iterator, Sequence

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


def ballot_words(counts: dict, ok: Callable) -> Iterator[tuple]:
    """The words with counts[x] copies of each letter x, lexicographically
    in the order of counts: x goes down only while a copy is left and
    ok(x, placed) holds, placed counting the letters with x, so no failing
    prefix grows (Knuth, TAOCP 4A, 7.2.1.6).  A count < 0 is a ValueError."""
    if min(counts.values(), default=0) < 0:
        raise ValueError(f"negative letter count in {counts}")
    n, placed = sum(counts.values()), dict.fromkeys(counts, 0)
    if n == 0:
        yield ()
    word, tries = [], [iter(counts)]  # tries[d]: letters left for spot d
    while tries:
        for x in tries[-1]:
            if placed[x] < counts[x]:
                placed[x] += 1
                if ok(x, placed):
                    word.append(x)
                    if len(word) < n:
                        tries.append(iter(counts))
                        break
                    yield tuple(word)  # full: try its other last letters
                    word.pop()
                placed[x] -= 1
        else:  # every letter tried at this spot: step back
            tries.pop()
            if word:
                placed[word.pop()] -= 1


# ---------------------------------------------------------------------------
# Fuss-Catalan paths

def is_fuss_catalan(w: str, t: int) -> bool:
    """True iff w is a t-Fuss-Catalan path: a string of s Es and (t-1)s
    Ns, every prefix holding at least t-1 times as many Ns as Es."""
    if t < 1 or not isinstance(w, str) or any(ch not in "NE" for ch in w):
        return False
    return (_ballot(w, "N", "E", t - 1)
            and w.count("N") == (t - 1) * w.count("E"))


def fc_paths(s: int, t: int) -> Iterator[str]:
    """All t-Fuss-Catalan paths of semilength s, E before N: an E goes
    down only while #N >= (t-1) #E.  There are none for t < 1."""
    if t < 1 and s >= 0:
        return iter(())
    return map("".join, ballot_words({"E": s, "N": (t - 1) * s},
                                     lambda x, c: c["N"] >= (t - 1) * c["E"]))


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
    """True iff rows is a standard rectangular tableau of ints: a list or
    tuple of rows, each a list or tuple and none empty."""
    if not (isinstance(rows, (list, tuple)) and all(
            isinstance(row, (list, tuple)) and row for row in rows)):
        return False
    entries = [x for row in rows for x in row]
    if (any(type(x) is not int for x in entries)
            or sorted(entries) != list(range(1, len(entries) + 1))):
        return False
    pairs = [p for row in rows for p in zip(row, row[1:])]  # along rows
    pairs += [p for up, down in zip(rows, rows[1:]) for p in zip(up, down)]
    return len({len(row) for row in rows}) < 2 and all(a < b for a, b in pairs)


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
    in the lexicographic order of their row words, whose kth letter is
    the row of k: k goes to row r only while row r-1 stays longer."""
    if t < 1 <= s:  # no row may be empty
        return iter(())

    def tableau(word: tuple[int, ...]) -> Tableau:  # k goes in row word[k-1]
        rows: tuple[list[int], ...] = tuple([] for _ in range(s))
        for k, r in enumerate(word, 1):
            rows[r].append(k)
        return tuple(map(tuple, rows))

    return map(tableau, ballot_words(dict.fromkeys(range(s), t),
                                     lambda r, c: r == 0 or c[r - 1] >= c[r]))


# ---------------------------------------------------------------------------
# Catalan zippers

def is_zipper(w: Sequence[int], s: int, t: int) -> bool:
    """True iff w is a Catalan zipper of dimension s and length t: each of
    N_1..N_s appears t times, each adjacent projection (N_j as N, N_{j+1}
    as E) is a Catalan path, and the rightmost N_j precedes the leftmost
    N_{j+2}, w being a list or tuple."""
    if s < 1 or t < 1 or not isinstance(w, (list, tuple)):
        return False
    word = tuple(w)
    # with s * t ints, t copies of each of 1..s leave no room for others
    if len(word) != s * t or any(type(x) is not int for x in word):
        return False
    if any(word.count(j) != t for j in range(1, s + 1)):
        return False
    return (all(_ballot(word, j, j + 1) for j in range(1, s))
            and all(max(p for p, x in enumerate(word) if x == j)
                    < min(p for p, x in enumerate(word) if x == j + 2)
                    for j in range(1, s - 1)))


def zippers(s: int, t: int) -> Iterator[ZipperWord]:
    """All Catalan zippers of dimension s and length t: N_j goes down only
    while #N_{j-1} >= #N_j, and only after every N_{j-2}."""
    if s < 1 or t < 1:
        return iter(())
    return ballot_words(dict.fromkeys(range(1, s + 1), t), lambda j, c: (
        j == 1 or (c[j - 1] >= c[j] and (j == 2 or c[j - 2] == t))))


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
    w is all Es); w is a str."""
    if not (0 <= j <= n and 1 <= k <= n and isinstance(w, str)):
        return False
    if w.count("N") != j or w.count("E") != n or len(w) != j + n:
        return False
    tail_ok = (len(w) >= k + 1 and w[-(k + 1):] == "N" + "E" * k) or \
              (k == n and w == "E" * n)
    return tail_ok and _ballot(w, "N", "E", lead=n - j)


def jk_paths(n: int, j: int, k: int) -> Iterator[str]:
    """N before E; an E only while n - j + #N >= #E, then the tail test."""
    words = ballot_words({"N": j, "E": max(n, 0)},  # none for n < 0
                         lambda x, c: n - j + c["N"] >= c["E"])
    return (w for w in map("".join, words) if is_jk_catalan(w, n, j, k))


def enumerate_jk(n: int, j: int, k: int) -> int:
    """Count of j,k-Catalan paths by direct generation, which the
    transfer-matrix recurrence is checked against."""
    return sum(1 for _ in jk_paths(n, j, k))


# ---------------------------------------------------------------------------
# the three-letter paths counting 12354-avoiders

def is_12354_path(w: Sequence[str], s: int, t: int) -> bool:
    """True iff w has s N1s, s N2s, and (t-2)s Es, every prefix has at
    least as many N1s as N2s, and every prefix has at least t-2 times as
    many Es as N1s, w being a list or tuple."""
    if t < 2 or s < 0 or not isinstance(w, (list, tuple)):
        return False
    word = tuple(w)
    if len(word) != s * t or any(x not in ("N1", "N2", "E") for x in word):
        return False
    if word.count("N1") != s or word.count("N2") != s:
        return False
    return _ballot(word, "N1", "N2") and _ballot(word, "E", "N1", t - 2)


def paths_12354(s: int, t: int) -> Iterator[tuple[str, ...]]:
    """Every prefix keeps #N1 >= #N2 and #E >= (t-2) #N1; none for t < 2."""
    if t < 2 and s >= 0:
        return iter(())
    return ballot_words({"N1": s, "N2": s, "E": (t - 2) * s}, lambda x, c: (
        c["N1"] >= c["N2"] and c["E"] >= (t - 2) * c["N1"]))


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
