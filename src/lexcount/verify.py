"""
Verification suites: every identity the package implements twice gets a
named check comparing the two computations, and every conjectured
identity gets a bounded consistency check.

Theorem checks report pass/fail; conjecture checks report consistent/
counterexample and never claim more than the sizes actually tested.
The CLI's `verify` subcommand and the test suite both run these.
"""
from collections import namedtuple
from collections.abc import Callable, Iterable
from math import comb

from . import formulas, gentree, paths, qstats, transfer
from .engine import avoiders, count_avoiders, count_extensions
from .perms import Perm, reverse_complement
from .polys import QPoly, degree, format_q, is_unimodal, poly
from .posets import TAGS, build, canonicalize


# status is "pass", "fail", "consistent" or "counterexample"
class CheckResult(namedtuple("CheckResult", "name status detail",
                             defaults=("",))):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "consistent")


def _check(name: str, failures: list[str], instances: int,
           conjecture: bool = False) -> CheckResult:
    if failures:
        status = "counterexample" if conjecture else "fail"
        return CheckResult(name, status, "; ".join(failures[:5]))
    status = "consistent" if conjecture else "pass"
    return CheckResult(name, status, f"{instances} instances")


def _compare(name: str, rows: Iterable[tuple[str, object, object]],
             conjecture: bool = False) -> CheckResult:
    """Each (label, got, want) row is one instance; a row with
    got != want fails under its label."""
    rows = list(rows)
    failures = [label for label, got, want in rows if got != want]
    return _check(name, failures, len(rows), conjecture)


def _span(gf: QPoly) -> tuple[int, int]:
    """Lowest and highest power of q in a nonzero polynomial."""
    return next(k for k, c in enumerate(gf) if c), degree(gf)


# ---------------------------------------------------------------------------
# theorem suite

def _shapes(max_n: int, min_t: int = 1) -> Iterable[tuple[int, int]]:
    for s in range(1, max_n + 1):
        for t in range(min_t, max_n // s + 1):
            yield s, t


def check_formulas_vs_oracle(max_n: int = 12) -> CheckResult:
    """Every row of the closed-form table, and the hook count, equals the
    brute-force count."""
    rows = []
    for family, pats in [*formulas.CLOSED_FORMS, ("EN", ())]:
        for s, t in _shapes(max_n):
            res = formulas.count_formula(canonicalize(family, s, t, pats))
            if res is not None:
                oracle = sum(1 for _ in avoiders(build(family, s, t), pats))
                rows.append((f"{family}:{s}x{t} avoid {sorted(pats)}: "
                             f"formula {res.value} ({res.provenance}) "
                             f"!= oracle {oracle}", res.value, oracle))
    return _compare("closed forms vs brute force", rows)


def check_hook_count(max_n: int = 16) -> CheckResult:
    rows = [(f"{s}x{t}", formulas.hook_count(s, t),
             count_extensions(build("EN", s, t))) for s, t in _shapes(max_n)]
    rows += [(f"2x{n} vs catalan", formulas.hook_count(2, n),
              formulas.catalan(n)) for n in range(1, 11)]
    return _compare("hook-product count vs order-ideal DP", rows)


def check_rc_closure(max_n: int = 9) -> CheckResult:
    """Counts are invariant under reverse-complementing the pattern."""
    from itertools import permutations
    return _compare("reverse-complement count invariance", (
        (f"{family}:{s}x{t} {sigma}",
         count_avoiders(build(family, s, t), [sigma]),
         sum(1 for _ in avoiders(build(family, s, t),
                                 [reverse_complement(sigma)])))
        for family in ("EN", "NE") for sigma in permutations(range(1, 5))
        for s in range(1, 4) for t in range(1, 4) if s * t <= max_n))


def check_gentree(max_n: int = 14) -> CheckResult:
    rows = [(f"depth DP ({s},{t})", gentree.count_at_depth(t, s),
             formulas.fuss_catalan(s, t))
            for t in range(1, 7) for s in range(0, 11)]
    rows += [(f"DP vs 1243 oracle ({s},{t})", gentree.count_at_depth(t, s),
              count_avoiders(build("EN", s, t), [(1, 2, 4, 3)]))
             for s, t in _shapes(max_n)]
    return _compare("generating-tree DP vs formula and oracle", rows)


def check_saw_zip_posets(max_n: int = 12) -> CheckResult:
    """Each augmented poset of TAGS carves out exactly its avoider set."""
    return _compare("sawblade/zipper posets vs avoider sets", (
        (f"{tag} {s}x{t}", count_extensions(make(s, t)),
         sum(1 for _ in avoiders(build("EN", s, t), [pattern])))
        for s, t in _shapes(max_n) for tag, (make, pattern) in TAGS.items()))


def check_b_matrix(max_n: int = 8, oracle_n: int = 6) -> CheckResult:
    """b(j,k;n) against path enumeration for n <= oracle_n, and its
    identities for n <= max_n; one row per (n, j, k) in each."""
    bms = {n: transfer.b_matrix(n)
           for n in range(1, max(max_n, oracle_n) + 1)}
    rows = [(f"b({j},{k};{n})", bms[n][j - 1][k - 1],
             paths.enumerate_jk(n, j, k)) for n in range(1, oracle_n + 1)
            for j in range(1, n + 1) for k in range(1, n + 1)]
    for n in range(1, max_n + 1):
        bm, bprev = bms[n], bms.get(n - 1, ())
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                b = bm[j - 1][k - 1]
                identities = [("symmetry", b, bm[n - k][n - j])]
                if k >= j:
                    identities.append(
                        ("binomial", b, comb(n - k + j - 1, j - 1)))
                if j > 1 and 1 < k < n:
                    identities.append(("second recurrence", b,
                                       bm[j - 1][k] + bprev[j - 2][k - 2]))
                names, got, want = zip(*identities)
                rows.append((f"{', '.join(names)} ({j},{k};{n})", got, want))
    return _compare("b-matrix identities", rows)


def check_count_2143(max_oracle: int = 16) -> CheckResult:
    rows = []
    for s, t in _shapes(max_oracle):
        oracle = count_avoiders(build("EN", s, t), [(2, 1, 4, 3)])
        tm = transfer.count_2143(s, t)
        zc = sum(1 for _ in paths.zippers(s, t))
        rows.append((f"({s},{t}): oracle {oracle}, matrix {tm}, zippers {zc}",
                     (tm, zc), (oracle, oracle)))
    rows += [(f"closed form ({s},{t})", transfer.count_2143(s, t),
              formulas.count_2143_closed(s, t))
             for t in formulas.CLOSED_FORMS[("EN", ((2, 1, 4, 3),))].parts
             for s in range(1, 13)]
    return _compare("2143 counts: oracle, matrix, zippers, closed forms", rows)


def check_char_poly() -> CheckResult:
    expected = {2: (1, -2), 3: (1, -4, -1), 4: (1, -8, -9),
                5: (1, -16, -57, 1)}
    rows = []
    for t, cp in expected.items():
        got = transfer.char_poly(t)
        rows.append((f"t={t}: got {got}", got, poly(cp)))
    # each printed-table column satisfies its recurrence
    for t in range(2, 6):
        seed = [transfer.count_2143(s, t) for s in range(1, t + 1)]
        ext = transfer.recurrence_extend(seed, transfer.char_poly(t), 5)
        want = tuple(transfer.count_2143(s, t) for s in range(1, len(ext) + 1))
        rows.append((f"recurrence t={t}", ext, want))
    return _compare("characteristic polynomials and recurrences", rows)


def check_bijections(max_n: int = 12) -> CheckResult:
    """Each of paths.BIJECTIONS sends its poset's extensions to valid words
    that decode back, and its image is every word of the shape."""
    failures, n_inst = [], 0
    for s, t in _shapes(max_n):
        for kind, bij in paths.BIJECTIONS.items():
            exts = list(avoiders(bij.poset(s, t), ()))
            for pi in exts:
                w = bij.encode(pi, s, t)
                n_inst += 1
                if not bij.valid(w, s, t) or bij.decode(w, s, t) != pi:
                    failures.append(f"{kind} {s}x{t} {pi}")
                    break
            if {bij.encode(pi, s, t) for pi in exts} != set(bij.objects(s, t)):
                failures.append(f"{kind} image {s}x{t}")
    return _check("bijection roundtrips and images", failures, n_inst)


def _rows(label: str, family: str, shape: Callable[[int], tuple[int, int]],
          sigma: Perm, stat: str, rhs: Callable[[int], QPoly], max_k: int):
    """Rows comparing the `stat` polynomial of the sigma-avoiding
    extensions of family:shape(k) with rhs(k), for 1 <= k <= max_k."""
    for k in range(1, max_k + 1):
        got = qstats.stat_gf(build(family, *shape(k)), [sigma], stat)
        yield f"{label}={k}: {format_q(got)}", got, rhs(k)


def _two_line(stat: str, max_size: int):
    """The rows of each of Thm 6.1's cases (i)-(iv) in qstats.TWO_LINE,
    against its form named after the statistic."""
    for case, line in qstats.TWO_LINE.items():
        yield from _rows(f"({case}) n", line.family, line.shape,
                         line.pattern, stat, getattr(line, stat), max_size)


def check_thm61(max_size: int = 7) -> CheckResult:
    return _compare("two-line inversion polynomials",
                    _two_line("inv", max_size))


def check_thm62(max_n: int = 14) -> CheckResult:
    return _compare("213-avoiding NE inversion polynomial", (
        (f"({s},{t})", qstats.stat_gf(build("NE", s, t), [(2, 1, 3)], "inv"),
         qstats.thm62_rhs(s, t)) for s, t in _shapes(max_n)))


def check_thm63(max_n: int = 14) -> CheckResult:
    rows = []
    for s, t in _shapes(max_n):
        gf = qstats.stat_gf(build("EN", s, t), [(1, 2, 4, 3)], "inv")
        lo, hi = _span(gf)
        rows.append((f"({s},{t}): got ({lo},{hi})", (lo, hi),
                     formulas.inv_bounds_1243(s, t)))
    return _compare("1243 inversion bounds", rows)


def check_12354_paths(max_n: int = 12) -> CheckResult:
    rows = []
    for s, t in _shapes(max_n, min_t=2):
        lhs = paths.enumerate_12354_paths(s, t)
        rhs = count_avoiders(build("EN", s, t), [(1, 2, 3, 5, 4)])
        rows.append((f"({s},{t}): paths {lhs} != avoiders {rhs}", lhs, rhs))
    return _compare("three-letter path count vs 12354 avoiders", rows)


def _run(table, fast: bool) -> list[CheckResult]:
    """Each check of table with its --fast arguments, or with its own
    defaults for the full run; a check may give a list of results."""
    out = []
    for check, fast_args in table:
        res = check(*fast_args) if fast else check()
        out += res if isinstance(res, list) else [res]
    return out


def theorem_checks(fast: bool = False) -> list[CheckResult]:
    return _run(((check_formulas_vs_oracle, (9,)), (check_hook_count, (12,)),
                 (check_rc_closure, (6,)), (check_gentree, (10,)),
                 (check_saw_zip_posets, (9,)), (check_b_matrix, (6, 5)),
                 (check_count_2143, (12,)), (check_char_poly, ()),
                 (check_bijections, (9,)), (check_thm61, (5,)),
                 (check_thm62, (10,)), (check_thm63, (10,)),
                 (check_12354_paths, (9,))), fast)


# ---------------------------------------------------------------------------
# conjecture suite

def conj_2143_t2(max_s: int = 6) -> CheckResult:
    return _compare("two-column 2143 inversion polynomial", _rows(
        "s", "EN", lambda s: (s, 2), (2, 1, 4, 3), "inv",
        qstats.conj_2143_t2_rhs, max_s), conjecture=True)


def conj_2143_t3(max_s: int = 5) -> CheckResult:
    return _compare("three-column 2143 inversion polynomial", _rows(
        "s", "EN", lambda s: (s, 3), (2, 1, 4, 3), "inv",
        qstats.conj_2143_t3_rhs, max_s), conjecture=True)


def conj_1243_rows3(max_t: int = 3) -> CheckResult:
    return _compare("three-row odd-column 1243 inversion polynomial", _rows(
        "t", "EN", lambda t: (3, 2 * t - 1), (1, 2, 4, 3), "inv",
        qstats.conj_1243_rhs, max_t), conjecture=True)


def conj_F_coefficients(max_s: int = 10) -> list[CheckResult]:
    """The stated coefficient facts about F_poly, each checked literally
    as claimed for 2 <= s <= max_s."""
    claims: list[tuple[str, Callable[[int], bool]]] = [
        ("F degree 2s-1",
         lambda s: degree(qstats.F_poly(s)) == 2 * s - 1),
        ("F leading coefficient 2^(s-2)",
         lambda s: qstats.F_poly(s)[2 * s - 1] == 2 ** (s - 2)),
        ("F constant term 1", lambda s: qstats.F_poly(s)[0] == 1),
        ("F q-coefficient s-1", lambda s: qstats.F_poly(s)[1] == s - 1),
        ("F q^2-coefficient s(s+3)/2",
         lambda s: qstats.F_poly(s)[2] == s * (s + 3) // 2),
        ("F q^(s+1)-coefficient binomial(2s+1,s-1)",
         lambda s: qstats.F_poly(s)[s + 1] == comb(2 * s + 1, s - 1)),
        ("F coefficients unimodal",
         lambda s: is_unimodal(qstats.F_poly(s))),
    ]
    return [_compare(name, ((f"s={s}", pred(s), True)
                            for s in range(2, max_s + 1)), conjecture=True)
            for name, pred in claims]


def conj_maj_identities(max_size: int = 6) -> CheckResult:
    return _compare("two-line major-index polynomials",
                    _two_line("maj", max_size), conjecture=True)


def conj_maj_ratio_1243(max_n: int = 12) -> CheckResult:
    """Maximum major index claimed to be exactly twice the minimum over
    the 1243-avoiding EN extensions."""
    rows = []
    for s, t in _shapes(max_n):
        gf = qstats.stat_gf(build("EN", s, t), [(1, 2, 4, 3)], "maj")
        lo, hi = _span(gf)
        rows.append((f"({s},{t}): min {lo}, max {hi}", hi, 2 * lo))
    return _compare("1243 major-index max = 2 min", rows, conjecture=True)


def conjecture_checks(fast: bool = False) -> list[CheckResult]:
    return _run(((conj_2143_t2, (4,)), (conj_2143_t3, (3,)),
                 (conj_1243_rows3, (2,)), (conj_F_coefficients, (6,)),
                 (conj_maj_identities, (4,)), (conj_maj_ratio_1243, (8,))),
                fast)
