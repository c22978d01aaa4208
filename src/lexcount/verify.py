"""
Verification suites: every identity the package implements twice gets a
named check comparing the two computations, and every conjectured
identity gets a bounded consistency check.

Theorem checks report pass/fail; conjecture checks report consistent/
counterexample and never claim more than the sizes actually tested.
The CLI's `verify` subcommand and the test suite both run these.
"""
from __future__ import annotations

from math import comb
from typing import Callable, Iterable, NamedTuple

from . import formulas, gentree, paths, qstats, transfer
from .engine import count_avoiders, count_extensions
from .perms import reverse_complement
from .polys import degree, format_q, is_unimodal, poly
from .posets import build, canonicalize, saw_poset, zip_poset


class CheckResult(NamedTuple):
    name: str
    status: str  # "pass" / "fail" / "consistent" / "counterexample"
    detail: str = ""

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


# ---------------------------------------------------------------------------
# theorem suite

def _shapes(max_n: int, min_s: int = 1, min_t: int = 1) -> Iterable[tuple[int, int]]:
    for s in range(min_s, max_n + 1):
        for t in range(min_t, max_n // s + 1):
            yield s, t


def check_formulas_vs_oracle(max_n: int = 12) -> CheckResult:
    """Every closed-form dispatcher case equals the brute-force count."""
    cases = [("EN", p) for p in ({(2, 1, 3)}, {(2, 3, 1)}, {(3, 2, 1)},
                                 {(1, 2, 3)}, {(1, 2, 4, 3)}, {(2, 1, 4, 3)},
                                 set())]
    cases += [("NE", p) for p in ({(2, 1, 3)}, {(2, 1, 3), (1, 2, 3)},
                                  {(2, 1, 3), (1, 3, 2)}, {(3, 1, 2)},
                                  {(1, 2, 3)})]
    failures, n_inst = [], 0
    for family, pats in cases:
        for s, t in _shapes(max_n):
            res = formulas.count_formula(canonicalize(family, s, t, pats))
            if res is None:
                continue
            oracle = count_avoiders(build(family, s, t), pats)
            n_inst += 1
            if res.value != oracle:
                failures.append(
                    f"{family}:{s}x{t} avoid {sorted(pats)}: "
                    f"formula {res.value} ({res.provenance}) != oracle {oracle}")
    return _check("closed forms vs brute force", failures, n_inst)


def check_hook_count(max_n: int = 16) -> CheckResult:
    failures, n_inst = [], 0
    for s, t in _shapes(max_n):
        n_inst += 1
        if formulas.hook_count(s, t) != count_extensions(build("EN", s, t)):
            failures.append(f"{s}x{t}")
    for n in range(1, 11):
        n_inst += 1
        if formulas.hook_count(2, n) != formulas.catalan(n):
            failures.append(f"2x{n} vs catalan")
    return _check("hook-product count vs order-ideal DP", failures, n_inst)


def check_rc_closure(max_n: int = 9) -> CheckResult:
    """Counts are invariant under reverse-complementing the pattern."""
    from itertools import permutations
    failures, n_inst = [], 0
    pats = [tuple(p) for p in permutations(range(1, 5))]
    for family in ("EN", "NE"):
        for sigma in pats:
            for s in range(1, 4):
                for t in range(1, 4):
                    if s * t > max_n:
                        continue
                    n_inst += 1
                    a = count_avoiders(build(family, s, t), [sigma])
                    b = count_avoiders(build(family, s, t),
                                       [reverse_complement(sigma)])
                    if a != b:
                        failures.append(f"{family}:{s}x{t} {sigma}")
    return _check("reverse-complement count invariance", failures, n_inst)


def check_gentree(max_n: int = 14) -> CheckResult:
    failures, n_inst = [], 0
    for t in range(1, 7):
        for s in range(0, 11):
            n_inst += 1
            if gentree.count_at_depth(t, s) != formulas.fuss_catalan(s, t):
                failures.append(f"depth DP ({s},{t})")
    for s, t in _shapes(max_n):
        n_inst += 1
        if gentree.count_at_depth(t, s) != count_avoiders(
                build("EN", s, t), [(1, 2, 4, 3)]):
            failures.append(f"DP vs 1243 oracle ({s},{t})")
    return _check("generating-tree DP vs formula and oracle", failures, n_inst)


def check_saw_zip_posets(max_n: int = 12) -> CheckResult:
    """The two augmented posets carve out exactly the avoider sets."""
    failures, n_inst = [], 0
    for s, t in _shapes(max_n):
        n_inst += 1
        if count_extensions(saw_poset(s, t)) != count_avoiders(
                build("EN", s, t), [(1, 2, 4, 3)]):
            failures.append(f"saw {s}x{t}")
        n_inst += 1
        if count_extensions(zip_poset(s, t)) != count_avoiders(
                build("EN", s, t), [(2, 1, 4, 3)]):
            failures.append(f"zip {s}x{t}")
    return _check("sawblade/zipper posets vs avoider sets", failures, n_inst)


def check_b_matrix(max_n: int = 8, oracle_n: int = 6) -> CheckResult:
    failures, n_inst = [], 0
    for n in range(1, oracle_n + 1):
        bm = transfer.b_matrix(n)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                n_inst += 1
                if bm[j - 1][k - 1] != paths.enumerate_jk(n, j, k):
                    failures.append(f"b({j},{k};{n})")
    for n in range(1, max_n + 1):
        bm = transfer.b_matrix(n)
        bprev = transfer.b_matrix(n - 1) if n > 1 else ()
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                n_inst += 1
                if bm[j - 1][k - 1] != bm[n - k][n - j]:
                    failures.append(f"symmetry ({j},{k};{n})")
                if k >= j and bm[j - 1][k - 1] != comb(n - k + j - 1, j - 1):
                    failures.append(f"binomial ({j},{k};{n})")
                if j > 1 and 1 < k < n:
                    lhs = bm[j - 1][k - 1]
                    rhs = bm[j - 1][k] + bprev[j - 2][k - 2]
                    if lhs != rhs:
                        failures.append(f"second recurrence ({j},{k};{n})")
    return _check("b-matrix identities", failures, n_inst)


def check_count_2143(max_oracle: int = 16) -> CheckResult:
    failures, n_inst = [], 0
    for s, t in _shapes(max_oracle):
        oracle = count_avoiders(build("EN", s, t), [(2, 1, 4, 3)])
        tm = transfer.count_2143(s, t)
        zc = sum(1 for _ in paths.zippers(s, t)) if t >= 2 else 1
        n_inst += 1
        if not oracle == tm == zc:
            failures.append(f"({s},{t}): oracle {oracle}, matrix {tm}, zippers {zc}")
    for t in range(1, 5):
        for s in range(1, 13):
            n_inst += 1
            if transfer.count_2143(s, t) != formulas.count_2143_closed(s, t):
                failures.append(f"closed form ({s},{t})")
    return _check("2143 counts: oracle, matrix, zippers, closed forms",
                  failures, n_inst)


def check_char_poly() -> CheckResult:
    failures = []
    expected = {2: (1, -2), 3: (1, -4, -1), 4: (1, -8, -9),
                5: (1, -16, -57, 1)}
    for t, cp in expected.items():
        got = transfer.char_poly(t)
        if got != poly(cp):
            failures.append(f"t={t}: got {got}")
    # each printed-table column satisfies its recurrence
    for t in range(2, 6):
        seed = [transfer.count_2143(s, t) for s in range(1, t + 1)]
        ext = transfer.recurrence_extend(seed, transfer.char_poly(t), 5)
        want = tuple(transfer.count_2143(s, t) for s in range(1, len(ext) + 1))
        if ext != want:
            failures.append(f"recurrence t={t}")
    return _check("characteristic polynomials and recurrences", failures, 8)


def check_bijections(max_n: int = 12) -> CheckResult:
    from .engine import avoiders, linear_extensions
    failures, n_inst = [], 0
    for s, t in _shapes(max_n):
        for pi in linear_extensions(build("EN", s, t)):
            T = paths.ext_to_tableau(pi, s, t)
            n_inst += 1
            if not paths.is_standard_tableau(T) or paths.tableau_to_ext(T) != pi:
                failures.append(f"tableau {s}x{t} {pi}")
                break
        if {paths.ext_to_tableau(pi, s, t)
                for pi in linear_extensions(build("EN", s, t))} != \
                set(paths.standard_tableaux(s, t)):
            failures.append(f"tableau image {s}x{t}")
        exts = list(avoiders(build("EN", s, t), [(1, 2, 4, 3)]))
        for pi in exts:
            w = paths.ext_to_fcpath(pi, s, t)
            n_inst += 1
            if not paths.is_fuss_catalan(w, t) or paths.fcpath_to_ext(w, s, t) != pi:
                failures.append(f"fcpath {s}x{t} {pi}")
                break
        if {paths.ext_to_fcpath(pi, s, t) for pi in exts} != set(paths.fc_paths(s, t)):
            failures.append(f"fcpath image {s}x{t}")
        zexts = list(avoiders(build("EN", s, t), [(2, 1, 4, 3)]))
        for pi in zexts:
            w = paths.ext_to_zipper(pi, s, t)
            n_inst += 1
            if not paths.is_zipper(w, s, t) or paths.zipper_to_ext(w, s, t) != pi:
                failures.append(f"zipper {s}x{t} {pi}")
                break
        if {paths.ext_to_zipper(pi, s, t) for pi in zexts} != set(paths.zippers(s, t)):
            failures.append(f"zipper image {s}x{t}")
    return _check("bijection roundtrips and images", failures, n_inst)


def _two_line(stat: str, rhs, max_size: int) -> tuple[list[str], int]:
    """Failures and instance count of the `stat` polynomial against
    rhs(case, n) on the two-line cases (i)-(iv) of Thm 6.1, for n up to
    max_size."""
    setups = {
        "i": lambda n: (build("EN", 2, n), (3, 2, 1)),
        "ii": lambda n: (build("EN", n, 2), (1, 2, 3)),
        "iii": lambda n: (build("NE", n, 2), (1, 2, 3)),
        "iv": lambda n: (build("NE", 2, n), (1, 2, 3)),
    }
    failures = []
    for case, setup in setups.items():
        for n in range(1, max_size + 1):
            poset, sigma = setup(n)
            got = qstats.stat_gf(poset, [sigma], stat)
            if got != rhs(case, n):
                failures.append(f"({case}) n={n}: {format_q(got)}")
    return failures, len(setups) * max_size


def check_thm61(max_size: int = 7) -> CheckResult:
    failures, n_inst = _two_line("inv", qstats.thm61_rhs, max_size)
    return _check("two-line inversion polynomials", failures, n_inst)


def check_thm62(max_n: int = 14) -> CheckResult:
    failures, n_inst = [], 0
    for s, t in _shapes(max_n):
        n_inst += 1
        got = qstats.stat_gf(build("NE", s, t), [(2, 1, 3)], "inv")
        if got != qstats.thm62_rhs(s, t):
            failures.append(f"({s},{t})")
    return _check("213-avoiding NE inversion polynomial", failures, n_inst)


def check_thm63(max_n: int = 14) -> CheckResult:
    failures, n_inst = [], 0
    for s, t in _shapes(max_n):
        n_inst += 1
        gf = qstats.stat_gf(build("EN", s, t), [(1, 2, 4, 3)], "inv")
        lo = next(k for k, c in enumerate(gf) if c)
        hi = degree(gf)
        if (lo, hi) != formulas.inv_bounds_1243(s, t):
            failures.append(f"({s},{t}): got ({lo},{hi})")
    return _check("1243 inversion bounds", failures, n_inst)


def check_12354_paths(max_n: int = 12) -> CheckResult:
    failures, n_inst = [], 0
    for s, t in _shapes(max_n, min_t=2):
        n_inst += 1
        lhs = paths.enumerate_12354_paths(s, t)
        rhs = count_avoiders(build("EN", s, t), [(1, 2, 3, 5, 4)])
        if lhs != rhs:
            failures.append(f"({s},{t}): paths {lhs} != avoiders {rhs}")
    return _check("three-letter path count vs 12354 avoiders", failures, n_inst)


def theorem_checks(fast: bool = False) -> list[CheckResult]:
    if fast:
        return [
            check_formulas_vs_oracle(9), check_hook_count(12),
            check_rc_closure(6), check_gentree(10), check_saw_zip_posets(9),
            check_b_matrix(6, 5), check_count_2143(12), check_char_poly(),
            check_bijections(9), check_thm61(5), check_thm62(10),
            check_thm63(10), check_12354_paths(9),
        ]
    return [
        check_formulas_vs_oracle(), check_hook_count(), check_rc_closure(),
        check_gentree(), check_saw_zip_posets(), check_b_matrix(),
        check_count_2143(), check_char_poly(), check_bijections(),
        check_thm61(), check_thm62(), check_thm63(), check_12354_paths(),
    ]


# ---------------------------------------------------------------------------
# conjecture suite

def conj_2143_t2(max_s: int = 6) -> CheckResult:
    failures = []
    for s in range(1, max_s + 1):
        got = qstats.stat_gf(build("EN", s, 2), [(2, 1, 4, 3)], "inv")
        if got != qstats.conj_2143_t2_rhs(s):
            failures.append(f"s={s}: {format_q(got)}")
    return _check("two-column 2143 inversion polynomial", failures, max_s,
                  conjecture=True)


def conj_2143_t3(max_s: int = 5) -> CheckResult:
    failures = []
    for s in range(1, max_s + 1):
        got = qstats.stat_gf(build("EN", s, 3), [(2, 1, 4, 3)], "inv")
        if got != qstats.conj_2143_t3_rhs(s):
            failures.append(f"s={s}: {format_q(got)}")
    return _check("three-column 2143 inversion polynomial", failures, max_s,
                  conjecture=True)


def conj_1243_rows3(max_t: int = 3) -> CheckResult:
    failures = []
    for t in range(1, max_t + 1):
        got = qstats.stat_gf(build("EN", 3, 2 * t - 1), [(1, 2, 4, 3)], "inv")
        if got != qstats.conj_1243_rhs(t):
            failures.append(f"t={t}: {format_q(got)}")
    return _check("three-row odd-column 1243 inversion polynomial",
                  failures, max_t, conjecture=True)


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
    out = []
    for name, pred in claims:
        failures = [f"s={s}" for s in range(2, max_s + 1) if not pred(s)]
        out.append(_check(name, failures, max_s - 1, conjecture=True))
    return out


def conj_maj_identities(max_size: int = 6) -> CheckResult:
    failures, n_inst = _two_line("maj", qstats.maj_conjecture_rhs, max_size)
    return _check("two-line major-index polynomials", failures, n_inst,
                  conjecture=True)


def conj_maj_ratio_1243(max_n: int = 12) -> CheckResult:
    """Maximum major index claimed to be exactly twice the minimum over
    the 1243-avoiding EN extensions."""
    failures, n_inst = [], 0
    for s, t in _shapes(max_n):
        n_inst += 1
        gf = qstats.stat_gf(build("EN", s, t), [(1, 2, 4, 3)], "maj")
        lo = next(k for k, c in enumerate(gf) if c)
        hi = degree(gf)
        if hi != 2 * lo:
            failures.append(f"({s},{t}): min {lo}, max {hi}")
    return _check("1243 major-index max = 2 min", failures, n_inst,
                  conjecture=True)


def conjecture_checks(fast: bool = False) -> list[CheckResult]:
    if fast:
        out = [conj_2143_t2(4), conj_2143_t3(3), conj_1243_rows3(2)]
        out += conj_F_coefficients(6)
        out += [conj_maj_identities(4), conj_maj_ratio_1243(8)]
        return out
    out = [conj_2143_t2(), conj_2143_t3(), conj_1243_rows3()]
    out += conj_F_coefficients()
    out += [conj_maj_identities(), conj_maj_ratio_1243()]
    return out
