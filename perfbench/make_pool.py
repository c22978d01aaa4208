"""Build perfbench/pool.json: every command the benchmark can draw, with the
exit code and output it must produce.

Each expected value is established by at least two independent routes, and
the script stops if any two routes disagree:

* ``published``: the tables printed in the source paper (copied below);
* ``formula`` / ``gentree`` / ``transfer`` / ``ideal-dp``: the closed
  forms, the generating tree, the 2143 transfer matrix and the order-ideal
  DP;
* ``oracle``: the backtracking oracle on the problem as stated;
* ``dual-oracle``: the oracle on the dual poset with every pattern reversed
  (a different search tree and, for most patterns, a different tracker),
  its extensions reversed back and re-sorted;
* ``stat``: q-polynomials recomputed from the dual-oracle list with this
  file's own inv/maj.

Usage (takes a few minutes; run after changing the pool or the program's
output formats)::

    python3 perfbench/make_pool.py            # write perfbench/pool.json

To check that the committed pool is still what the program gives, write it
again and let git compare::

    python3 perfbench/make_pool.py && git diff --exit-code perfbench/pool.json
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from lexcount import (cli, formulas, gentree, paths, qstats,  # noqa: E402
                      transfer)
from lexcount.engine import (avoiders, count_avoiders,  # noqa: E402
                             count_extensions)
from lexcount.perms import format_perm, parse_perm  # noqa: E402
from lexcount.posets import build, canonicalize, parse_poset_spec  # noqa: E402

POOL = HERE / "pool.json"
ORACLE_GUARD = 25      # the CLI runs the oracle route up to this many elements
ORACLE_AFFORD = 20     # largest size this script re-derives by the oracle

# Published |NE_{s,t}(123)| and |EN_{s,t}(2143)| (the paper's tables).
PUBLISHED_NE123 = {
    (1, 1): 1, (1, 2): 1, (1, 3): 1, (1, 4): 1, (1, 5): 1, (1, 6): 1,
    (2, 1): 1, (2, 2): 2, (2, 3): 5, (2, 4): 14, (2, 5): 42, (2, 6): 132,
    (3, 1): 1, (3, 2): 5, (3, 3): 33, (3, 4): 234, (3, 5): 1706,
    (3, 6): 12618,
    (4, 1): 1, (4, 2): 14, (4, 3): 238, (4, 4): 4146, (4, 5): 72152,
    (5, 1): 1, (5, 2): 42, (5, 3): 1782, (5, 4): 75187,
    (6, 1): 1, (6, 2): 132, (6, 3): 13593,
    (7, 1): 1, (7, 2): 429,
}
PUBLISHED_EN2143 = {
    (1, 1): 1, (1, 2): 1, (1, 3): 1, (1, 4): 1, (1, 5): 1,
    (2, 1): 1, (2, 2): 2, (2, 3): 5, (2, 4): 14, (2, 5): 42,
    (3, 1): 1, (3, 2): 4, (3, 3): 21, (3, 4): 121, (3, 5): 728,
    (4, 1): 1, (4, 2): 8, (4, 3): 89, (4, 4): 1094, (4, 5): 14041,
    (5, 1): 1, (5, 2): 16, (5, 3): 377, (5, 4): 9841, (5, 5): 266110,
    (6, 1): 1, (6, 2): 32, (6, 3): 1597, (6, 4): 88574, (6, 5): 5057369,
}
# Published characteristic polynomials det(I - x B_t) for t = 2, 3, 4.
PUBLISHED_CHARPOLY = {2: (1, -2), 3: (1, -4, -1), 4: (1, -8, -9)}
DUAL = {"EN": "WS", "NE": "SW"}
P2143 = frozenset({(2, 1, 4, 3)})
P1243 = frozenset({(1, 2, 4, 3)})
P123 = frozenset({(1, 2, 3)})


# ---------------------------------------------------------------------------
# the problems, by category

def _count(poset, *avoid, route=None):
    return {"cmd": "count", "poset": poset, "avoid": list(avoid),
            "route": route}


def _table(family, max_s, max_t, *avoid):
    return {"cmd": "table", "family": family, "avoid": list(avoid),
            "max_s": max_s, "max_t": max_t}


def _list(poset, *avoid):
    return {"cmd": "list", "poset": poset, "avoid": list(avoid)}


def _qpoly(poset, stat, *avoid):
    return {"cmd": "qpoly", "poset": poset, "avoid": list(avoid),
            "stat": stat}


PROBLEMS: dict[str, list[dict]] = {
    # sweep: oracle counts and tables with 12 <= s*t <= 20
    "sweep": [
        _count("NE:4x5", "123"), _table("EN", 4, 5, "2143"),
        _count("EN:4x5", "1324"), _count("NE:4x5", "2143"),
        _count("EN:4x5", "2413"), _count("EN:4x5", "1324", "2413"),
        _count("EN:4x5", "2143"),
    ],
    # emit: lists and q-polynomials with 10^3..10^5 answers
    "emit": [
        _list("NE:4x5", "123"), _qpoly("NE:3x6", "inv", "123"),
        _list("EN:4x5", "2143"),
        _list("EN:4x4"), _qpoly("EN:4x4", "maj"),
        _list("EN:6x3", "1243"), _qpoly("EN:6x3", "maj", "1243"),
        _qpoly("NE:6x3", "maj", "123"),
    ],
    # session: closed-form counts beyond the oracle guard
    "formula": [
        _count("EN:6x5", "1243"), _count("EN:7x4", "1243"),
        _count("EN:9x3", "1243"), _count("EN:13x2", "1243"),
        _count("EN:5x6", "1243"), _count("EN:4x7", "1243"),
        _count("EN:7x4", "2143"), _count("EN:9x3", "2143"),
        _count("EN:14x2", "2143"), _count("EN:8x4", "2143"),
        _count("EN:6x5"), _count("EN:7x4"), _count("NE:6x6"),
        _count("NE:9x3"),
    ],
    "transfer": [
        _count(f"EN:{s}x{t}", "2143", route="transfer")
        for s, t in ((6, 5), (5, 5), (3, 5), (4, 5), (10, 4), (12, 3),
                     (16, 2), (8, 4), (6, 4), (20, 3))
    ],
    "dp": [
        _count(p, route="ideal-dp")
        for p in ("EN:6x6", "EN:7x5", "NE:5x7", "EN:8x4", "EN:4x3+saw",
                  "EN:5x4+saw", "EN:5x4+zip", "EN:6x4+zip", "EN:4x5+zip",
                  "EN:6x3+saw")
    ],
    "oracle": [
        _count("NE:4x4", "123"), _count("EN:4x4", "1324"),
        _count("EN:6x3", "2143"), _count("NE:3x6", "123"),
        _count("EN:4x4", "1243"), _count("EN:3x5", "2413"),
    ],
    "table": [
        _table("NE", 3, 3, "213"), _table("NE", 3, 4, "123"),
        _table("EN", 3, 4, "2143"), _table("EN", 3, 3, "1243"),
        _table("EN", 3, 3), _table("NE", 3, 3, "213", "132"),
        _table("EN", 3, 3, "321"), _table("NE", 3, 3, "312"),
    ],
    "qpoly": [
        _qpoly("EN:5x2", "inv", "123"), _qpoly("EN:2x5", "inv", "321"),
        _qpoly("NE:5x2", "inv", "123"), _qpoly("NE:2x5", "inv", "123"),
        _qpoly("NE:3x3", "inv", "213"), _qpoly("NE:3x4", "inv", "213"),
        _qpoly("EN:3x3", "maj", "1243"), _qpoly("EN:4x2", "inv", "2143"),
    ],
    "charpoly": [{"cmd": "charpoly", "t": t} for t in (2, 3, 4, 5)],
    "bijection": [
        {"cmd": "bijection", "poset": "EN:4x3+saw", "kind": "fcpath",
         "pick": 17},
        {"cmd": "bijection", "poset": "EN:3x4+saw", "kind": "fcpath",
         "pick": 5},
        {"cmd": "bijection", "poset": "EN:3x3", "kind": "tableau",
         "pick": 20},
        {"cmd": "bijection", "poset": "EN:3x3+zip", "kind": "zipper",
         "pick": 11},
        {"cmd": "bijection", "poset": "EN:4x3+zip", "kind": "zipper",
         "pick": 40},
    ],
    "list": [
        _list("EN:2x2", "123"), _list("EN:3x3", "1243"),
        _list("NE:3x3", "213"), _list("EN:3x3+saw"),
        _list("EN:2x4", "321"), _list("NE:2x4", "123"),
    ],
    "verify": [{"cmd": "verify", "suite": "theorems", "fast": True},
               {"cmd": "verify", "suite": "conjectures", "fast": True}],
}


def problem_id(spec: dict) -> str:
    """A readable identifier that names the problem, not its spelling."""
    cmd = spec["cmd"]
    avoid = "+".join(spec.get("avoid", [])) or "none"
    if cmd in ("count", "list"):
        tail = f":{spec['route']}" if spec.get("route") else ""
        return f"{cmd}/{spec['poset']}/{avoid}{tail}"
    if cmd == "qpoly":
        return f"qpoly/{spec['poset']}/{avoid}/{spec['stat']}"
    if cmd == "table":
        return (f"table/{spec['family']}:{spec['max_s']}x{spec['max_t']}"
                f"/{avoid}")
    if cmd == "charpoly":
        return f"charpoly/{spec['t']}"
    if cmd == "bijection":
        way = "perm" if "perm" in spec else "word"
        return f"bijection/{spec['poset']}/{spec['kind']}/{way}"
    return f"verify/{spec['suite']}"


# ---------------------------------------------------------------------------
# routes

def _agree(what: str, routes: dict) -> object:
    if len(routes) < 2:
        raise SystemExit(f"{what}: only {sorted(routes)} available; "
                         "need two independent routes")
    values = list(routes.values())
    if any(v != values[0] for v in values[1:]):
        raise SystemExit(f"{what}: routes disagree: {routes}")
    return values[0]


def _dual_extensions(family, s, t, patterns):
    """Extensions of family(s, t) avoiding patterns, derived from the dual
    poset with reversed patterns, in lexicographic order."""
    dual = build(DUAL[family], s, t)
    rev = [tuple(reversed(p)) for p in patterns]
    return sorted(tuple(reversed(pi)) for pi in avoiders(dual, rev))


def count_routes(spec_text: str, patterns: list) -> dict:
    poset = parse_poset_spec(spec_text)
    s, t, n = poset.s, poset.t, poset.n
    routes: dict[str, int] = {}
    if poset.tag == "saw":
        routes["formula"] = formulas.fuss_catalan(s, t)
        routes["gentree"] = gentree.count_at_depth(t, s)
    elif poset.tag == "zip":
        if (s, t) in PUBLISHED_EN2143:
            routes["published"] = PUBLISHED_EN2143[(s, t)]
        routes["transfer"] = transfer.count_2143(s, t)
    else:
        prob = canonicalize(poset.family, s, t, patterns)
        key = (prob.family, prob.s, prob.t)
        res = formulas.count_formula(prob)
        if res is not None:
            routes["formula"] = res.value
        if (key[0] == "NE" and prob.patterns == P123
                and key[1:] in PUBLISHED_NE123):
            routes["published"] = PUBLISHED_NE123[key[1:]]
        if key[0] == "EN" and prob.patterns == P2143:
            routes["transfer"] = transfer.count_2143(prob.s, prob.t)
            if key[1:] in PUBLISHED_EN2143:
                routes["published"] = PUBLISHED_EN2143[key[1:]]
        if key[0] == "EN" and prob.patterns == P1243:
            routes["gentree"] = gentree.count_at_depth(prob.t, prob.s)
        if not patterns:
            routes["ideal-dp"] = count_extensions(poset)
        if n <= ORACLE_AFFORD and len(routes) < 2:
            fam = prob.family
            routes["dual-oracle"] = len(_dual_extensions(
                fam, prob.s, prob.t, sorted(prob.patterns)))
    if n <= ORACLE_AFFORD:
        routes["oracle"] = count_avoiders(poset, patterns)
    return routes


def _oracle_runs(n: int, route_opt) -> bool:
    return n <= ORACLE_GUARD and route_opt in (None, "oracle")


def expect_count(spec):
    pats = [parse_perm(p) for p in spec["avoid"]]
    routes = count_routes(spec["poset"], pats)
    value = _agree(problem_id(spec), routes)
    n = parse_poset_spec(spec["poset"]).n
    emitted = value if _oracle_runs(n, spec.get("route")) else 0
    return {"code": 0, "value": value}, emitted, routes


def expect_table(spec):
    pats = [parse_perm(p) for p in spec["avoid"]]
    rows, emitted, used = [], 0, set()
    for s in range(1, spec["max_s"] + 1):
        row = []
        for t in range(1, spec["max_t"] + 1):
            routes = count_routes(f"{spec['family']}:{s}x{t}", pats)
            v = _agree(f"{problem_id(spec)} cell ({s},{t})", routes)
            row.append(v)
            emitted += v if s * t <= ORACLE_GUARD else 0
            used |= set(routes)
        rows.append(row)
    return {"code": 0, "rows": rows}, emitted, used


def _digest(lines: list[str]) -> dict:
    text = "\n".join(lines)
    return {"lines": len(lines),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _both_lists(spec):
    poset = parse_poset_spec(spec["poset"])
    pats = [parse_perm(p) for p in spec["avoid"]]
    direct = list(avoiders(poset, pats))
    if poset.tag:
        # an augmented poset has no dual family: its second route is the
        # plain grid filtered by the pattern the augmentation encodes
        pattern = (1, 2, 4, 3) if poset.tag == "saw" else (2, 1, 4, 3)
        other = list(avoiders(build("EN", poset.s, poset.t),
                              [pattern, *pats]))
    else:
        other = _dual_extensions(poset.family, poset.s, poset.t, pats)
    return poset, pats, direct, other


def expect_list(spec):
    poset, pats, direct, other = _both_lists(spec)
    routes = {"oracle": _digest([format_perm(p) for p in direct]),
              "dual-oracle": _digest([format_perm(p) for p in other])}
    got = _agree(problem_id(spec), routes)
    if not poset.tag:
        count = count_routes(spec["poset"], pats)
        _agree(problem_id(spec) + " count", {"lines": got["lines"], **count})
    return {"code": 0, **got}, got["lines"], routes


def _inv(pi):
    return sum(1 for i in range(len(pi)) for j in range(i + 1, len(pi))
               if pi[i] > pi[j])


def _maj(pi):
    return sum(i + 1 for i in range(len(pi) - 1) if pi[i] > pi[i + 1])


def _gf(perms, stat):
    f = _inv if stat == "inv" else _maj
    coeffs: dict[int, int] = {}
    for pi in perms:
        k = f(pi)
        coeffs[k] = coeffs.get(k, 0) + 1
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return out


def expect_qpoly(spec):
    poset, pats, _, other = _both_lists(spec)
    routes = {"oracle": list(qstats.stat_gf(poset, pats, spec["stat"])),
              "stat": _gf(other, spec["stat"])}
    closed = _qpoly_closed_form(spec, poset, pats)
    if closed is not None:
        routes["formula"] = closed
    coeffs = _agree(problem_id(spec), routes)
    return {"code": 0, "coeffs": coeffs}, sum(coeffs), routes


def _qpoly_closed_form(spec, poset, pats):
    """The package's inversion closed forms (Theorems 6.1 and 6.2)."""
    if spec["stat"] != "inv" or poset.tag:
        return None
    fam, s, t = poset.family, poset.s, poset.t
    key = frozenset(pats)
    if fam == "EN" and s == 2 and key == {(3, 2, 1)}:
        return list(qstats.thm61_rhs("i", t))
    if fam == "EN" and t == 2 and key == {(1, 2, 3)}:
        return list(qstats.thm61_rhs("ii", s))
    if fam == "NE" and t == 2 and key == {(1, 2, 3)}:
        return list(qstats.thm61_rhs("iii", s))
    if fam == "NE" and s == 2 and key == {(1, 2, 3)}:
        return list(qstats.thm61_rhs("iv", t))
    if fam == "NE" and key == {(2, 1, 3)}:
        return list(qstats.thm62_rhs(s, t))
    return None


def expect_charpoly(spec):
    t = spec["t"]
    cp = list(transfer.char_poly(t))
    routes = {"transfer": cp}
    if t in PUBLISHED_CHARPOLY:
        routes["published"] = list(PUBLISHED_CHARPOLY[t])
    else:
        # the recurrence encoded by cp must reproduce the published column
        column = [PUBLISHED_EN2143[(s, t)] for s in range(1, 7)]
        d = len(cp) - 1
        ext = list(column[:d])
        while len(ext) < len(column):
            ext.append(-sum(cp[i] * ext[-i] for i in range(1, d + 1)))
        if ext != column:
            raise SystemExit(f"charpoly {t}: recurrence misses the column")
        routes["published-column"] = cp
    return {"code": 0, "coeffs": _agree(problem_id(spec), routes)}, 0, routes


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().rstrip("\n")


def bijection_pair(spec):
    """Expand one bijection entry into its forward and inverse problems.
    The inverse's expected output is the original extension, so each
    answer is confirmed by the round trip through the other direction."""
    poset = parse_poset_spec(spec["poset"])
    s, t = poset.s, poset.t
    pi = list(avoiders(poset, []))[spec["pick"]]
    perm_text = format_perm(pi)
    kind = spec["kind"]
    if kind == "fcpath":
        word = paths.ext_to_fcpath(pi, s, t)
        ok = (paths.is_fuss_catalan(word, t)
              and paths.fcpath_to_ext(word, s, t) == pi)
    elif kind == "zipper":
        zw = paths.ext_to_zipper(pi, s, t)
        ok = paths.is_zipper(zw, s, t) and paths.zipper_to_ext(zw, s, t) == pi
        word = paths.format_zipper(zw)
    else:
        rows = paths.ext_to_tableau(pi, s, t)
        ok = (paths.is_standard_tableau(rows)
              and paths.tableau_to_ext(rows) == pi)
        word = json.dumps([list(r) for r in rows])
    if not ok:
        raise SystemExit(f"{spec}: the {kind} bijection does not round-trip")
    base = {"cmd": "bijection", "poset": spec["poset"], "kind": kind}
    fwd = {**base, "perm": perm_text}
    inv = {**base, "word": word}
    code, fwd_text = _run_cli(_plain_argv(fwd))
    if code != 0 or fwd_text.splitlines()[0] != word:
        raise SystemExit(f"{problem_id(fwd)}: CLI disagrees with paths")
    code, inv_text = _run_cli(_plain_argv(inv))
    if code != 0 or inv_text != perm_text:
        raise SystemExit(f"{problem_id(inv)}: round trip gave {inv_text!r}")
    routes = {"roundtrip": perm_text}
    return [(fwd, {"code": 0, "text": fwd_text}, 0, routes),
            (inv, {"code": 0, "text": inv_text}, 0, routes)]


def _plain_argv(spec: dict) -> list[str]:
    argv = ["bijection", "--poset", spec["poset"], "--kind", spec["kind"]]
    if "perm" in spec:
        return argv + ["--perm", spec["perm"]]
    return argv + ["--word", spec["word"]]


def expect_verify(spec):
    """The suites are the package's own cross-checks; the reference is the
    documented outcome: every theorem check passes, and the conjecture
    suite exits 2 on its four known counterexamples."""
    argv = ["verify", "--suite", spec["suite"], "--fast"]
    code, text = _run_cli(argv)
    checks = {}
    for line in text.splitlines():
        if line.startswith("[ok  ] ") or line.startswith("[FAIL] "):
            name = line[7:].split(": ", 1)[0]
            checks[name] = line.startswith("[ok  ]")
    want_code = 0 if spec["suite"] == "theorems" else 2
    if code != want_code:
        raise SystemExit(f"verify {spec['suite']}: exit {code}")
    return {"code": code, "checks": checks}, 0, {"documented": want_code}


EXPECT = {"count": expect_count, "table": expect_table, "list": expect_list,
          "qpoly": expect_qpoly, "charpoly": expect_charpoly,
          "verify": expect_verify}


def build_pool() -> dict:
    problems = []
    for category, specs in PROBLEMS.items():
        for spec in specs:
            if spec["cmd"] == "bijection":
                entries = bijection_pair(spec)
            else:
                expect, emitted, routes = EXPECT[spec["cmd"]](spec)
                entries = [(spec, expect, emitted, routes)]
            for sp, expect, emitted, routes in entries:
                problems.append({"id": problem_id(sp), "category": category,
                                 "spec": sp, "expect": expect,
                                 "emitted": emitted,
                                 "routes": sorted(routes)})
                print(f"{problem_id(sp):45s} {sorted(routes)}",
                      file=sys.stderr, flush=True)
    ids = [p["id"] for p in problems]
    if len(set(ids)) != len(ids):
        raise SystemExit("duplicate problem ids")
    return {"version": 1, "problems": problems}


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    pool = build_pool()
    POOL.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")
    print(f"wrote {POOL} ({len(pool['problems'])} problems)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
