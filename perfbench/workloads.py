"""The three workloads, the seeded draw of their commands, and the check of
every output against the reference pool (pool.json, built by make_pool.py).

The seed chooses which problem fills each slot, how each command is
spelled (flag order, output format, a transposed family name for the same
poset) and the order of the commands.  Slots hold problems of near-equal
cost, so every seed does about the same work and seeds can be compared.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

POOL_PATH = Path(__file__).resolve().with_name("pool.json")

FORMATS = {"count": ("plain", "json", "csv"),
           "table": ("plain", "json", "csv"),
           "list": ("plain", "json"), "qpoly": ("plain", "json", "csv"),
           "charpoly": ("plain", "json"), "bijection": ("plain",),
           "verify": ("plain",)}
CACHEABLE = {"count", "table", "qpoly"}
# NW(t, s) and WN(t, s) are the NE(s, t) and EN(s, t) posets with the same
# labels, so a transposed spelling does exactly the same work.
TRANSPOSE = {"NE": "NW", "EN": "WN"}

# sweep: oracle counts and a table on 12..20 elements, no cache
SWEEP_SLOTS = [
    ["count/NE:4x5/123"],
    ["table/EN:4x5/2143"],
    ["count/EN:4x5/1324"],
    ["count/NE:4x5/2143"],
    ["count/EN:4x5/2413"],
    ["count/EN:4x5/1324+2413"],
    ["count/EN:4x5/2143"],
]
# emit: lists and q-polynomials with 10^3..10^5 answers, no cache, always
# in the default plain format, whose size sets the peak RSS
EMIT_SLOTS = [
    ["list/NE:4x5/123"],
    ["qpoly/NE:3x6/123/inv"],
    ["list/EN:4x5/2143"],
    ["list/EN:4x4/none", "qpoly/EN:4x4/none/maj"],
    ["list/EN:6x3/1243", "qpoly/EN:6x3/1243/maj"],
    ["qpoly/NE:6x3/123/maj"],
]
# sweep and emit repeat one of their cheaper slots, respelled each time;
# without a cache a repeat costs as much as the first run
REPEATED_SLOTS = {"sweep": (5, 5, 5, 5), "emit": (5, 5)}

# session: how many problems to draw from each pool category.  Every
# category whose answers enumerate extensions is drawn in full, so the
# extensions a pass accounts for do not depend on the seed.
SESSION_DRAWS = {"formula": 12, "transfer": 7, "dp": 7, "oracle": 6,
                 "table": 8, "qpoly": 8, "charpoly": 4, "bijection": 8,
                 "list": 6, "verify": 2}
# repeats of earlier cacheable problems per category: (verbatim,
# respelled).  Fixed counts per category keep the repeats' mix of costs,
# and so repeat_p50_ms, from depending on the seed.
SESSION_REPEATS = {"formula": (3, 2), "transfer": (2, 2), "dp": (1, 2),
                   "oracle": (2, 2), "table": (2, 2), "qpoly": (2, 2)}

WORKLOADS = ("sweep", "emit", "session")


@dataclass(frozen=True)
class Command:
    problem: str            # pool id
    argv: tuple[str, ...]   # lexcount arguments, without the cache dir
    fmt: str
    cache: str              # "" (none), "flag" (--cache-dir) or "env"
    repeat: str             # "", "verbatim" or "respelled"

    @property
    def cmd(self) -> str:
        return self.argv[0]

    def key(self) -> list:
        return [self.problem, list(self.argv), self.cache, self.repeat]


def load_pool(path: Path = POOL_PATH) -> dict[str, dict]:
    with open(path) as fh:
        return {p["id"]: p for p in json.load(fh)["problems"]}


def draw_hash(commands: list[Command]) -> str:
    text = json.dumps([c.key() for c in commands], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# spelling

def _pairs(spec: dict, transpose: bool) -> list[tuple]:
    """The command's options as (flag, value) pairs; value None for a
    bare flag."""
    cmd = spec["cmd"]
    pairs: list[tuple] = []
    if "poset" in spec:
        poset = spec["poset"]
        fam, dims = poset.split(":")
        if (transpose and fam in TRANSPOSE and "+" not in dims
                and cmd != "bijection"):
            s, t = dims.split("x")
            poset = f"{TRANSPOSE[fam]}:{t}x{s}"
        pairs.append(("--poset", poset))
    for pat in spec.get("avoid", []):
        pairs.append(("--avoid", pat))
    if cmd == "count" and spec.get("route"):
        pairs.append(("--route", spec["route"]))
    if cmd == "table":
        pairs += [("--family", spec["family"]),
                  ("--max-s", str(spec["max_s"])),
                  ("--max-t", str(spec["max_t"]))]
    if cmd == "qpoly":
        pairs.append(("--stat", spec["stat"]))
    if cmd == "charpoly":
        pairs.append(("--t", str(spec["t"])))
    if cmd == "bijection":
        pairs.append(("--kind", spec["kind"]))
        pairs += [(f"--{k}", spec[k]) for k in ("perm", "word") if k in spec]
    if cmd == "verify":
        pairs.append(("--suite", spec["suite"]))
        pairs.append(("--fast", None))
    return pairs


def _argv(cmd: str, pairs: list[tuple]) -> tuple[str, ...]:
    out = [cmd]
    for flag, value in pairs:
        out += [flag] if value is None else [flag, value]
    return tuple(out)


def spell(problem: dict, rng: random.Random, cache: str,
          plain: bool = False) -> Command:
    """A seeded spelling of one problem; ``plain`` keeps the default
    output format."""
    spec = problem["spec"]
    cmd = spec["cmd"]
    pairs = _pairs(spec, transpose=rng.random() < 0.5)
    rng.shuffle(pairs)
    fmt = "plain" if plain else rng.choice(FORMATS[cmd])
    if fmt != "plain" or rng.random() < 0.3:
        pairs.insert(rng.randrange(len(pairs) + 1), ("--format", fmt))
    return Command(problem["id"], _argv(cmd, pairs), fmt, cache, "")


def respell(c: Command, rng: random.Random, allow_env: bool) -> Command:
    """The same problem and output, spelled so that the raw argument list
    differs: another flag order, a repeated --avoid, the default format
    made explicit or left out, or the cache dir given by environment
    variable."""
    pairs: list[tuple] = []
    args = list(c.argv[1:])
    while args:
        flag = args.pop(0)
        value = args.pop(0) if args and not args[0].startswith("--") else None
        pairs.append((flag, value))
    ways = []
    if c.fmt == "plain":
        ways.append("format")
    if len({flag for flag, _ in pairs}) > 1:
        ways.append("order")
    if c.fmt != "json" and any(f == "--avoid" for f, _ in pairs):
        ways.append("avoid")  # json output would list the pattern twice
    if allow_env:
        ways.append("env")
    way = rng.choice(ways)
    cache = c.cache
    if way == "format":
        if any(f == "--format" for f, _ in pairs):
            pairs = [p for p in pairs if p[0] != "--format"]
        else:
            pairs.insert(rng.randrange(len(pairs) + 1), ("--format", "plain"))
    elif way == "order":
        # swap two options of different kinds; the patterns keep their order
        while True:
            i, j = rng.sample(range(len(pairs)), 2)
            if pairs[i][0] != pairs[j][0]:
                break
        pairs[i], pairs[j] = pairs[j], pairs[i]
    elif way == "avoid":
        dup = rng.choice([p for p in pairs if p[0] == "--avoid"])
        pairs.insert(rng.randrange(len(pairs) + 1), dup)
    else:
        cache = "env"
    return Command(c.problem, _argv(c.cmd, pairs), c.fmt, cache, "respelled")


def _insert_after(seq: list[Command], original: Command, rep: Command,
                  rng: random.Random) -> None:
    pos = seq.index(original)
    seq.insert(rng.randint(pos + 1, len(seq)), rep)


# ---------------------------------------------------------------------------
# the draw

def draw(workload: str, seed: int, pool: dict[str, dict]) -> list[Command]:
    """The command sequence of one pass of a workload, fixed by the seed."""
    rng = random.Random(f"lexcount-perfbench:{workload}:{seed}")
    if workload in ("sweep", "emit"):
        slots = SWEEP_SLOTS if workload == "sweep" else EMIT_SLOTS
        picks = [spell(pool[rng.choice(slot)], rng, "", workload == "emit")
                 for slot in slots]
        repeated = [picks[i] for i in REPEATED_SLOTS[workload]]
        rng.shuffle(picks)
        for orig in repeated:
            _insert_after(picks, orig, respell(orig, rng, False), rng)
        return picks
    if workload != "session":
        raise ValueError(f"unknown workload {workload!r}")
    by_cat: dict[str, list[str]] = {}
    for pid, p in pool.items():
        by_cat.setdefault(p["category"], []).append(pid)
    seq: list[Command] = []
    for cat, k in SESSION_DRAWS.items():
        for pid in rng.sample(sorted(by_cat[cat]), k):
            seq.append(spell(pool[pid], rng, "flag"))
    rng.shuffle(seq)
    originals = [c for c in seq if c.cmd in CACHEABLE]
    for cat, (verbatim, respelled) in SESSION_REPEATS.items():
        group = [c for c in originals if pool[c.problem]["category"] == cat]
        chosen = rng.sample(group, verbatim + respelled)
        for i, orig in enumerate(chosen):
            rep = (Command(orig.problem, orig.argv, orig.fmt, orig.cache,
                           "verbatim") if i < verbatim
                   else respell(orig, rng, True))
            _insert_after(seq, orig, rep, rng)
    return seq


# ---------------------------------------------------------------------------
# checking outputs

def parse_poly(text: str, var: str) -> list[int]:
    """Inverse of the package's pretty form, e.g. "1 - 4x - x^2"."""
    text = text.strip()
    if text == "0":
        return []
    coeffs: dict[int, int] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if var in term:
            c, _, power = term.partition(var)
            k = int(power[1:]) if power.startswith("^") else 1
            coeffs[k] = sign * (int(c) if c else 1)
        else:
            coeffs[0] = sign * int(term)
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return out


def _lines(out: str) -> list[str]:
    return out.rstrip("\n").split("\n")


def _observed(cmd: str, fmt: str, out: str):
    """The answer a command printed, in the pool's representation."""
    lines = _lines(out)
    if fmt == "json":
        obj = json.loads(out)
    if cmd == "count":
        if fmt == "json":
            return {"value": obj["value"]}
        return {"value": int(lines[1].split(",")[0] if fmt == "csv"
                             else lines[0])}
    if cmd == "table":
        if fmt == "json":
            return {"rows": obj["rows"]}
        split = (lambda s: s.split(",")) if fmt == "csv" else str.split
        return {"rows": [[None if v == "-" else int(v) for v in split(l)[1:]]
                         for l in lines[1:]]}
    if cmd == "list":
        exts = obj["extensions"] if fmt == "json" else lines
        text = "\n".join(exts)
        return {"lines": len(exts),
                "sha256": hashlib.sha256(text.encode()).hexdigest()}
    if cmd in ("qpoly", "charpoly"):
        if fmt == "json":
            return {"coeffs": obj["coeffs"]}
        if fmt == "csv":
            pairs = [tuple(map(int, l.split(","))) for l in lines[1:]]
            coeffs = [0] * (max(k for k, _ in pairs) + 1)
            for k, c in pairs:
                coeffs[k] = c
            return {"coeffs": coeffs}
        return {"coeffs": parse_poly(lines[0], "q" if cmd == "qpoly" else "x")}
    if cmd == "bijection":
        return {"text": out.rstrip("\n")}
    if cmd == "verify":
        checks = {}
        for line in lines:
            if line.startswith(("[ok  ] ", "[FAIL] ")):
                checks[line[7:].split(": ", 1)[0]] = line.startswith("[ok  ]")
        return {"checks": checks}
    raise ValueError(f"no checker for {cmd!r}")


def check(problem: dict, c: Command, code: int, out: str) -> str:
    """Empty if the command's exit code and output match the pool, else
    the reason it does not."""
    expect = problem["expect"]
    if code != expect["code"]:
        return f"exit code {code}, expected {expect['code']}"
    try:
        got = _observed(c.cmd, c.fmt, out)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return f"unparseable output ({type(e).__name__}: {e})"
    want = {k: v for k, v in expect.items() if k != "code"}
    if got != want:
        return (f"wrong output: got {str(got)[:120]}, "
                f"expected {str(want)[:120]}")
    return ""
