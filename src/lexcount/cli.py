"""
Command-line front end.

Subcommands: count, list, table, qpoly, bijection, charpoly, verify.
Exit codes: 0 success, 1 usage error, 2 verification failure or
cross-route disagreement.
"""
import gc
import os
import sys
from collections.abc import Callable, Sequence
from types import SimpleNamespace

from .engine import count_avoiders, format_avoiders, listing, stat_gf
from .perms import descents, format_perm, parse_perm
from .polys import QPoly, format_q, format_x, to_json_dict
from .posets import FAMILIES, GridPoset, build, parse_poset_spec

DP_GUARD = 25


class Disagreement(Exception):
    """Counting routes disagree: main prints them, exits 2, caches nothing."""


def _solve(poset: GridPoset, patterns: list[tuple[int, ...]], force: bool,
           only: str | None) -> tuple[str | None, int | None]:
    """Run every affordable counting route (or only the one named), check
    that they agree, and return the first of formula, transfer, ideal-dp
    with its value; (None, None) if no route is affordable.  The formula
    and transfer routes count the poset as its plain grid with its tag's
    pattern added; ideal-dp is the order-ideal DP on the poset itself,
    which with patterns runs up to DP_GUARD elements unless forced."""
    routes: dict[str, int] = {}
    want = lambda name: only is None or only == name
    prob = poset.problem(patterns)
    # each route's module is imported where it runs, so that a cache hit
    # and the other routes skip its load
    if want("formula"):
        from . import formulas
        res = formulas.count_formula(prob)
        if res is not None:
            routes[res.provenance] = res.value
    # 2143 is its own reverse-complement, so no other set maps to it
    if (want("transfer") and prob.family == "EN"
            and prob.patterns == {(2, 1, 4, 3)}):
        from . import transfer
        routes["transfer"] = transfer.count_2143(prob.s, prob.t)
    if want("ideal-dp"):
        if not patterns or poset.n <= DP_GUARD or force:
            routes["ideal-dp"] = count_avoiders(poset, patterns)
        elif only == "ideal-dp":
            raise ValueError(
                f"ideal-dp route refused for {poset.n} elements; pass --force")
    if only is not None and not routes:
        raise ValueError(f"route {only!r} is not available for this problem")
    if len(set(routes.values())) > 1:
        raise Disagreement(
            ", ".join(f"{r}={v}" for r, v in sorted(routes.items())))
    return next(iter(routes.items()), (None, None))


def _read(args: SimpleNamespace, refuse: str = ""
          ) -> tuple[GridPoset | None, list[tuple[int, ...]], dict]:
    """The parsed --poset and --avoid of a subcommand that takes them, and
    their json echo.  With `refuse`, a poset of more than DP_GUARD
    elements is refused without --force."""
    poset = parse_poset_spec(args.poset) if hasattr(args, "poset") else None
    patterns = [parse_perm(p) for p in getattr(args, "avoid", ())]
    if refuse and poset.n > DP_GUARD and not args.force:
        raise ValueError(f"{refuse} refused for {poset.n} elements; "
                         "pass --force")
    echo = {} if poset is None else {"poset": poset.spec_string()}
    if hasattr(args, "avoid"):
        echo["patterns"] = [format_perm(p) for p in patterns]
    return poset, patterns, echo


def _render(args: SimpleNamespace, plain: str, payload: dict,
            rows: Sequence[Sequence] = ()) -> str:
    """The answer in args.format: plain text, the payload as json, or the
    rows as csv."""
    if args.format == "json":
        import json  # here and in cmd_bijection only, so other output skips it
        return json.dumps(payload, sort_keys=True)
    if args.format == "csv":
        return "\n".join(",".join(map(str, row)) for row in rows)
    return plain


def cmd_count(args: SimpleNamespace) -> tuple[int, str]:
    poset, patterns, echo = _read(args)
    route, value = _solve(poset, patterns, args.force, args.route)
    if route is None:
        raise ValueError(
            f"no affordable route for {poset.n} elements; pass --force "
            "to run the ideal-dp route anyway")
    return 0, _render(args, f"{value}\nroute: {route}",
                      {**echo, "value": value, "route": route},
                      [("value", "route"), (value, route)])


def cmd_list(args: SimpleNamespace) -> tuple[int, str]:
    poset, patterns, echo = _read(args, refuse="listing")
    if args.format == "json":
        exts = format_avoiders(poset, patterns)
        return 0, _render(args, "", {**echo, "extensions": exts})
    return 0, "\n".join(listing(poset, patterns))


def _table_cell(family: str, s: int, t: int,
                patterns: list[tuple[int, ...]], force: bool) -> int | None:
    try:
        return _solve(build(family, s, t), patterns, force, None)[1]
    except Disagreement as e:
        raise Disagreement(f"{e} at ({s},{t})") from None


def cmd_table(args: SimpleNamespace) -> tuple[int, str]:
    if args.family not in FAMILIES:
        raise ValueError(f"unknown family {args.family!r}")
    _, patterns, echo = _read(args)
    grid = [[_table_cell(args.family, s, t, patterns, args.force)
             for t in range(1, args.max_t + 1)]
            for s in range(1, args.max_s + 1)]
    rows = [["s/t"] + [str(t) for t in range(1, args.max_t + 1)]]
    rows += [[str(s)] + ["-" if v is None else str(v) for v in row]
             for s, row in enumerate(grid, start=1)]
    widths = [max(map(len, col)) for col in zip(*rows)]
    plain = "\n".join("  ".join(v.rjust(w) for v, w in zip(row, widths))
                      for row in rows)
    return 0, _render(args, plain, {**echo, "family": args.family,
                                    "rows": grid}, rows)


def _poly_output(args: SimpleNamespace, gf: QPoly,
                 fmt: Callable[[QPoly], str], echo: dict) -> tuple[int, str]:
    """A polynomial as fmt's text, its coefficients and the echo as json,
    or one csv row per nonzero coefficient."""
    return 0, _render(args, fmt(gf), {**echo, **to_json_dict(gf)},
                      [("power", "coefficient")]
                      + [(k, c) for k, c in enumerate(gf) if c])


def cmd_qpoly(args: SimpleNamespace) -> tuple[int, str]:
    poset, patterns, echo = _read(args, refuse="q-polynomial")
    return _poly_output(args, stat_gf(poset, patterns, args.stat),
                        format_q, {**echo, "stat": args.stat})


def cmd_bijection(args: SimpleNamespace) -> tuple[int, str]:
    import json  # imported here, so other commands skip their load
    from . import paths
    poset, _, payload = _read(args)
    s, t = poset.s, poset.t
    bijection = paths.BIJECTIONS[args.kind]
    want = bijection.poset(s, t)
    if poset != want:
        raise ValueError(f"--kind {args.kind} needs the poset "
                         f"{want.spec_string()}, not {poset.spec_string()}")
    if (args.perm is None) == (args.word is None):
        raise ValueError("exactly one of --perm and --word is required")
    payload["kind"] = args.kind
    if args.word is not None:
        w = args.word
        if args.kind == "zipper":
            w = paths.parse_zipper(w)
        elif args.kind == "tableau":
            try:
                w = json.loads(w)
            except (ValueError, RecursionError):  # not JSON, or too deep
                w = None
            if not (isinstance(w, list) and len(w) == s
                    and all(isinstance(r, list) and len(r) == t
                            and all(type(v) is int for v in r) for r in w)):
                raise ValueError(f"--word must be a JSON list of {s} lists "
                                 f"of {t} integers for {poset.spec_string()}")
        plain = payload["extension"] = format_perm(bijection.decode(w, s, t))
    else:
        pi = parse_perm(args.perm)
        w = bijection.encode(pi, s, t)
        if args.kind == "tableau":
            payload["tableau"] = T = [list(r) for r in w]
            plain = json.dumps(T)
        elif args.kind == "fcpath":
            ext_d, path_d = sorted(descents(pi)), sorted(descents(w))
            payload.update(path=w, extension_descents=ext_d,
                           path_descents=path_d)
            plain = (f"{w}\nextension descents: {ext_d}\n"
                     f"path descents: {path_d}")
        else:
            plain = payload["word"] = paths.format_zipper(w)
    return 0, _render(args, plain, payload)


def cmd_charpoly(args: SimpleNamespace) -> tuple[int, str]:
    from . import transfer  # imported here, so other commands skip its load
    return _poly_output(args, transfer.char_poly(args.t), format_x,
                        {"t": args.t})


def cmd_verify(args: SimpleNamespace) -> tuple[int, str]:
    # imported here, so other commands skip their load
    from . import qstats, verify
    if args.suite == "theorems":
        results = verify.theorem_checks(fast=args.fast)
    else:
        results = verify.conjecture_checks(fast=args.fast)
    lines = [f"[{'ok  ' if r.ok else 'FAIL'}] {r.name}: {r.status}"
             + (f" ({r.detail})" if r.detail else "") for r in results]
    if args.suite == "conjectures":
        lines += [f"[info] {row['coefficient']} of F "
                  f"(compare {row['reference']}): {row['values']}"
                  for row in qstats.f_coeff_export(10)]
    code = 0 if all(r.ok for r in results) else 2
    return code, _render(args, "\n".join(lines), {
        "suite": args.suite, "checks": [r._asdict() for r in results]})


def _cache_key(args: SimpleNamespace) -> str:
    """BLAKE2b-256 of the repr of the parsed arguments' sorted (name, value)
    pairs, each list made a tuple, and of the package's own .py sources
    (name, NUL, bytes, in name order).  So flag order, the argv reader,
    defaults spelled out and how the cache dir is given do not matter
    (--avoid keeps its order and repeats, which json output echoes), and
    an answer is not reused once its code changes.  _blake2 is the class
    hashlib.blake2b always is, without the milliseconds of loading OpenSSL
    that importing hashlib costs."""
    from _blake2 import blake2b
    here = os.path.dirname(__file__)
    source = blake2b(digest_size=32)
    for name in sorted(n for n in os.listdir(here) if n.endswith(".py")):
        with open(os.path.join(here, name), "rb") as fh:
            source.update(name.encode() + b"\0" + fh.read())
    fields = {k: tuple(v) if isinstance(v, list) else v
              for k, v in vars(args).items()
              if k not in ("cache_dir", "func", "cacheable")}
    fields["source"] = source.hexdigest()
    return blake2b(repr(sorted(fields.items())).encode(),
                   digest_size=32).hexdigest()


def _read_entry(entry: str) -> tuple[int, str] | None:
    """The stored (code, output) of an entry "<code> <len(output)>\\n<output>",
    or None if it is missing, unreadable, malformed, cut short or run on
    (then it is recomputed and overwritten)."""
    try:
        with open(entry, encoding="utf-8", newline="") as fh:
            header, newline, output = fh.read().partition("\n")
        code = int(header.partition(" ")[0])
    except (OSError, ValueError):  # ValueError covers bad UTF-8 and codes
        return None
    if newline and header == f"{code} {len(output)}":
        return code, output
    return None


def _write_entry(entry: str, code: int, output: str) -> None:
    """Write via a temp file in the same directory and os.replace, so a
    reader never sees a partial entry; the temp file is removed if that
    fails."""
    folder, name = os.path.split(entry)
    os.makedirs(folder, exist_ok=True)
    tmp = os.path.join(folder, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"{code} {len(output)}\n{output}")
        os.replace(tmp, entry)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


# The command line.  A command is (help, cacheable, options), and the
# module's cmd_<command> runs it.  An option is (flag, kind, default,
# required, help).  Its kind is FLAG (takes no value, sets True), APPEND
# (each use adds its value to a list), a tuple of the values allowed, or
# the function that converts its value (str or _positive_int).  _plain
# reads a plain command line from these rows; argparse, built from the
# same rows, reads every other one.
FLAG, APPEND = "flag", "append"
CACHE_DIR = ("--cache-dir", str, None, False,
             "directory for memoized results (or set LEXCOUNT_CACHE_DIR)")
POSET = ("--poset", str, None, True, "poset spec, e.g. EN:4x3 or EN:4x3+saw")
FORMAT = ("--format", ("plain", "json", "csv"), "plain", False,
          "output format")
NO_CSV = ("--format", ("plain", "json"), "plain", False, "output format")
FORCE = ("--force", FLAG, False, False,
         f"lift the {DP_GUARD}-element limit on the ideal-dp route with "
         "patterns, list and qpoly")
AVOID = ("--avoid", APPEND, (), False, "pattern to avoid (repeatable)")
COMMANDS = {
    "count": ("count avoiding extensions", True, (
        POSET, FORMAT, FORCE, AVOID,
        ("--route", ("formula", "transfer", "ideal-dp"), None, False,
         "run only this counting route"))),
    "list": ("list avoiding extensions", False, (POSET, NO_CSV, FORCE, AVOID)),
    "table": ("grid of counts over (s, t)", True, (
        FORMAT, FORCE,
        ("--family", str, None, True, f"one of {', '.join(FAMILIES)}"),
        AVOID,
        ("--max-s", _positive_int, None, True, "largest s"),
        ("--max-t", _positive_int, None, True, "largest t"))),
    "qpoly": ("statistic generating function", True, (
        POSET, FORMAT, FORCE, AVOID,
        ("--stat", ("inv", "maj"), "inv", False, "the statistic"))),
    "bijection": ("apply a bijection or its inverse", False, (
        POSET, NO_CSV,
        ("--kind", ("tableau", "fcpath", "zipper"), None, True,
         "the bijection"),
        ("--perm", str, None, False, "extension to encode"),
        ("--word", str, None, False, "encoded object to decode (path "
         "string, zipper tokens, or tableau JSON)"))),
    "charpoly": ("characteristic polynomial of the transfer matrix", False, (
        ("--t", _positive_int, None, True, "size of the transfer matrix B_t"),
        FORMAT)),
    # no csv: the free-text details contain commas
    "verify": ("run a verification suite", False, (
        ("--suite", ("theorems", "conjectures"), None, True, "which suite"),
        ("--fast", FLAG, False, False,
         "smaller size limits for a quicker pass"), NO_CSV)),
}


def _dest(flag: str) -> str:
    """The namespace field of an option: --max-s sets max_s."""
    return flag[2:].replace("-", "_")


def _plain(argv: Sequence[str]) -> dict | None:
    """The fields of a plain command line, or None for any other: any
    number of leading `--cache-dir DIR` pairs, a command, then exact flags
    of the command, where a value does not start with -, a choice is one
    of its choices, an int converts and every required option is given.
    Argparse sets the same fields from such a line."""
    fields: dict = {"cache_dir": None}
    args = iter(argv)
    command = next(args, "")
    while command == CACHE_DIR[0]:
        fields["cache_dir"] = next(args, "-")
        if fields["cache_dir"][:1] == "-":
            return None
        command = next(args, "")
    if command not in COMMANDS:
        return None
    fields["command"] = command
    options = {o[0]: o for o in COMMANDS[command][2]}
    fields.update((_dest(flag), [] if kind == APPEND else default)
                  for flag, kind, default, _, _ in options.values())
    missing = {flag for flag, _, _, required, _ in options.values()
               if required}
    for flag in args:
        if flag not in options:
            return None
        missing.discard(flag)
        kind, dest = options[flag][1], _dest(flag)
        if kind == FLAG:
            fields[dest] = True
            continue
        value = next(args, "-")
        if value[:1] == "-":
            return None
        if kind == APPEND:
            fields[dest].append(value)
            continue
        if isinstance(kind, tuple):
            if value not in kind:
                return None
        else:
            try:
                value = kind(value)
            except ValueError:
                return None
        fields[dest] = value
    return None if missing else fields


def _argparser():
    """The argparse parser of the same rows, for the command lines _plain
    declines: -h, --, --flag=value, abbreviations, values that start with
    -, strays and every usage error.  It is imported only here, so that a
    plain command line never loads argparse, gettext or locale."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str):
            """One line on stderr, with the line breaks of a stray
            argument escaped, and exit 1; 2 is the disagreement code."""
            message = "\\n".join(message.splitlines())
            self.exit(1, f"{self.prog}: error: {message}\n")

        def print_help(self, file=None) -> None:
            """The help through _emit: exit 1 if stdout is closed."""
            if not _emit(self.format_help().rstrip("\n")):
                raise SystemExit(1)

    def typed(kind: Callable[[str], object]) -> Callable[[str], object]:
        # argparse words a ValueError by the function's name, and an
        # ArgumentTypeError by its message
        def convert(text: str) -> object:
            try:
                return kind(text)
            except ValueError as e:
                raise argparse.ArgumentTypeError(str(e)) from None
        return convert

    def add(parser: Parser, options: Sequence[tuple]) -> Parser:
        for flag, kind, default, required, about in options:
            if kind == FLAG:
                how = {"action": "store_true"}
            elif kind == APPEND:
                how, default = {"action": "append"}, []
            elif isinstance(kind, tuple):
                how = {"choices": kind}
            else:
                how = {"type": typed(kind)}
            parser.add_argument(flag, default=default, required=required,
                                help=about, **how)
        return parser

    # wide enough that every help text stays on one line
    def wide(prog: str) -> argparse.HelpFormatter:
        return argparse.HelpFormatter(prog, max_help_position=32, width=200)

    top = add(Parser(prog="lexcount", formatter_class=wide, description=(
        "Exact enumeration of pattern-avoiding linear extensions of "
        "rectangular posets")), (CACHE_DIR,))
    sub = top.add_subparsers(dest="command", required=True)
    for name, (about, _, options) in COMMANDS.items():
        add(sub.add_parser(name, help=about, description=about,
                           formatter_class=wide), options)
    return top


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The command line as the fields of one namespace: cache_dir, command,
    one per option of the command (its default if not given), and the
    command's func and cacheable.  Only --cache-dir and -h come before the
    command.  _plain reads a plain command line, argparse any other.  A
    usage error prints one line on stderr and raises SystemExit(1); -h
    prints the help on stdout and raises SystemExit(0)."""
    fields = _plain(argv)
    if fields is None:
        fields = vars(_argparser().parse_args(argv))
    command = fields["command"]
    # looked up by name here, so that a caller that replaces a handler in
    # this module's globals (a tracer, a test) runs its replacement
    return SimpleNamespace(**fields, func=globals()[f"cmd_{command}"],
                           cacheable=COMMANDS[command][1])


def build_parser() -> SimpleNamespace:
    """An object whose parse_args is this module's, for callers written
    against an argparse parser."""
    return SimpleNamespace(parse_args=parse_args)


def _emit(text: str) -> bool:
    """Print text to stdout; False if the reader has closed the pipe.  Then
    stdout is pointed at os.devnull, so that the interpreter's final flush
    does not fail again and print a traceback."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code.

    With argv None, main runs the process: the `lexcount` script and
    `python -m lexcount` call it so, and it reads sys.argv.  It then
    first freezes every object the collector tracks (gc.freeze), so that
    neither the collections during the command nor those at interpreter
    shutdown walk the thousands of objects that site set-up and the
    imports left behind.  A caller that passes argv, such as a test or a
    tracer, owns its process: main leaves its collector alone, so a test
    run never builds up a permanent generation."""
    if argv is None:
        gc.freeze()
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        return e.code

    cache = args.cacheable and (args.cache_dir
                                or os.environ.get("LEXCOUNT_CACHE_DIR"))
    entry = os.path.join(cache, f"{_cache_key(args)}.txt") if cache else None
    stored = None if entry is None else _read_entry(entry)
    if stored is not None:
        return stored[0] if _emit(stored[1]) else 1

    try:
        code, output = args.func(args)
    except Disagreement as e:
        return 2 if _emit(f"route disagreement: {e}") else 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1

    if not _emit(output):
        return 1
    if entry is not None and code == 0:
        try:
            _write_entry(entry, code, output)
        except OSError as e:
            print(f"error: cannot write cache entry: {e}", file=sys.stderr)
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
