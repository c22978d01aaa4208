"""lexcount benchmark: one client runs lexcount commands in a closed loop,
each in a fresh interpreter, each after the previous one has exited.

    python3 perfbench/run.py --workload sweep|emit|session --seed N \
        --seconds S --trace 0|1 [--record FILE]

Run from the root of a checkout; the program is imported from ./src.
Setup draws the commands from the seed, empties the work dir and the
cache dir, deletes lexcount's compiled bytecode and makes one warm-up call
that compiles it again.  Then whole passes over the drawn commands run
for about S seconds, with --trace 0 at least MIN_PASSES of them: another
pass starts only if, at the mean pass time so far, it would end less than
half a pass after S seconds.  Every output is checked against pool.json.

--trace 0 reports the end-to-end metrics, in reference-host time: every
time is divided by the host's speed at that moment, the median latency of
the CAL_WINDOW runs of a fixed calibration program nearest to it in time,
over the program's median on the reference host.  The program is a fresh
interpreter that counts standard Young tableaux by backtracking, sized
per workload so that its mix of start-up and compute is like the
workload's.  It runs after each set-up and then after a command once
CAL_EVERY_S have gone by since its last run, so it sees the same seconds
of the shared host as the commands it scales.  The raw times are printed
beside the result.

--trace 1 runs, per round, one plain pass, one pass under tracer.py's
spans and one under its cProfile call counter, interleaved command by
command, and reports the per-layer metrics, in raw time.  The last line of
standard output is the result as one JSON object; the lines before it
give the stamp, every metric with its sample count, and any failures.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (CACHEABLE, WORKLOADS, Command, check,  # noqa: E402
                       draw, draw_hash, load_pool)

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
TRACER = HERE / "tracer.py"
ENTRY = "import sys; from lexcount.cli import main; sys.exit(main())"
WARMUP = ("import compileall, sys\n"
          "if not compileall.compile_dir(sys.argv[1], quiet=1): sys.exit(3)\n"
          "from lexcount.cli import main\n"
          "sys.exit(main(['count', '--poset', 'EN:2x2']))")
SETUP_REPEATS = 9
MIN_PASSES = 2
# The calibration program does no lexcount work and does not import it.
# It imports the standard modules that lexcount.cli imports.
CALIBRATE = """import argparse, dataclasses, hashlib, json


def count(rows, cap):
    if rows[-1] == cap:
        return 1
    return sum(count(rows[:i] + (n + 1,) + rows[i + 1:], cap)
               for i, n in enumerate(rows)
               if n < cap and (i == 0 or rows[i - 1] > n))


print(json.dumps(count({rows}, {cap})))
"""
# workload -> (rows, cap, answer, median latency on the reference host):
# session commands are mostly start-up, sweep and emit mostly compute
CALIBRATION = {"session": ((0, 0, 0), 5, 6006, 0.130),
               "sweep": ((0, 0, 0, 0), 4, 24024, 0.250),
               "emit": ((0, 0, 0, 0), 4, 24024, 0.250)}
CAL_EVERY_S = 0.5
CAL_WINDOW = 9
COMMAND_TIMEOUT_S = 60.0
DEADLINE_S = 165.0  # no command starts after this, so a run ends in time

perf = time.perf_counter


@dataclass
class Outcome:
    command: Command
    seconds: float = 0.0
    cpu: float = 0.0           # the child's user plus system time
    code: int = -1
    rss_kb: int = 0
    error: str = ""
    cache: str = ""            # "hit" or "miss" when a cache was consulted
    trace: dict = field(default_factory=dict)
    started: bool = True
    at: float = 0.0            # perf_counter() at the middle of its run


@dataclass
class Pass:
    outcomes: list[Outcome]

    @property
    def wall(self) -> float:
        """The command sequence's time: the sum of command latencies, so the
        benchmark's own checking between commands is not counted."""
        return sum(o.seconds for o in self.outcomes)

    @property
    def complete(self) -> bool:
        return all(o.started for o in self.outcomes)


def child_env() -> dict[str, str]:
    """A small fixed environment, so the caller's settings do not leak in."""
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0", "LANG": "C.UTF-8"}


class Runner:
    """Spawns commands, times them, checks their outputs, and times the
    calibration program for the workload."""

    def __init__(self, pool: dict, deadline: float, workload: str):
        self.pool = pool
        rows, cap, answer, self.cal_ref = CALIBRATION[workload]
        self.cal_source = CALIBRATE.format(rows=rows, cap=cap)
        self.cal_answer = f"{answer}\n"
        self.deadline = deadline
        self.out_path = WORK / "stdout"
        self.err_path = WORK / "stderr"
        self.trace_path = WORK / "trace.json"
        self.env = child_env()
        self.cal: list[tuple[float, float]] = []  # (at, latency)
        self.last_cal = perf()

    @staticmethod
    def cache_dir(mode: str) -> Path:
        """Each mode has a cache dir of its own."""
        return WORK / "cache" / mode

    def argv(self, c: Command, mode: str) -> list[str]:
        head = [sys.executable, "-c", ENTRY] if mode == "plain" else \
            [sys.executable, str(TRACER), mode, str(self.trace_path), "--"]
        if c.cache == "flag":
            head += ["--cache-dir", str(self.cache_dir(mode))]
        return head + list(c.argv)

    def _cache_files(self, mode: str) -> set[str]:
        return {os.path.join(d, f)
                for d, _, fs in os.walk(self.cache_dir(mode))
                for f in fs}

    def spawn(self, argv: list[str], env: dict, timeout: float):
        """Run one child to its end: its latency, exit code, resource
        usage, standard output, and whether it was killed at the
        timeout."""
        killed = []
        with open(self.out_path, "w+b") as out, \
                open(self.err_path, "w+b") as err:
            t0 = perf()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                    cwd=WORK)
            timer = threading.Timer(timeout, lambda: (killed.append(True),
                                                      proc.kill()))
            timer.daemon = True
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # e.g. SIGTERM: end the child first
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = perf() - t0
            out.seek(0)
            stdout = out.read().decode("utf-8", "replace")
        return (seconds, os.waitstatus_to_exitcode(status), usage, stdout,
                bool(killed))

    def calibrate(self) -> None:
        """Time one run of the calibration program.  It gets the
        children's environment without the program's source path, so
        nothing in the checkout can change it."""
        env = {k: v for k, v in self.env.items() if k != "PYTHONPATH"}
        seconds, code, _, stdout, killed = self.spawn(
            [sys.executable, "-c", self.cal_source], env, COMMAND_TIMEOUT_S)
        if killed or code != 0 or stdout != self.cal_answer:
            raise SystemExit(f"calibration failed (exit {code}): "
                             f"{stdout[-200:]!r}")
        self.last_cal = perf()
        self.cal.append((self.last_cal - seconds / 2, seconds))

    def speed(self, at: float) -> float:
        """How much slower than the reference host this host was at time
        ``at``: the median latency of the CAL_WINDOW calibration runs
        nearest to it, over the reference host's."""
        near = sorted(self.cal, key=lambda c: abs(c[0] - at))[:CAL_WINDOW]
        return _median([s for _, s in near]) / self.cal_ref

    def normalize(self, passes: list[Pass]) -> list[Pass]:
        """The passes with every latency divided by the host's speed at
        the time it was measured."""
        return [Pass([replace(o, seconds=o.seconds / self.speed(o.at))
                      for o in p.outcomes]) for p in passes]

    def execute(self, c: Command, mode: str) -> Outcome:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return Outcome(c, error="not started: run deadline reached",
                           started=False)
        env = dict(self.env)
        if c.cache == "env":
            env["LEXCOUNT_CACHE_DIR"] = str(self.cache_dir(mode))
        watch = bool(c.cache) and c.cmd in CACHEABLE
        before = self._cache_files(mode) if watch else set()
        argv = self.argv(c, mode)
        self.trace_path.unlink(missing_ok=True)  # never read a stale trace
        env["PERFBENCH_SPAWN"] = repr(perf())
        seconds, code, usage, stdout, killed = self.spawn(
            argv, env, min(COMMAND_TIMEOUT_S, remaining))
        o = Outcome(c, seconds, usage.ru_utime + usage.ru_stime, code,
                    usage.ru_maxrss, at=perf() - seconds / 2)
        if killed:
            o.error = "timeout"
        else:
            o.error = check(self.pool[c.problem], c, o.code, stdout)
        if watch:
            new = self._cache_files(mode) - before
            o.cache = "miss" if new else ("hit" if o.code == 0 else "")
        if mode != "plain" and not killed:
            try:
                with open(self.trace_path) as fh:
                    o.trace = json.load(fh)
            except (OSError, ValueError) as e:
                o.error = o.error or f"no trace: {e}"
        return o

    def run_round(self, commands: list[Command], modes: tuple[str, ...],
                  calibrate: bool = False):
        """One pass over the commands per mode, interleaved: each command
        runs in every mode before the next command starts, so the runs of
        one command that are paired are seconds apart, not a pass apart.
        Every mode's cache dir starts empty and sees only that mode's
        runs, as in a pass of its own.  With ``calibrate``, the
        calibration runs after a command once CAL_EVERY_S have gone by
        since its last run."""
        for mode in modes:
            shutil.rmtree(self.cache_dir(mode), ignore_errors=True)
            self.cache_dir(mode).mkdir(parents=True)
        outcomes: dict[str, list[Outcome]] = {mode: [] for mode in modes}
        for c in commands:
            for mode in modes:
                outcomes[mode].append(self.execute(c, mode))
            if (calibrate and perf() - self.last_cal >= CAL_EVERY_S
                    and time.monotonic() < self.deadline):
                self.calibrate()
        return tuple(Pass(outcomes[mode]) for mode in modes)


# ---------------------------------------------------------------------------
# setup

def setup(workload: str, seed: int) -> list[Command]:
    """Draw the commands, make a fresh work dir with an empty cache dir,
    and make one warm-up call that compiles lexcount's bytecode afresh."""
    commands = draw(workload, seed, load_pool())
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "cache").mkdir(parents=True)
    pkg = SRC / "lexcount"
    shutil.rmtree(pkg / "__pycache__", ignore_errors=True)
    r = subprocess.run([sys.executable, "-c", WARMUP, str(pkg)],
                       env=child_env(), cwd=WORK, capture_output=True,
                       text=True, timeout=120)
    if r.returncode != 0 or not r.stdout.startswith("2\n"):
        raise SystemExit(f"warm-up call failed (exit {r.returncode}): "
                         f"{(r.stderr or r.stdout).strip()[-300:]}")
    return commands


# ---------------------------------------------------------------------------
# metrics

def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _usable(passes: list[Pass]) -> list[Pass]:
    return [p for p in passes if p.complete] or passes


def _emitted(p: Pass, pool: dict) -> int:
    """Extensions the pass's answers account for, each problem once."""
    done = {o.command.problem for o in p.outcomes if o.started and not o.error}
    return sum(pool[pid]["emitted"] for pid in done)


def end_to_end(passes: list[Pass], pool: dict, setup_s: list[float]):
    """Metrics (name -> (value, unit)) and their sample counts."""
    ps = _usable(passes)
    lat = [o.seconds for p in ps for o in p.outcomes if o.started]
    rep = [o.seconds for p in ps for o in p.outcomes
           if o.started and o.command.repeat]
    emitted = [_emitted(p, pool) / p.wall for p in ps if p.wall > 0]
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else _median(lat)
    metrics = {
        "wall_s": (_median([p.wall for p in ps]), "s"),
        "cmd_p50_ms": (_median(lat) * 1e3, "ms"),
        "cmd_p90_ms": (p90 * 1e3, "ms"),
        "repeat_p50_ms": (_median(rep) * 1e3, "ms"),
        "emitted_per_s": (_median(emitted), "1/s"),
        "peak_rss_mb": (max((o.rss_kb for p in passes for o in p.outcomes),
                            default=0) / 1024, "MB"),
        "setup_s": (_median(setup_s), "s"),
    }
    samples = {"wall_s": len(ps), "cmd_p50_ms": len(lat),
               "cmd_p90_ms": len(lat), "repeat_p50_ms": len(rep),
               "emitted_per_s": len(emitted),
               "peak_rss_mb": sum(len(p.outcomes) for p in passes),
               "setup_s": len(setup_s)}
    return metrics, samples


def cpu_times(passes: list[Pass]) -> dict[str, float]:
    """The children's CPU time, beside the wall-clock metrics: the median
    pass's sum and the median command.  Not a metric; recorded to see
    whether it is steadier than wall time on a given host."""
    ps = _usable(passes)
    return {"pass_s": _median([sum(o.cpu for o in p.outcomes) for p in ps]),
            "cmd_p50_ms": _median([o.cpu for p in ps for o in p.outcomes
                                   if o.started]) * 1e3}


# per-layer self-time metrics: metric name -> tracer layer
SELF_MS = {
    "cli.self_ms": "cli", "posets.ms": "posets", "formulas.ms": "formulas",
    "transfer.ms": "transfer", "engine.dp.ms": "engine.dp",
    "engine.oracle.ms": "engine.oracle", "qstats.self_ms": "qstats",
    "perms.stat_ms": "perms.stat", "perms.format_ms": "perms.format",
    "perms.ms": "perms", "polys.ms": "polys", "paths.ms": "paths",
    "verify.ms": "verify", "gentree.ms": "gentree",
}
ENTRIES = {"transfer.calls": "transfer", "engine.dp.calls": "engine.dp",
           "engine.oracle.calls": "engine.oracle"}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _layer_round(spans: Pass, calls: Pass) -> dict[str, float]:
    """Per-layer values of one traced round, summed over its commands."""
    traces = [o.trace for o in spans.outcomes]

    def total(key: str) -> float:
        return sum(t.get(key, 0) for t in traces)

    self_s: Counter = Counter()
    entries: Counter = Counter()
    for t in traces:
        for layer, v in t.get("layers", {}).items():
            self_s[layer] += v["self_s"]
            entries[layer] += v["entries"]
    counts: Counter = Counter()
    for o in calls.outcomes:
        counts.update(o.trace.get("calls", {}))
    tracker = lambda method: sum(  # noqa: E731
        n for k, n in counts.items()
        if k.startswith("engine.") and k.endswith("." + method))
    hits = sum(o.cache == "hit" for o in spans.outcomes)
    misses = sum(o.cache == "miss" for o in spans.outcomes)
    results, nodes = total("results"), tracker("push")
    out = {"cli.import_ms": total("import_s") * 1e3,
           "proc.startup_ms": total("startup_s") * 1e3}
    out.update({name: self_s[layer] * 1e3 for name, layer in SELF_MS.items()})
    out.update({name: entries[layer] for name, layer in ENTRIES.items()})
    out.update({
        "cli.cache_hits": hits, "cli.cache_misses": misses,
        "cli.cache_hit_ratio": _ratio(hits, hits + misses),
        "formulas.calls": total("formula_calls"),
        "formulas.hit_ratio": _ratio(total("formula_hits"),
                                     total("formula_calls")),
        "engine.oracle.results": results, "engine.oracle.nodes": nodes,
        "engine.oracle.completes": tracker("completes"),
        "engine.oracle.nodes_per_result": _ratio(nodes, results),
    })
    return out


COUNTS = {"cli.cache_hits", "cli.cache_misses", "formulas.calls",
          "transfer.calls", "engine.dp.calls", "engine.oracle.calls",
          "engine.oracle.nodes", "engine.oracle.completes",
          "engine.oracle.results"}
RATIOS = {"cli.cache_hit_ratio", "formulas.hit_ratio",
          "engine.oracle.nodes_per_result"}


def paired_overhead(rounds: list[tuple[Pass, Pass, Pass]]):
    """Traced minus plain latency of each command, paired with the same
    command's plain run in the same round: command index -> differences,
    one per round."""
    diffs: dict[int, list[float]] = {}
    for plain, spans, _ in rounds:
        for i, (a, b) in enumerate(zip(plain.outcomes, spans.outcomes)):
            if a.started and b.started:
                diffs.setdefault(i, []).append(b.seconds - a.seconds)
    return diffs


def overhead_spread(diffs: dict[int, list[float]]) -> str:
    """Quartiles of the paired per-command differences, and how many are
    negative, i.e. smaller than the host's drift between two runs."""
    flat = [x * 1e3 for d in diffs.values() for x in d]
    q1, q2, q3 = (statistics.quantiles(flat, n=4) if len(flat) >= 2
                  else flat * 3)
    negative = sum(x < 0 for x in flat)
    return (f"trace.overhead_s per command (ms): q1 {q1:.4g}, median "
            f"{q2:.4g}, q3 {q3:.4g}; {negative} of {len(flat)} negative")


def per_layer(rounds: list[tuple[Pass, Pass, Pass]]):
    """Per-layer metrics: times are medians over rounds, counts come from
    the first round (they repeat exactly).  The tracing overhead is the sum
    over commands of each command's median paired difference."""
    per_round = [_layer_round(spans, calls) for _, spans, calls in rounds]
    diffs = paired_overhead(rounds)
    metrics = {}
    for name in per_round[0]:
        unit = ("count" if name in COUNTS else
                "ratio" if name in RATIOS else "ms")
        vals = [r[name] for r in per_round]
        metrics[name] = (vals[0] if unit != "ms" else _median(vals), unit)
    metrics["trace.overhead_s"] = (sum(_median(d) for d in diffs.values()),
                                   "s")
    samples = {name: len(rounds) for name in metrics}
    samples["trace.overhead_s"] = sum(len(d) for d in diffs.values())
    return metrics, samples


# ---------------------------------------------------------------------------
# stamp and report

def stamp(args: argparse.Namespace, commands: list[Command], load1: float,
          passes: int) -> dict:
    """What a result must match to be compared like for like."""
    commit, dirty = None, None
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
            d = subprocess.run(["git", "status", "--porcelain",
                                "--untracked-files=no"], cwd=ROOT,
                               capture_output=True, text=True)
            dirty = bool(d.stdout.strip())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "load1": load1, "commit": commit, "dirty": dirty,
            "commands": len(commands), "draw_sha256": draw_hash(commands),
            "passes": passes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lexcount benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, default=None,
                    help="append the full record (stamp, metrics, sample "
                         "counts, failures) to this JSON-lines file")
    args = ap.parse_args(argv)
    if not (SRC / "lexcount" / "cli.py").is_file():
        print(f"error: no lexcount sources under {SRC}; run from the root "
              "of a lexcount checkout", file=sys.stderr)
        return 2
    start = time.monotonic()
    load1 = os.getloadavg()[0]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return measure(args, start, load1)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def measure(args: argparse.Namespace, start: float, load1: float) -> int:
    pool = load_pool()
    runner = Runner(pool, start + DEADLINE_S, args.workload)
    setup_s, setup_at = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf()
        commands = setup(args.workload, args.seed)
        setup_s.append(perf() - t0)
        setup_at.append((t0 + perf()) / 2)
        if not args.trace:
            runner.calibrate()

    passes: list[Pass] = []
    rounds: list[tuple[Pass, Pass, Pass]] = []
    t_measure = time.monotonic()
    n = 0
    while True:
        if args.trace:
            rounds.append(runner.run_round(commands,
                                           ("plain", "spans", "calls")))
            passes.extend(rounds[-1])
        else:
            passes.extend(runner.run_round(commands, ("plain",),
                                           calibrate=True))
        n += 1
        elapsed = time.monotonic() - t_measure
        least = 1 if args.trace else MIN_PASSES
        if ((n >= least and elapsed + elapsed / n / 2 >= args.seconds)
                or time.monotonic() >= runner.deadline):
            break

    if args.trace:
        metrics, samples = per_layer(rounds)
        raw = {}
        notes = [overhead_spread(paired_overhead(rounds))]
    else:
        metrics, samples = end_to_end(
            runner.normalize(passes), pool,
            [s / runner.speed(at) for s, at in zip(setup_s, setup_at)])
        raw, _ = end_to_end(passes, pool, setup_s)
        cal = statistics.quantiles([s for _, s in runner.cal], n=4)
        notes = [f"calibration {cal[1] * 1e3:.4g} ms median "
                 f"[{cal[0] * 1e3:.4g}, {cal[2] * 1e3:.4g}] "
                 f"(n={len(runner.cal)}), reference "
                 f"{runner.cal_ref * 1e3:.4g} ms",
                 "raw " + ", ".join(f"{k} {v:.6g} {u}"
                                    for k, (v, u) in raw.items())]
    cpu = cpu_times([r[0] for r in rounds] if args.trace else passes)
    outcomes = [o for p in passes for o in p.outcomes]
    failed = [o for o in outcomes if o.error]
    st = stamp(args, commands, load1, len(passes))

    print("stamp " + json.dumps(st, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={samples[name]})")
    for note in notes:
        print(note)
    print(f"child cpu: pass {cpu['pass_s']:.4g} s, command p50 "
          f"{cpu['cmd_p50_ms']:.4g} ms")
    for o in failed[:10]:
        print(f"FAILED {' '.join(o.command.argv)}: {o.error}")
    if args.record:
        record = {"stamp": st,
                  "metrics": {k: v for k, (v, _) in metrics.items()},
                  "units": {k: u for k, (_, u) in metrics.items()},
                  "samples": samples, "notes": notes, "cpu": cpu,
                  "calibration": runner.cal,
                  "raw": {k: v for k, (v, _) in raw.items()},
                  "lat": [[[o.at, o.seconds] for o in p.outcomes]
                          for p in passes],
                  "setup": [setup_s, setup_at],
                  "attempted": len(outcomes),
                  "failed": len(failed),
                  "failures": [[list(o.command.argv), o.error]
                               for o in failed[:20]]}
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    result = {"correct": not failed, "attempted": len(outcomes),
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
