"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

The last two tests run the benchmark end to end (about a minute together).
"""
import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from lexcount.cli import build_parser, main as lexcount_main  # noqa: E402
from lexcount.polys import format_q  # noqa: E402

POOL = wl.load_pool()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_inprocess(c: wl.Command) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lexcount_main(list(c.argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_draw_smoke(workload):
    cmds = wl.draw(workload, 7, POOL)
    assert len(cmds) >= (80 if workload == "session" else 7)
    parser = build_parser()
    seen = set()
    for c in cmds:
        assert c.problem in POOL
        parser.parse_args(list(c.argv))  # every spelling is valid CLI input
        if c.repeat:
            assert c.problem in seen, "a repeat follows its original"
        seen.add(c.problem)
    repeats = [c for c in cmds if c.repeat]
    assert repeats
    if workload == "session":
        cacheable = [c for c in cmds if c.cmd in wl.CACHEABLE]
        assert 0.25 <= len(repeats) / len(cacheable) <= 0.45
        assert {c.repeat for c in repeats} == {"verbatim", "respelled"}
        assert all(c.cache for c in cmds)
    else:
        assert not any(c.cache for c in cmds)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_draw(workload):
    a = wl.draw(workload, 11, POOL)
    assert a == wl.draw(workload, 11, POOL)
    assert wl.draw_hash(a) == wl.draw_hash(wl.draw(workload, 11, POOL))
    assert wl.draw_hash(a) != wl.draw_hash(wl.draw(workload, 12, POOL))


def test_respelled_repeat_keeps_the_output():
    rng = random.Random(3)
    for pid in ("count/EN:4x4/1324", "table/NE:3x3/213",
                "qpoly/NE:3x3/213/inv"):
        c = wl.spell(POOL[pid], rng, "flag")
        for _ in range(5):
            r = wl.respell(c, rng, allow_env=False)
            assert (r.argv, r.cache) != (c.argv, c.cache)
            assert run_inprocess(r) == run_inprocess(c)


SMALL = ["count/EN:6x5/1243", "count/EN:4x4/1324", "list/EN:3x3/1243",
         "qpoly/NE:3x3/213/inv", "table/NE:3x3/213", "charpoly/5",
         "bijection/EN:4x3+saw/fcpath/perm", "verify/conjectures"]


@pytest.mark.parametrize("pid", SMALL)
def test_check_accepts_every_format_and_rejects_corruption(pid):
    problem = POOL[pid]
    cmd = problem["spec"]["cmd"]
    for fmt in wl.FORMATS[cmd]:
        pairs = wl._pairs(problem["spec"], transpose=False)
        c = wl.Command(pid, wl._argv(cmd, pairs + [("--format", fmt)]),
                       fmt, "", "")
        code, out = run_inprocess(c)
        assert wl.check(problem, c, code, out) == ""
        assert wl.check(problem, c, code + 1, out) != ""
        corrupt = _corrupt(out)
        assert wl.check(problem, c, code, corrupt) != "", corrupt


def _corrupt(out: str) -> str:
    """Flip a check's status mark, or else shift every digit by one."""
    if "[ok  ]" in out:
        return out.replace("[ok  ]", "[FAIL]", 1)
    return out.translate(str.maketrans("0123456789", "1234567890"))


def test_parse_poly_inverts_format():
    for coeffs in ([1], [0, 1], [1, -4, -1], [0, 0, 3, 0, 1], [2, 0, -1]):
        assert wl.parse_poly(format_q(coeffs), "q") == coeffs


def test_pool_entries_agree_with_each_other():
    # a list's line count and its q-polynomial's sum are the same count
    for pid, p in POOL.items():
        assert len(p["routes"]) >= 1
        if p["spec"]["cmd"] == "qpoly":
            twin = f"list/{p['spec']['poset']}/" + (
                "+".join(p["spec"]["avoid"]) or "none")
            if twin in POOL:
                lines = POOL[twin]["expect"]["lines"]
                assert sum(p["expect"]["coeffs"]) == lines


def test_session_repeats_have_a_fixed_mix_per_category():
    for seed in (1, 2, 3):
        mix = {}
        for c in wl.draw("session", seed, POOL):
            if c.repeat:
                cat = POOL[c.problem]["category"]
                v, r = mix.get(cat, (0, 0))
                mix[cat] = (v + (c.repeat == "verbatim"),
                            r + (c.repeat == "respelled"))
        assert mix == wl.SESSION_REPEATS


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_calibration_answer(workload):
    runner = run.Runner({}, 0.0, workload)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(runner.cal_source, {})
    assert buf.getvalue() == runner.cal_answer
    assert "lexcount" not in runner.cal_source


def test_latencies_are_divided_by_the_host_speed_nearby():
    runner = run.Runner({}, 0.0, "session")
    ref = runner.cal_ref
    # the host runs at reference speed until t=100, then twice as slow
    runner.cal = [(t, ref) for t in range(0, 100, 5)] + \
                 [(t, 2 * ref) for t in range(100, 200, 5)]
    assert runner.speed(20) == pytest.approx(1.0)
    assert runner.speed(150) == pytest.approx(2.0)
    c = wl.Command("list/EN:2x2/123", ("list",), "plain", "", "")
    p = run.Pass([run.Outcome(c, 0.3, at=20), run.Outcome(c, 0.6, at=150)])
    (q,) = runner.normalize([p])
    assert [o.seconds for o in q.outcomes] == pytest.approx([0.3, 0.3])
    assert [o.seconds for o in p.outcomes] == [0.3, 0.6]


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [x * 0.7 for x in base]
    slower = [x * 1.3 for x in base]
    noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 8.0]
    v = compare.verdict
    assert v(base, faster, "lower", 0.1, False) == "improved"
    assert v(base, faster, "lower", 0.1, True) == "unresolved"
    assert v(base, slower, "lower", 0.1, False) == "worse"
    assert v(base, list(base), "lower", 0.1, False) == "unchanged"
    assert v(base, noisy, "lower", 0.1, False) == "unresolved"
    assert v(base, faster, "higher", None, False) == "worse"


def test_tracer_keeps_output_and_counts_work(tmp_path):
    argv = ["count", "--poset", "EN:4x4", "--avoid", "1324"]
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    plain = subprocess.run([sys.executable, "-c",
                            "import sys; from lexcount.cli import main; "
                            "sys.exit(main())", *argv],
                           capture_output=True, text=True, env=env)
    traces = {}
    for mode in ("spans", "calls"):
        out = tmp_path / f"{mode}.json"
        r = subprocess.run([sys.executable, str(BENCH / "tracer.py"), mode,
                            str(out), "--", *argv],
                           capture_output=True, text=True, env=env)
        assert (r.returncode, r.stdout) == (plain.returncode, plain.stdout)
        traces[mode] = json.loads(out.read_text())
    spans = traces["spans"]
    assert spans["results"] == 785
    assert spans["layers"]["engine.oracle"]["entries"] == 1
    assert spans["layers"]["cli"]["entries"] == 1
    assert len(spans["spans"]["name"]) == len(spans["spans"]["parent"])
    calls = traces["calls"]["calls"]
    assert calls["engine.GenericTracker.push"] > 785


def test_tracer_wraps_modules_imported_late():
    script = (
        "import sys, tracer, lexcount.cli\n"
        "del sys.modules['lexcount.gentree']\n"
        "tracer.Instrumenter(tracer.Recorder()).install()\n"
        "import lexcount.gentree as g\n"
        "assert hasattr(g.count_at_depth, '__wrapped__')\n"
        "assert hasattr(lexcount.cli.count_avoiders, '__wrapped__')\n")
    env = {"PYTHONPATH": f"{ROOT / 'src'}:{BENCH}", "PATH": "/usr/bin:/bin"}
    r = subprocess.run([sys.executable, "-c", script], env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_tracer_imports_nothing_before_the_timed_import():
    # json loads re, enum and functools, which lexcount.cli needs as well;
    # a module the tracer loads before the timer starts would have its
    # cost escape import_s.  Modules the interpreter loads at start-up
    # (here, perhaps re through a .pth file) are proc.startup_ms.
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import tracer\n"
              "early = set(sys.modules) - before - {'tracer', 'time'}\n"
              "assert not early, early\n")
    env = {"PYTHONPATH": f"{ROOT / 'src'}:{BENCH}", "PATH": "/usr/bin:/bin"}
    r = subprocess.run([sys.executable, "-c", script], env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_overhead_pairs_each_command_with_its_plain_run():
    def passes(*seconds):
        return run.Pass([run.Outcome(None, s) for s in seconds])

    # the host slows down 2 s during the second round's traced pass; the
    # paired median per command keeps that out of the estimate
    rounds = [(passes(1.0, 2.0), passes(1.1, 2.1), passes(9, 9)),
              (passes(1.0, 2.0), passes(3.1, 2.1), passes(9, 9)),
              (passes(1.0, 2.0), passes(1.1, 2.1), passes(9, 9))]
    diffs = run.paired_overhead(rounds)
    assert sorted(diffs) == [0, 1]
    metrics, samples = run.per_layer(rounds)
    assert metrics["trace.overhead_s"][0] == pytest.approx(0.2)
    assert samples["trace.overhead_s"] == 6
    assert "0 of 6 negative" in run.overhead_spread(diffs)


def _run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = _run_bench(tmp_path, "--workload", "sweep", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert r.returncode != 0
    assert '"metrics"' not in r.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_report_schema(trace):
    r = _run_bench(ROOT, "--workload", "emit", "--seed", "5",
                   "--seconds", "1", "--trace", str(trace))
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    stamp = json.loads(r.stdout.splitlines()[0].removeprefix("stamp "))
    for key in ("python", "nproc", "load1", "commit", "dirty", "seed",
                "draw_sha256"):
        assert key in stamp
