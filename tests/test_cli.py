import gc
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lexcount import cli
from lexcount.cli import main
from lexcount.posets import FAMILIES


SRC = Path(__file__).resolve().parents[1] / "src"


def fresh(*args, text: bool = True) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports lexcount from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=text, timeout=60)


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out.rstrip("\n"), captured.err
    return _run


class TestCount:
    def test_formula_route(self, run):
        code, out, _ = run("count", "--poset", "EN:4x3", "--avoid", "1243")
        assert code == 0
        assert out == "55\nroute: Cor4.6"

    def test_transfer_route(self, run):
        code, out, _ = run("count", "--poset", "EN:5x4", "--avoid", "2143",
                           "--route", "transfer")
        assert code == 0
        assert out.splitlines()[0] == "9841"

    def test_no_patterns_uses_dp(self, run):
        code, out, _ = run("count", "--poset", "EN:6x6",
                           "--route", "ideal-dp")
        assert code == 0
        value, route = out.splitlines()
        assert int(value) > 10 ** 9
        assert route == "route: ideal-dp"

    def test_json_schema(self, run):
        code, out, _ = run("count", "--poset", "EN:4x3", "--avoid", "1243",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"value": 55, "route": "Cor4.6",
                           "poset": "EN:4x3", "patterns": ["1243"]}

    def test_csv(self, run):
        code, out, _ = run("count", "--poset", "NE:2x3", "--avoid", "213",
                           "--format", "csv")
        assert code == 0
        assert out == "value,route\n3,Thm3.5"

    def test_augmented_poset(self, run):
        code, out, _ = run("count", "--poset", "EN:4x3+saw")
        assert code == 0
        assert out.splitlines()[0] == "55"

    @pytest.mark.parametrize("spec, route", [
        ("EN:1x3+saw", "Cor4.6"), ("EN:4x1+saw", "Cor4.6"),
        ("EN:3x1+zip", "Thm5.9i")], ids=["EN:1x3+saw", "EN:4x1+saw",
                                          "EN:3x1+zip"])
    def test_augmented_poset_echo(self, run, spec, route):
        # the echo is the spec as given, tag included, t = 1 too; the
        # route is the plain grid's formula for the tag's pattern
        code, out, _ = run("count", "--poset", spec, "--format", "json")
        assert code == 0
        assert json.loads(out) == {"value": 1, "route": route,
                                   "poset": spec, "patterns": []}

    def test_augmented_poset_past_the_guard(self, run):
        # 36 elements: beyond DP_GUARD, answered by the DP and by the
        # formula of EN:6x6 avoiding 1243
        code, out, _ = run("count", "--poset", "EN:6x6+saw")
        assert code == 0
        assert out == "62832\nroute: Cor4.6"

    def test_plain_count_runs_dp_once(self, run, monkeypatch):
        from lexcount import engine
        calls, real = [], engine._avoider_dp
        monkeypatch.setattr(engine, "_avoider_dp",
                            lambda *a: calls.append(a) or real(*a))
        for argv, want in [
                (["--poset", "EN:4x3+saw"], "55\nroute: Cor4.6"),
                (["--poset", "EN:4x4", "--avoid", "1324"],
                 "785\nroute: ideal-dp")]:
            calls.clear()
            assert run("count", *argv) == (0, want, "")
            assert len(calls) == 1, argv

    def test_every_small_augmented_poset_agrees(self, run):
        # formula, transfer and ideal-dp, where they run, give one count
        for spec in [f"EN:{s}x{t}+{tag}" for tag in ("saw", "zip")
                     for s in range(1, 25) for t in range(1, 24 // s + 1)]:
            code, out, err = run("count", "--poset", spec)
            assert (code, err) == (0, ""), (spec, out)

    def test_size_guard(self, run):
        code, out, err = run("count", "--poset", "EN:6x6", "--avoid", "12345",
                             "--route", "ideal-dp")
        assert code == 1
        assert "force" in err

    def test_bad_poset_spec(self, run):
        code, _, err = run("count", "--poset", "EN:4y3")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ["count"], ["list"], ["qpoly"], ["bijection", "--kind", "fcpath",
                                         "--perm", ""]])
    def test_zero_dimension_augmented_poset(self, run, argv):
        code, out, err = run(argv[0], "--poset", "EN:0x3+saw", *argv[1:])
        assert (code, out) == (1, "")
        assert err == "error: dimensions must be positive, got s=0, t=3\n"

    def test_bad_pattern(self, run):
        code, _, err = run("count", "--poset", "EN:2x2", "--avoid", "122")
        assert code == 1

    def test_routes_cross_checked(self, run):
        # several routes fire here; agreement means exit 0
        code, out, _ = run("count", "--poset", "EN:3x3", "--avoid", "2143")
        assert code == 0
        assert out.splitlines()[0] == "21"


class TestRoute:
    """--route runs one route alone, under its own label."""

    @pytest.mark.parametrize("route, label", [
        ("formula", "Thm5.9iii"), ("transfer", "transfer"),
        ("ideal-dp", "ideal-dp")])
    def test_each_route_answers_alone(self, run, route, label):
        assert run("count", "--poset", "EN:3x3", "--avoid", "2143",
                   "--route", route) == (0, f"21\nroute: {label}", "")

    def test_dp_with_patterns(self, run):
        assert run("count", "--poset", "EN:4x4", "--avoid", "1324",
                   "--route", "ideal-dp") == (0, "785\nroute: ideal-dp", "")

    def test_dp_past_the_guard(self, run):
        assert run("count", "--poset", "EN:6x6", "--avoid", "12345",
                   "--route", "ideal-dp") == (
            1, "", "error: ideal-dp route refused for 36 elements; pass "
                   "--force\n")

    def test_force_lifts_the_guard(self, run):
        # 27 elements and no closed form: the DP alone answers
        assert run("count", "--poset", "NE:3x9", "--avoid", "123",
                   "--force") == (0, "5330403\nroute: ideal-dp", "")

    def test_oracle_is_not_a_route(self, run):
        assert run("count", "--poset", "EN:2x2", "--route", "oracle") == (
            1, "", "lexcount count: error: argument --route: invalid choice: "
                   "'oracle' (choose from 'formula', 'transfer', "
                   "'ideal-dp')\n")


class TestDisagreement:
    @pytest.fixture(autouse=True)
    def broken_transfer(self, monkeypatch):
        import lexcount.transfer
        real = lexcount.transfer.count_2143
        monkeypatch.setattr(lexcount.transfer, "count_2143",
                            lambda s, t: real(s, t) + 1)

    def test_count_exits_2(self, run, tmp_path):
        code, out, err = run("--cache-dir", str(tmp_path), "count",
                             "--poset", "EN:3x3", "--avoid", "2143")
        assert code == 2
        assert out == ("route disagreement: Thm5.9iii=21, ideal-dp=21, "
                       "transfer=22")
        assert err == ""
        assert not list(tmp_path.iterdir())

    def test_table_exits_2(self, run, tmp_path):
        code, out, err = run("--cache-dir", str(tmp_path), "table",
                             "--family", "EN", "--avoid", "2143",
                             "--max-s", "2", "--max-t", "2")
        assert code == 2
        assert out == ("route disagreement: Thm5.9i=1, ideal-dp=1, "
                       "transfer=2 at (1,1)")
        assert err == ""
        assert not list(tmp_path.iterdir())


class TestFormulaDisagreement:
    def test_augmented_count_exits_2(self, run, tmp_path, monkeypatch):
        import lexcount.formulas
        real = lexcount.formulas.count_formula
        monkeypatch.setattr(lexcount.formulas, "count_formula",
                            lambda prob: real(prob)._replace(
                                value=real(prob).value + 1))
        code, out, err = run("--cache-dir", str(tmp_path), "count",
                             "--poset", "EN:4x3+saw")
        assert (code, out, err) == (
            2, "route disagreement: Cor4.6=56, ideal-dp=55", "")
        assert not list(tmp_path.iterdir())


class TestList:
    def test_plain(self, run):
        code, out, _ = run("list", "--poset", "EN:2x2", "--avoid", "123")
        assert code == 0
        assert out.splitlines() == ["3142", "3412"]

    def test_json(self, run):
        code, out, _ = run("list", "--poset", "EN:2x2", "--format", "json")
        payload = json.loads(out)
        assert payload["extensions"] == ["3142", "3412"]

    @pytest.mark.parametrize("argv", [
        ["--poset", "EN:4x4"], ["--poset", "EN:4x3", "--avoid", "1243"],
        ["--poset", "NE:3x3", "--avoid", "123"],
        ["--poset", "EN:2x2", "--avoid", "1"]])
    def test_json_has_the_plain_lines(self, run, argv):
        # EN:4x4 lists 24,024 extensions, more text than one block holds
        code, plain, _ = run("list", *argv)
        assert code == 0
        code, out, _ = run("list", *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["extensions"] == plain.splitlines()

    def test_guard(self, run):
        code, _, err = run("list", "--poset", "EN:6x6")
        assert code == 1
        assert "force" in err

    def test_csv_is_a_usage_error(self, run):
        code, out, err = run("list", "--poset", "EN:2x2", "--format", "csv")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert "invalid choice: 'csv'" in err

    def test_no_extensions(self, run, capsys):
        # every extension contains 1: one empty line, not an error
        assert main(["list", "--poset", "EN:2x2", "--avoid", "1"]) == 0
        assert capsys.readouterr().out == "\n"
        code, out, _ = run("list", "--poset", "EN:2x2", "--avoid", "1",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["extensions"] == []


class TestTable:
    def test_json_rows(self, run):
        code, out, _ = run("table", "--family", "NE", "--avoid", "123",
                           "--max-s", "4", "--max-t", "4", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[3][3] == 4146
        assert rows[0] == [1, 1, 1, 1]

    def test_csv(self, run):
        code, out, _ = run("table", "--family", "EN", "--avoid", "2143",
                           "--max-s", "3", "--max-t", "3", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "s/t,1,2,3"
        assert lines[3] == "3,1,4,21"

    def test_plain_alignment(self, run):
        code, out, _ = run("table", "--family", "EN", "--max-s", "2",
                           "--max-t", "3")
        lines = out.splitlines()
        assert lines[0].split() == ["s/t", "1", "2", "3"]
        assert lines[2].split() == ["2", "1", "2", "5"]

    def test_unavailable_cells_dashed(self, run):
        # cells past DP_GUARD with no formula fall back to "-"
        code, out, _ = run("table", "--family", "NE", "--avoid", "123",
                           "--max-s", "3", "--max-t", "9", "--format", "csv")
        assert code == 0
        assert out.splitlines()[3].endswith(",-")

    @pytest.mark.parametrize("bounds", [("0", "2"), ("2", "0"), ("-1", "3"),
                                        ("2", "-4")])
    def test_range_must_be_positive(self, run, bounds):
        code, out, err = run("table", "--family", "NE", "--max-s", bounds[0],
                             "--max-t", bounds[1])
        assert code == 1
        assert out == ""
        assert "must be at least 1" in err
        assert "Traceback" not in err

    def test_range_must_be_an_integer(self, run):
        code, out, err = run("table", "--family", "NE", "--max-s", "x",
                             "--max-t", "2")
        assert (code, out) == (1, "")
        assert "argument --max-s: invalid int value: 'x'" in err


class TestQpoly:
    def test_plain(self, run):
        code, out, _ = run("qpoly", "--poset", "EN:2x2", "--avoid", "123")
        assert code == 0
        assert out == "q^3 + q^4"

    def test_json(self, run):
        code, out, _ = run("qpoly", "--poset", "EN:2x2", "--avoid", "123",
                           "--format", "json")
        payload = json.loads(out)
        assert payload["coeffs"] == [0, 0, 0, 1, 1]
        assert payload["stat"] == "inv"

    def test_csv_skips_zero_coefficients(self, run):
        code, out, _ = run("qpoly", "--poset", "EN:2x2", "--avoid", "123",
                           "--format", "csv")
        assert out.splitlines() == ["power,coefficient", "3,1", "4,1"]

    def test_maj(self, run):
        code, out, _ = run("qpoly", "--poset", "NE:2x2", "--avoid", "123",
                           "--stat", "maj")
        assert code == 0


class TestBijection:
    def test_kinds_are_those_of_paths(self):
        # spelled out in COMMANDS, so that start-up never imports paths
        from lexcount import paths
        kind = next(o for o in cli.COMMANDS["bijection"][2]
                    if o[0] == "--kind")
        assert kind[1] == tuple(paths.BIJECTIONS)

    def test_fcpath_forward(self, run):
        code, out, _ = run("bijection", "--poset", "EN:4x3+saw",
                           "--kind", "fcpath",
                           "--perm", "10,11,7,12,8,9,4,5,1,6,2,3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "NNNENENNNENE"
        assert lines[1].startswith("extension descents:")
        assert lines[2].startswith("path descents:")

    def test_fcpath_inverse(self, run):
        code, out, _ = run("bijection", "--poset", "EN:4x3+saw",
                           "--kind", "fcpath", "--word", "NNNENENNNENE")
        assert code == 0
        assert out == "10,11,7,12,8,9,4,5,1,6,2,3"

    def test_tableau_roundtrip(self, run):
        code, out, _ = run("bijection", "--poset", "EN:2x2",
                           "--kind", "tableau", "--perm", "3142",
                           "--format", "json")
        rows = json.loads(out)["tableau"]
        code2, out2, _ = run("bijection", "--poset", "EN:2x2",
                             "--kind", "tableau", "--word", json.dumps(rows))
        assert code2 == 0
        assert out2 == "3142"

    def test_zipper(self, run):
        code, out, _ = run("bijection", "--poset", "EN:2x2+zip",
                           "--kind", "zipper", "--perm", "3142")
        assert code == 0
        assert out == "N1 N2 N1 N2"
        code2, out2, _ = run("bijection", "--poset", "EN:2x2+zip",
                             "--kind", "zipper", "--word", "N1 N2 N1 N2")
        assert out2 == "3142"

    def test_requires_exactly_one_input(self, run):
        code, _, err = run("bijection", "--poset", "EN:2x2",
                           "--kind", "tableau")
        assert code == 1
        code, _, err = run("bijection", "--poset", "EN:2x2",
                           "--kind", "zipper", "--perm", "3142",
                           "--word", "N1 N2")
        assert code == 1

    @pytest.mark.parametrize("poset, word", [
        ("EN:2x2", "[1, 2]"), ("EN:3x3", "[[1, 2]]"), ("EN:2x2", '{"a": 1}'),
        ("EN:2x2", "[[1, 2], [3, true]]"), ("EN:2x2", "[[1, 2], [3]]")])
    def test_tableau_word_must_fit_poset(self, run, poset, word):
        code, out, err = run("bijection", "--poset", poset,
                             "--kind", "tableau", "--word", word)
        assert code == 1
        assert out == ""
        assert err.startswith("error: --word must be a JSON list of")
        assert len(err.splitlines()) == 1

    def test_invalid_domain(self, run):
        code, _, err = run("bijection", "--poset", "EN:2x2",
                           "--kind", "tableau", "--perm", "1234")
        assert code == 1

    def test_perm_of_the_wrong_length(self, run):
        # 3142 is an extension of EN:2x2; a fifth entry makes it none
        code, out, err = run("bijection", "--poset", "EN:2x2",
                             "--kind", "tableau", "--perm", "31425")
        assert (code, out) == (1, "")
        assert err == "error: not a linear extension of the EN grid\n"

    @pytest.mark.parametrize("poset, kind, given", [
        ("NE:2x2", "tableau", ("--perm", "3142")),
        ("EN:2x2+saw", "tableau", ("--perm", "3142")),
        ("SW:2x2", "fcpath", ("--word", "NENE")),
        ("EN:2x2", "fcpath", ("--word", "NENE")),
        ("EN:2x2+zip", "fcpath", ("--perm", "3412")),
        ("WN:2x2", "zipper", ("--word", "N1 N2 N1 N2")),
        ("EN:3x2+saw", "zipper", ("--perm", "563412")),
        ("EN:1x3+saw", "tableau", ("--perm", "123")),
        ("EN:3x1+saw", "tableau", ("--perm", "321")),
        ("EN:3x1+zip", "fcpath", ("--perm", "321"))])
    def test_kind_fixes_the_poset(self, run, poset, kind, given):
        code, out, err = run("bijection", "--poset", poset, "--kind", kind,
                             *given)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: --kind {kind} needs the poset EN:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("extra, message", [
        (("--format", "csv"), "invalid choice: 'csv'"),
        (("--force",), "unrecognized arguments: --force")])
    def test_inert_options_are_usage_errors(self, run, extra, message):
        code, out, err = run("bijection", "--poset", "EN:2x2",
                             "--kind", "tableau", "--perm", "3142", *extra)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert message in err


class TestCharpoly:
    def test_plain(self, run):
        assert run("charpoly", "--t", "3")[1] == "1 - 4x - x^2"
        assert run("charpoly", "--t", "4")[1] == "1 - 8x - 9x^2"

    def test_json(self, run):
        code, out, _ = run("charpoly", "--t", "3", "--format", "json")
        assert json.loads(out) == {"coeffs": [1, -4, -1], "t": 3}

    def test_csv(self, run):
        code, out, _ = run("charpoly", "--t", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["power,coefficient", "0,1", "1,-4",
                                    "2,-1"]

    @pytest.mark.parametrize("t", ["0", "-3"])
    def test_t_below_one_names_the_option(self, run, t):
        code, out, err = run("charpoly", "--t", t)
        assert (code, out) == (1, "")
        assert err == ("lexcount charpoly: error: argument --t: must be at "
                       f"least 1, got {t}\n")


class TestVerify:
    def test_theorems_fast(self, run):
        code, out, _ = run("verify", "--suite", "theorems", "--fast")
        assert code == 0
        assert all(line.startswith("[ok  ]") for line in out.splitlines())

    def test_conjectures_report_failures(self, run):
        code, out, _ = run("verify", "--suite", "conjectures", "--fast")
        assert code == 2
        assert any(line.startswith("[FAIL]") for line in out.splitlines())
        assert any(line.startswith("[info]") for line in out.splitlines())

    def test_json(self, run):
        code, out, _ = run("verify", "--suite", "theorems", "--fast",
                           "--format", "json")
        payload = json.loads(out)
        assert payload["suite"] == "theorems"
        assert all(c["status"] == "pass" for c in payload["checks"])

    def test_csv_is_a_usage_error(self, run):
        code, out, err = run("verify", "--suite", "theorems", "--fast",
                             "--format", "csv")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "invalid choice: 'csv'" in err

    @pytest.mark.parametrize("suite, want_code, flags", [
        ("theorems", 0, ("--fast",)), ("conjectures", 2, ("--fast",)),
        ("theorems", 0, ()), ("conjectures", 2, ())],
        ids=["theorems-0", "conjectures-2", "theorems-full",
             "conjectures-full"])
    def test_fast_report_is_golden(self, run, suite, want_code, flags):
        """The whole plain report, instance counts and failure details
        included, so that a change to any check's loop shows here; with
        --fast and at each check's default sizes."""
        code, out, _ = run("verify", "--suite", suite, *flags)
        name = f"verify_{suite}{'_fast' if flags else ''}.txt"
        golden = Path(__file__).parent / "golden" / name
        assert (code, out) == (want_code, golden.read_text().rstrip("\n"))


GOLDEN_CLI = Path(__file__).parent / "golden" / "cli_outputs.json"
FCPERM = "10,11,7,12,8,9,4,5,1,6,2,3"
GOLDEN_ARGVS = [
    [cmd, *argv, *fmt] for cmd, argv, formats in [
        ("count", ["--poset", "EN:4x3", "--avoid", "1243"],
         ("plain", "json", "csv")),
        ("count", ["--poset", "NE:3x3", "--avoid", "213", "--avoid", "123"],
         ("plain", "json", "csv")),
        ("count", ["--poset", "EN:3x4+zip"], ("plain", "json", "csv")),
        ("count", ["--poset", "EN:4x3+saw", "--route", "ideal-dp"],
         ("plain",)),
        # a pattern count that only the DP answers
        ("count", ["--poset", "EN:4x4", "--avoid", "1324"],
         ("plain", "json", "csv")),
        ("list", ["--poset", "EN:3x2", "--avoid", "2143"], ("plain", "json")),
        ("list", ["--poset", "EN:2x2", "--avoid", "1"], ("plain", "json")),
        # n = 12: comma-separated lines
        ("list", ["--poset", "EN:4x3", "--avoid", "1243"], ("plain", "json")),
        ("table", ["--family", "NE", "--avoid", "123", "--max-s", "3",
                   "--max-t", "9"], ("plain", "json", "csv")),
        ("table", ["--family", "EN", "--max-s", "12", "--max-t", "2"],
         ("plain", "csv")),
        ("qpoly", ["--poset", "EN:3x3", "--avoid", "2143"],
         ("plain", "json", "csv")),
        ("qpoly", ["--poset", "NE:3x2", "--avoid", "123", "--stat", "maj"],
         ("plain", "json", "csv")),
        ("charpoly", ["--t", "5"], ("plain", "json", "csv")),
        ("bijection", ["--poset", "EN:2x3", "--kind", "tableau",
                       "--perm", "451623"], ("plain", "json")),
        ("bijection", ["--poset", "EN:2x3", "--kind", "tableau",
                       "--word", "[[1, 3, 5], [2, 4, 6]]"], ("plain", "json")),
        ("bijection", ["--poset", "EN:4x3+saw", "--kind", "fcpath",
                       "--perm", FCPERM], ("plain", "json")),
        ("bijection", ["--poset", "EN:4x3+saw", "--kind", "fcpath",
                       "--word", "NNNENENNNENE"], ("plain", "json")),
        ("bijection", ["--poset", "EN:2x2+zip", "--kind", "zipper",
                       "--perm", "3142"], ("plain", "json")),
        ("bijection", ["--poset", "EN:2x2+zip", "--kind", "zipper",
                       "--word", "N1 N2 N1 N2"], ("plain", "json")),
        # fcpath with teeth of length t = 4, zipper words of s = 4 letters
        ("bijection", ["--poset", "EN:3x4+saw", "--kind", "fcpath",
                       "--perm", "9,10,5,1,11,12,6,7,8,2,3,4"],
         ("plain", "json")),
        ("bijection", ["--poset", "EN:3x4+saw", "--kind", "fcpath",
                       "--word", "NNNNNNENENNE"], ("plain", "json")),
        ("bijection", ["--poset", "EN:4x3+zip", "--kind", "zipper",
                       "--perm", "10,7,11,12,8,9,4,1,5,2,6,3"],
         ("plain", "json")),
        ("bijection", ["--poset", "EN:4x3+zip", "--kind", "zipper",
                       "--word", "N1 N1 N2 N1 N2 N3 N2 N4 N3 N3 N4 N4"],
         ("plain", "json")),
        ("verify", ["--suite", "theorems", "--fast"], ("json",)),
        ("verify", ["--suite", "conjectures", "--fast"], ("json",)),
        # refusals and input errors
        ("list", ["--poset", "EN:6x6"], ("plain",)),
        ("qpoly", ["--poset", "EN:6x6", "--avoid", "123"], ("plain",)),
        ("count", ["--poset", "EN:6x6", "--avoid", "1324"], ("plain",)),
        ("count", ["--poset", "EN:6x6", "--avoid", "12345",
                   "--route", "ideal-dp"], ("plain",)),
        ("count", ["--poset", "EN:3x3", "--route", "transfer"], ("plain",)),
        ("count", ["--poset", "EN:2x2", "--route", "oracle"], ("plain",)),
        ("count", ["--poset", "EN:4y3"], ("json",)),
        ("qpoly", ["--poset", "EN:2x2", "--avoid", "122"], ("csv",)),
        ("table", ["--family", "XY", "--max-s", "2", "--max-t", "2"],
         ("plain",)),
        ("bijection", ["--poset", "EN:2x2", "--kind", "tableau"], ("json",)),
    ] for fmt in (["--format", f] if f != "plain" else [] for f in formats)]


# replayed through a fresh `python -m lexcount` as well: every subcommand,
# with exit codes 0, 1 and 2
FRESH_GOLDEN = {
    "count --poset EN:4x3 --avoid 1243",
    "count --poset EN:3x4+zip --format csv",
    "list --poset EN:4x3 --avoid 1243 --format json",
    "table --family NE --avoid 123 --max-s 3 --max-t 9",
    "qpoly --poset NE:3x2 --avoid 123 --stat maj --format csv",
    "charpoly --t 5 --format json",
    f"bijection --poset EN:4x3+saw --kind fcpath --perm {FCPERM}",
    "bijection --poset EN:2x2+zip --kind zipper --word N1 N2 N1 N2 "
    "--format json",
    "verify --suite conjectures --fast --format json",
    "list --poset EN:6x6",
    "count --poset EN:4y3 --format json",
    "qpoly --poset EN:2x2 --avoid 122 --format csv",
}
FRESH_ARGVS = [a for a in GOLDEN_ARGVS if " ".join(a) in FRESH_GOLDEN]


class TestGolden:
    @pytest.mark.parametrize("argv", GOLDEN_ARGVS, ids=" ".join)
    def test_output_is_golden(self, capsys, argv):
        """Exit code, stdout and stderr, byte for byte, as main gave them
        before the subcommands shared their input and output helpers."""
        want = json.loads(GOLDEN_CLI.read_text())[" ".join(argv)]
        code = main(argv)
        out, err = capsys.readouterr()
        assert {"code": code, "stdout": out, "stderr": err} == want

    @pytest.mark.parametrize("argv", FRESH_ARGVS, ids=" ".join)
    def test_fresh_process_is_golden(self, argv):
        """The same bytes from a process of its own, which main runs and
        which exits through the interpreter's shutdown."""
        want = json.loads(GOLDEN_CLI.read_text())[" ".join(argv)]
        r = fresh("-m", "lexcount", *argv, text=False)
        assert (r.returncode, r.stdout, r.stderr) == (
            want["code"], want["stdout"].encode(), want["stderr"].encode())

    def test_fresh_sample_covers_every_subcommand_and_code(self):
        golden = json.loads(GOLDEN_CLI.read_text())
        assert len(FRESH_ARGVS) == len(FRESH_GOLDEN)
        assert {a[0] for a in FRESH_ARGVS} == {a[0] for a in GOLDEN_ARGVS}
        assert {golden[" ".join(a)]["code"] for a in FRESH_ARGVS} == {0, 1, 2}


class TestCache:
    def test_cache_hit_is_byte_identical(self, run, tmp_path):
        argv = ("count", "--poset", "EN:4x3", "--avoid", "1243")
        code1, out1, _ = run("--cache-dir", str(tmp_path), *argv)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        code2, out2, _ = run("--cache-dir", str(tmp_path), *argv)
        assert (code1, out1) == (code2, out2) == (0, "55\nroute: Cor4.6")

    def test_env_var(self, run, tmp_path, monkeypatch):
        monkeypatch.setenv("LEXCOUNT_CACHE_DIR", str(tmp_path))
        run("count", "--poset", "EN:2x2")
        assert list(tmp_path.iterdir())

    def test_errors_not_cached(self, run, tmp_path):
        run("--cache-dir", str(tmp_path), "count", "--poset", "EN:9x9",
            "--avoid", "12345", "--route", "ideal-dp")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("damage", [
        b'{"code": 0, "out', b"", b"[1, 2]", b'{"code": 0}', b"\xff\xfe",
        # the header "<length>" with no newline after it
        b"16",
        # a length that is not an int, or not in canonical form
        b"x\n55\nroute: Cor4.6", b"+16\n55\nroute: Cor4.6",
        b"16 0\n55\nroute: Cor4.6",
        # a length that disagrees: output cut short, or bytes appended
        b"16\n55\nroute: Cor4.", b"16\n55\nroute: Cor4.6xx",
        # entries in the earlier "<code> <length>" format, whole and with
        # each damage above, and in the earlier json format
        b"0 16\n55\nroute: Cor4.6", b"0 16", b"x 16\n55\nroute: Cor4.6",
        b"+0 16\n55\nroute: Cor4.6", b"0 16 0\n55\nroute: Cor4.6",
        b"0 16\n55\nroute: Cor4.", b"0 16\n55\nroute: Cor4.6xx",
        b'{"code": 0, "output": "55\\nroute: Cor4.6"}'])
    def test_corrupt_entry_is_recomputed(self, run, tmp_path, damage):
        argv = ("--cache-dir", str(tmp_path), "count", "--poset", "EN:4x3",
                "--avoid", "1243")
        first = run(*argv)
        (entry,) = tmp_path.iterdir()
        entry.write_bytes(damage)
        code, out, err = run(*argv)
        assert (code, out, err) == first == (0, "55\nroute: Cor4.6", "")
        assert list(tmp_path.iterdir()) == [entry]
        assert cli._read_entry(entry) == out

    def test_unwritable_cache_dir(self, run, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run("--cache-dir", str(blocker), "count",
                             "--poset", "EN:2x2")
        assert code == 1
        assert out.splitlines()[0] == "2"
        assert err.startswith("error: cannot write cache entry")
        assert len(err.splitlines()) == 1

    def test_failed_write_leaves_no_temp_file(self, run, tmp_path):
        # a directory where the entry goes makes os.replace fail
        argv = ["count", "--poset", "EN:2x2"]
        (tmp_path / f"{cli._cache_key(cli.parse_args(argv))}.txt").mkdir()
        code, out, err = run("--cache-dir", str(tmp_path), *argv)
        assert (code, out) == (1, "2\nroute: Prop2.2")
        assert err.startswith("error: cannot write cache entry")
        assert len(err.splitlines()) == 1
        assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]

    def test_key_comes_from_parsed_arguments(self, run, tmp_path,
                                             monkeypatch):
        first = run("--cache-dir", str(tmp_path), "count",
                    "--poset", "EN:4x4", "--avoid", "1324")
        monkeypatch.setenv("LEXCOUNT_CACHE_DIR", str(tmp_path))
        second = run("count", "--avoid", "1324", "--format", "plain",
                     "--poset", "EN:4x4")
        assert first == second
        assert first[0] == 0
        assert len(list(tmp_path.iterdir())) == 1
        # json echoes --avoid as given, so its order still tells entries apart
        pair = ("count", "--poset", "EN:3x3", "--format", "json")
        one = run(*pair, "--avoid", "123", "--avoid", "132")
        two = run(*pair, "--avoid", "132", "--avoid", "123")
        assert one != two
        assert len(list(tmp_path.iterdir())) == 3

    def test_key_names_the_source(self, run, tmp_path, monkeypatch):
        cache, src = tmp_path / "cache", tmp_path / "src"
        argv = ("--cache-dir", str(cache), "qpoly", "--poset", "EN:3x3",
                "--avoid", "1243", "--stat", "maj")
        first = run(*argv)
        (entry,) = cache.iterdir()
        cli._write_entry(entry, "stale")
        assert run(*argv) == (0, "stale", "")  # same source: a cache hit
        # the key reads the sources beside cli.py; edit one module's copy
        src.mkdir()
        for path in Path(cli.__file__).parent.glob("*.py"):
            (src / path.name).write_bytes(path.read_bytes())
        with open(src / "formulas.py", "a") as fh:
            fh.write("# edited\n")
        monkeypatch.setattr(cli, "__file__", str(src / "cli.py"))
        assert run(*argv) == first
        (fresh,) = set(cache.iterdir()) - {entry}
        assert cli._read_entry(fresh) == first[1]
        cli._write_entry(fresh, "stale")
        assert run(*argv) == (0, "stale", "")  # the new key is used again

    def test_key_is_blake2b_256(self, tmp_path):
        args = cli.parse_args(
            ["--cache-dir", str(tmp_path), "count", "--poset", "EN:4x4",
             "--avoid", "1324", "--avoid", "123"])
        source = hashlib.blake2b(digest_size=32)
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            source.update(path.name.encode() + b"\0" + path.read_bytes())
        fields = {"command": "count", "poset": "EN:4x4", "format": "plain",
                  "force": False, "avoid": ("1324", "123"), "route": None,
                  "source": source.hexdigest()}
        want = hashlib.blake2b(repr(sorted(fields.items())).encode(),
                               digest_size=32).hexdigest()
        assert cli._cache_key(args) == want

    def test_blake2_is_hashlibs(self):
        import _blake2
        assert _blake2.blake2b is hashlib.blake2b

    def test_argparse_spelling_hits_a_plain_entry(self, run, tmp_path):
        # the second command line goes to argparse, the first does not
        first = run("--cache-dir", str(tmp_path), "count", "--poset",
                    "EN:3x3", "--avoid", "123")
        assert first == (0, "0\nroute: Thm3.4", "")
        (entry,) = tmp_path.iterdir()
        cli._write_entry(entry, "served")
        assert run("--cache-dir", str(tmp_path), "count", "--poset=EN:3x3",
                   "--av", "123") == (0, "served", "")

    def test_uncacheable_commands_skip_cache(self, run, tmp_path):
        run("--cache-dir", str(tmp_path), "charpoly", "--t", "3")
        assert not list(tmp_path.iterdir())


# the modules the package and the cli load on first use
LAZY = {"lexcount.formulas", "lexcount.qstats", "lexcount.transfer"}
# argparse and the translation lookups it makes, which a plain command
# line never loads
PARSER = {"argparse", "gettext", "locale"}


class TestProcess:
    """Behaviour seen only from a fresh interpreter."""

    def modules_after(self, code: str) -> set[str]:
        r = fresh("-c", f"{code}; import sys; print(*sys.modules)")
        assert r.returncode == 0, r.stderr
        return set(r.stdout.split())

    def main_loads(self, argv: list[str]
                   ) -> tuple[subprocess.CompletedProcess, set[str]]:
        """main(argv) run in a program that then lists on stderr the
        modules loaded beyond a bare interpreter's."""
        r = fresh("-c", "import sys; from lexcount.cli import main; "
                  f"code = main({argv!r}); print(*sys.modules, "
                  "file=sys.stderr); sys.exit(code)")
        return r, set(r.stderr.split()) - self.modules_after("pass")

    def test_import_loads_no_heavy_modules(self):
        # compared with a bare interpreter, so that whatever the host's
        # site set-up loads does not count
        added = (self.modules_after("import lexcount.cli")
                 - self.modules_after("pass"))
        assert "lexcount.cli" in added
        assert not added & ({"dataclasses", "inspect", "hashlib", "_hashlib",
                             "json", "re", "lexcount.verify", "lexcount.paths"}
                            | LAZY | PARSER)

    def test_import_loads_exactly_the_eager_modules(self):
        def own(code: str) -> set[str]:
            return {m for m in self.modules_after(code)
                    if m.partition(".")[0] == "lexcount"}
        eager = {"lexcount", "lexcount.engine", "lexcount.gentree",
                 "lexcount.perms", "lexcount.polys", "lexcount.posets"}
        assert own("import lexcount") == eager
        assert own("import lexcount.cli") == eager | {"lexcount.cli"}

    def test_no_typing_pathlib_or_re_without_site(self, tmp_path):
        # -S: no site .pth preloads anything, so every module counted here
        # is lexcount's own doing; tempfile would load re, so the test
        # makes the cache dir
        argv = ["--cache-dir", str(tmp_path), "count", "--poset", "EN:4x3",
                "--avoid", "1243"]
        r = fresh("-S", "-c", "import sys; import lexcount.cli as cli; "
                  "from lexcount import (verify, paths, qstats, transfer, "
                  "formulas, gentree); "
                  f"codes = [cli.main({argv!r})]; "
                  # the second run must be a hit: a miss would call None
                  "cli.cmd_count = None; "
                  f"codes.append(cli.main({argv!r})); "
                  "print(*sys.modules, file=sys.stderr); sys.exit(max(codes))")
        assert (r.returncode, r.stdout) == (0, "55\nroute: Cor4.6\n" * 2)
        assert len(list(tmp_path.iterdir())) == 1
        assert not set(r.stderr.split()) & {"typing", "__future__", "pathlib",
                                            "re"}

    def test_cache_hit_loads_only_what_it_uses(self, tmp_path):
        argv = ["--cache-dir", str(tmp_path), "count", "--poset", "EN:4x4",
                "--avoid", "1324"]
        assert fresh("-m", "lexcount", *argv).returncode == 0
        (entry,) = tmp_path.iterdir()
        cli._write_entry(entry, "served")
        r, loaded = self.main_loads(argv)
        assert (r.returncode, r.stdout) == (0, "served\n")
        assert "_blake2" in loaded
        assert not loaded & ({"hashlib", "_hashlib"} | LAZY | PARSER)

    def test_cache_in_a_fresh_process(self, tmp_path):
        argv = ("-m", "lexcount", "--cache-dir", str(tmp_path), "count",
                "--poset", "EN:4x3", "--avoid", "1243")
        first = fresh(*argv)
        assert (first.returncode, first.stdout) == (0, "55\nroute: Cor4.6\n")
        (entry,) = tmp_path.iterdir()
        cli._write_entry(entry, "served")
        second = fresh(*argv)
        assert (second.returncode, second.stdout) == (0, "served\n")

    @pytest.mark.parametrize("argv, wanted", [
        ("--poset EN:4x3+saw --route ideal-dp", ""),
        ("--poset EN:4x4 --route ideal-dp", ""),
        ("--poset EN:4x4 --avoid 2143 --route transfer", "transfer"),
        ("--poset EN:4x3+zip --route formula", "formulas"),
        ("--poset EN:4x3+zip", "formulas transfer")],
        ids=lambda v: v or "none")
    def test_count_loads_only_the_routes_it_runs(self, argv, wanted):
        r, loaded = self.main_loads(["count", *argv.split()])
        assert r.returncode == 0
        assert loaded & LAZY == {f"lexcount.{name}" for name in wanted.split()}
        assert not loaded & PARSER

    @pytest.mark.parametrize("argv", [
        "count --poset EN:4x3 --avoid 1243",
        "count --poset EN:4x3 --avoid 1243 --format csv",
        "table --family NE --avoid 123 --max-s 3 --max-t 9",
        "table --family NE --avoid 123 --max-s 3 --max-t 9 --format csv",
        "qpoly --poset EN:3x3 --avoid 2143",
        "qpoly --poset NE:3x2 --avoid 123 --stat maj --format csv",
        "list --poset EN:4x3 --avoid 1243"])
    def test_plain_and_csv_never_load_json(self, tmp_path, argv):
        # a miss, then a hit; list is never cached, so it runs twice
        argv = ["--cache-dir", str(tmp_path), *argv.split()]
        want = json.loads(GOLDEN_CLI.read_text())[" ".join(argv[2:])]
        for _ in range(2):
            r, loaded = self.main_loads(argv)
            assert (r.returncode, r.stdout) == (0, want["stdout"])
            assert "json" not in loaded

    @pytest.mark.parametrize("argv", [
        "count --poset EN:4x3 --avoid 1243 --format json",
        "qpoly --poset EN:3x3 --avoid 2143 --format json"])
    def test_json_hit_never_loads_json(self, tmp_path, argv):
        argv = ["--cache-dir", str(tmp_path), *argv.split()]
        want = json.loads(GOLDEN_CLI.read_text())[" ".join(argv[2:])]
        miss, loaded = self.main_loads(argv)
        assert (miss.returncode, miss.stdout) == (0, want["stdout"])
        assert "json" in loaded
        hit, loaded = self.main_loads(argv)
        assert hit.stdout.encode() == miss.stdout.encode()
        assert "json" not in loaded

    def test_python_dash_m(self):
        r = fresh("-m", "lexcount", "count", "--poset", "EN:2x2")
        assert (r.returncode, r.stdout, r.stderr) == (
            0, "2\nroute: Prop2.2\n", "")

    @pytest.mark.parametrize("argv", [
        # 72,152 lines, far more than a pipe buffer holds
        ["list", "--poset", "NE:4x5", "--avoid", "123"],
        # a few lines, so the pipe is closed before the first is written
        ["--help"], ["count", "--help"]],
        ids=["list", "help", "count-help"])
    def test_closed_pipe_is_not_a_traceback(self, argv):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with subprocess.Popen(
                [sys.executable, "-m", "lexcount", *argv], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True) as proc:
            if argv[0] == "list":
                assert proc.stdout.readline().count(",") == 19
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (code, err) == (1, "")


class TestPackage:
    """The package's public names; those of formulas, qstats and transfer
    load their module on first use."""

    HOMES = {
        "engine": ["avoiders", "count_avoiders", "count_extensions",
                   "insert_213", "is_extension", "linear_extensions",
                   "list_avoiders"],
        "formulas": ["catalan", "count_formula", "fibonacci", "fuss_catalan",
                     "hook_count", "inv_bounds_1243"],
        "gentree": ["children_labels", "count_at_depth", "grow_extensions",
                    "saw_label"],
        "perms": ["avoids", "complement", "contains", "descents", "inv",
                  "maj", "perm", "reverse", "reverse_complement"],
        "posets": ["build", "canonicalize", "parse_poset_spec", "saw_poset",
                   "zip_poset"],
        "qstats": ["F_poly", "maj_q_catalan", "q_catalan", "q_catalan_tilde",
                   "q_int", "stat_gf"],
        "transfer": ["a_vector", "b_matrix", "char_poly", "count_2143",
                     "recurrence_extend"],
    }

    def test_every_name_is_its_home_modules(self):
        import importlib
        import lexcount
        homes = {name: module for module, names in self.HOMES.items()
                 for name in names}
        assert sorted(lexcount.__all__) == sorted(homes)
        for name, module in homes.items():
            home = importlib.import_module(f"lexcount.{module}")
            assert getattr(lexcount, name) is getattr(home, name)

    def test_star_import_and_dir_see_every_name(self):
        import lexcount
        namespace: dict = {}
        exec("from lexcount import *", namespace)
        assert set(lexcount.__all__) <= set(namespace)
        assert set(lexcount.__all__) <= set(dir(lexcount))

    def test_unknown_name(self):
        import lexcount
        with pytest.raises(AttributeError, match="'no_such_name'"):
            lexcount.no_such_name  # noqa: B018
        with pytest.raises(ImportError, match="no_such_name"):
            exec("from lexcount import no_such_name", {})

    def test_a_name_loads_only_its_module(self):
        r = fresh("-c", "import sys, lexcount; lexcount.catalan(3); "
                  "print(*sys.modules)")
        assert r.returncode == 0, r.stderr
        assert LAZY & set(r.stdout.split()) == {"lexcount.formulas"}


class TestFreeze:
    """main freezes the collector's start-up objects only when it runs
    the process."""

    # a program that calls main() the way the lexcount script does, and
    # reports the freeze count before and after it on stderr
    PROGRAM = ("import gc, sys; from lexcount.cli import main; "
               "before = gc.get_freeze_count(); code = main(); "
               "print(before, gc.get_freeze_count() > 0, file=sys.stderr); "
               "sys.exit(code)")

    @pytest.mark.parametrize("argv", [
        ["count", "--poset", "EN:4x3", "--avoid", "1243"],
        ["count", "--poset", "EN:4y3"],
    ])
    def test_program_path_freezes(self, capsys, argv):
        r = fresh("-c", self.PROGRAM, *argv)
        code = main(argv)
        out, err = capsys.readouterr()
        assert (r.returncode, r.stdout, r.stderr) == (
            code, out, err + "0 True\n")

    def test_argv_leaves_the_collector_alone(self, run):
        before = gc.get_freeze_count()
        assert run("count", "--poset", "EN:2x2")[0] == 0
        assert gc.get_freeze_count() == before


class TestUsage:
    def test_handler_is_looked_up_by_name(self, run, monkeypatch):
        # a replacement in the module's globals runs, as a tracer's does
        monkeypatch.setattr(cli, "cmd_count",
                            lambda args: f"patched {args.poset}")
        assert run("count", "--poset", "EN:2x2") == (0, "patched EN:2x2", "")

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "count" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["--help"], ["-h"],
                                      ["--cache-dir", "d", "-h"]])
    def test_help_lists_every_command(self, run, argv):
        code, out, err = run(*argv)
        assert (code, err) == (0, "")
        commands = reference_commands()
        assert list(cli.COMMANDS) == list(commands)
        for name, row in cli.COMMANDS.items():
            assert f"  {name}  " in out and row[0] in out
        assert "--cache-dir" in out

    @pytest.mark.parametrize("command", ["count", "list", "table", "qpoly",
                                         "bijection", "charpoly", "verify"])
    @pytest.mark.parametrize("tail", [["--help"], ["-h"],
                                      ["--format", "json", "-h"]])
    def test_command_help_lists_every_option(self, run, command, tail):
        code, out, err = run(command, *tail)
        assert (code, err) == (0, "")
        flags = []
        for action in reference_commands()[command]._actions[1:]:
            flag, = action.option_strings
            flags.append(flag)
            assert f"  {flag}" in out
            if action.choices:
                assert f"{flag} {{{','.join(action.choices)}}}" in out
        assert [o[0] for o in cli.COMMANDS[command][2]] == flags
        for option in cli.COMMANDS[command][2]:
            assert option[4] in out

    @pytest.mark.parametrize("argv, message", [
        ([], "lexcount: error: the following arguments are required: "
             "command"),
        (["frobnicate"], "lexcount: error: argument command: invalid "
                         "choice: 'frobnicate' (choose from 'count', "
                         "'list', 'table', 'qpoly', 'bijection', "
                         "'charpoly', 'verify')"),
        (["table", "--family", "EN"], "lexcount table: error: the following "
                                      "arguments are required: --max-s, "
                                      "--max-t"),
        (["qpoly", "--poset", "EN:2x2", "--stat", "des"],
         "lexcount qpoly: error: argument --stat: invalid choice: 'des' "
         "(choose from 'inv', 'maj')"),
        (["count", "--poset", "EN:2x2", "--cache-dir", "d"],
         "lexcount: error: unrecognized arguments: --cache-dir d"),
        (["count", "--poset", "EN:2x2", "a\nb"],
         "lexcount: error: unrecognized arguments: a\\nb"),
        (["count", "--poset", "--avoid", "12"],
         "lexcount count: error: argument --poset: expected one argument"),
        (["list", "--poset", "EN:2x2", "--force=yes"],
         "lexcount list: error: argument --force: ignored explicit "
         "argument 'yes'"),
        (["count", "--poset", "EN:2x2", "--fo", "json"],
         "lexcount count: error: ambiguous option: --fo could match "
         "--format, --force"),
    ], ids=["missing-command", "unknown-command", "missing-option",
            "invalid-choice", "unrecognized", "line-break",
            "expected-one-argument", "flag-given-a-value", "ambiguous"])
    def test_usage_error_wording(self, run, argv, message):
        assert run(*argv) == (1, "", message + "\n")


SPECS = st.one_of(
    st.builds("{}:{}x{}{}".format, st.sampled_from(FAMILIES),
              st.integers(0, 3), st.integers(0, 3),
              st.sampled_from(["", "+saw", "+zip"])),
    st.sampled_from(["EN:2y2", "XX:2x2", "EN:2x2+foo", "NE:2x2+saw", "EN:",
                     ":2x2", "EN:2x2x2", " EN:1x1 "]) | st.text(max_size=8))
PERM_TEXTS = st.one_of(
    st.integers(1, 4).flatmap(lambda n: st.permutations(range(1, n + 1)))
    .map(lambda p: "".join(map(str, p))),
    st.text("0123456789,- ", max_size=6), st.text(max_size=5))
JSON_WORDS = st.recursive(
    st.integers(-2, 12) | st.booleans() | st.none() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=4), max_leaves=12).map(json.dumps)
GRIDS = st.lists(st.lists(st.integers(0, 9), max_size=4) | st.integers(0, 9),
                 max_size=4).map(json.dumps)


@st.composite
def cli_argvs(draw):
    """Small argv for every subcommand but verify, mostly well-formed,
    now and then with a stray trailing argument."""
    cmd = draw(st.sampled_from(["count", "list", "table", "qpoly",
                                "bijection", "charpoly"]))
    fmt = ["--format", draw(st.sampled_from(["plain", "json", "csv"]))]
    avoid = [arg for p in draw(st.lists(PERM_TEXTS, max_size=2))
             for arg in ("--avoid", p)]
    if cmd == "charpoly":
        return [cmd, "--t", str(draw(st.integers(-1, 5)))] + fmt
    if cmd == "table":
        family = draw(st.sampled_from(FAMILIES) | st.text(max_size=3))
        return ([cmd, "--family", family,
                 "--max-s", str(draw(st.integers(-1, 3))),
                 "--max-t", str(draw(st.integers(-1, 3)))] + avoid + fmt)
    argv = [cmd, "--poset", draw(SPECS)] + fmt
    if cmd == "bijection":
        argv += ["--kind", draw(st.sampled_from(["tableau", "fcpath",
                                                 "zipper"]))]
        inputs = draw(st.sampled_from([["--perm"], ["--word"], ["--word"],
                                       ["--perm", "--word"]]))
        if "--perm" in inputs:
            argv += ["--perm", draw(PERM_TEXTS | JSON_WORDS)]
        if "--word" in inputs:
            argv += ["--word", draw(GRIDS | JSON_WORDS | st.text(max_size=12))]
        return argv
    if cmd == "count" and draw(st.booleans()):
        argv += ["--route", draw(st.sampled_from(["formula", "transfer",
                                                  "ideal-dp"]))]
    if cmd == "qpoly":
        argv += ["--stat", draw(st.sampled_from(["inv", "maj"]))]
    return argv + avoid + draw(st.lists(st.text(max_size=3), max_size=1))


class TestRobustness:
    @pytest.mark.parametrize("argv", [
        [cmd, "--poset", spec] + extra
        for cmd, extra in [("count", []), ("list", []), ("qpoly", []),
                           ("bijection", ["--kind", "tableau", "--perm", "1"])]
        for spec in ("EN:99999999999999999999x1", "NW:3x3074457345618258603")
    ] + [["count", "--poset", f"EN:99999999999999999999x2+{tag}"]
         for tag in ("zip", "saw")])
    def test_poset_beyond_an_index(self, run, argv):
        # s*t does not fit an index: refused before anything is allocated
        code, out, err = run(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: too many elements, got s=")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["count", "--poset", "EN:99999999999x2"],
        ["list", "--poset", "EN:3x3"],
        ["qpoly", "--poset", "NE:3x3", "--avoid", "123"]])
    def test_out_of_memory(self, run, monkeypatch, argv):
        # a poset that fits an index but not in memory; raised, not built
        def exhausted(spec):
            raise MemoryError
        monkeypatch.setattr(cli, "parse_poset_spec", exhausted)
        code, out, err = run(*argv)
        assert (code, out, err) == (1, "", "error: out of memory\n")

    def test_deeply_nested_tableau_word(self, run):
        word = "[" * 30000 + "]" * 30000
        code, out, err = run("bijection", "--poset", "EN:2x2",
                             "--kind", "tableau", "--word", word)
        assert (code, out) == (1, "")
        assert err == ("error: --word must be a JSON list of 2 lists of 2 "
                       "integers for EN:2x2\n")

    @pytest.mark.parametrize("pattern", ["1,2,x", "1,,2"])
    def test_comma_pattern_that_is_not_a_permutation(self, run, pattern):
        code, out, err = run("count", "--poset", "EN:3x3", "--avoid", pattern)
        assert (code, out) == (1, "")
        assert err == f"error: cannot parse permutation: '{pattern}'\n"

    @pytest.mark.parametrize("word", ["notjson", "[[1, 2], [3, 4]", ""])
    def test_tableau_word_that_is_not_json(self, run, word):
        code, out, err = run("bijection", "--poset", "EN:2x2",
                             "--kind", "tableau", "--word", word)
        assert (code, out) == (1, "")
        assert err == ("error: --word must be a JSON list of 2 lists of 2 "
                       "integers for EN:2x2\n")

    @given(cli_argvs())
    @settings(max_examples=400, deadline=None)
    def test_never_a_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert len(err.getvalue().splitlines()) <= 1, err.getvalue()


def reference_parser():
    """The independent reference that cli.parse_args must agree with: an
    argparse parser written out by hand, not built from cli.COMMANDS."""
    import argparse

    def positive_int(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"must be at least 1, got {value}")
        return value

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            message = "\\n".join(message.splitlines())
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = Parser(
        prog="lexcount",
        description="Exact enumeration of pattern-avoiding linear "
                    "extensions of rectangular posets")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for memoized results "
                             "(or set LEXCOUNT_CACHE_DIR)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, poset=True, csv=True, force=True):
        if poset:
            p.add_argument("--poset", required=True,
                           help="poset spec, e.g. EN:4x3 or EN:4x3+saw")
        p.add_argument("--format", default="plain", choices=(
            ("plain", "json", "csv") if csv else ("plain", "json")))
        if force:
            p.add_argument("--force", action="store_true",
                           help=f"lift the {cli.DP_GUARD}-element limit on "
                                "the ideal-dp route with patterns, list and "
                                "qpoly")

    p = sub.add_parser("count", help="count avoiding extensions")
    common(p)
    p.add_argument("--avoid", action="append", default=[],
                   help="pattern to avoid (repeatable)")
    p.add_argument("--route", choices=("formula", "transfer", "ideal-dp"),
                   default=None)

    p = sub.add_parser("list", help="list avoiding extensions")
    common(p, csv=False)
    p.add_argument("--avoid", action="append", default=[])

    p = sub.add_parser("table", help="grid of counts over (s, t)")
    common(p, poset=False)
    p.add_argument("--family", required=True,
                   help=f"one of {', '.join(FAMILIES)}")
    p.add_argument("--avoid", action="append", default=[])
    p.add_argument("--max-s", type=positive_int, required=True)
    p.add_argument("--max-t", type=positive_int, required=True)

    p = sub.add_parser("qpoly", help="statistic generating function")
    common(p)
    p.add_argument("--avoid", action="append", default=[])
    p.add_argument("--stat", choices=("inv", "maj"), default="inv")

    p = sub.add_parser("bijection", help="apply a bijection or its inverse")
    common(p, csv=False, force=False)
    p.add_argument("--kind", choices=("tableau", "fcpath", "zipper"),
                   required=True)
    p.add_argument("--perm", default=None, help="extension to encode")
    p.add_argument("--word", default=None,
                   help="encoded object to decode (path string, zipper "
                        "tokens, or tableau JSON)")

    p = sub.add_parser("charpoly", help="characteristic polynomial of the "
                                        "transfer matrix")
    p.add_argument("--t", type=positive_int, required=True)
    common(p, poset=False, force=False)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("theorems", "conjectures"),
                   required=True)
    p.add_argument("--fast", action="store_true",
                   help="smaller size limits for a quicker pass")
    common(p, poset=False, csv=False, force=False)

    return parser


def reference_commands() -> dict:
    """The reference's parser of each command, by name."""
    return reference_parser()._subparsers._group_actions[0].choices


def parsed(parse, argv: list[str]):
    """What parse makes of argv: the fields it sets, or its exit code and
    stderr."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            fields = vars(parse(argv))
        except SystemExit as e:
            return e.code, err.getvalue()
    return fields


def load_workloads(monkeypatch):
    """The benchmark's workloads module (perfbench/workloads.py), loaded
    by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up while the class is made
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    return workloads


def with_equals(argv: list[str]) -> list[str]:
    """argv with every `--flag value` pair written `--flag=value`."""
    takes = {cli.CACHE_DIR[0]} | {o[0] for row in cli.COMMANDS.values()
                                  for o in row[2] if o[1] != cli.FLAG}
    args = iter(argv)
    return [f"{arg}={next(args)}" if arg in takes else arg for arg in args]


def pool_spellings(monkeypatch) -> list[list[str]]:
    """Five seeded spellings of every benchmark pool problem: three drawn,
    two of them respelled, the cache dir given by flag where drawn so."""
    workloads = load_workloads(monkeypatch)
    rng = random.Random(24)
    argvs = []
    for problem in workloads.load_pool().values():
        drawn = [workloads.spell(problem, rng, cache)
                 for cache in ("flag", "", "flag")]
        commands = drawn + [workloads.respell(drawn[0], rng, False),
                            workloads.respell(drawn[2], rng, True)]
        argvs += [["--cache-dir", "d"] * (c.cache == "flag") + list(c.argv)
                  for c in commands]
    return argvs


class TestBenchmarkPool:
    def test_every_problem_passes_the_benchmark_check(self, monkeypatch,
                                                      tmp_path, capsys):
        """Every pool.json problem, in each output format the benchmark
        draws for its command, as the benchmark's own check reads it; a
        command it rejects would be a failed or incorrect run there."""
        workloads = load_workloads(monkeypatch)
        pool = workloads.load_pool()
        assert len(pool) == 93
        rng = random.Random(26)
        failures = []
        for problem in pool.values():
            plain = workloads.spell(problem, rng, "flag", plain=True)
            for fmt in workloads.FORMATS[plain.cmd]:
                c = workloads.Command(plain.problem,
                                      (*plain.argv, "--format", fmt), fmt,
                                      "flag", "")
                code = main(["--cache-dir", str(tmp_path), *c.argv])
                reason = workloads.check(problem, c, code,
                                         capsys.readouterr().out)
                if reason:
                    failures.append((c.argv, reason))
        assert failures == []


# one word each that argparse treats specially
TRICKY = ["--", "-", "-1", "-3", "-.5", "-1 2", "--x y", "-x", "--bogus",
          "-h", "-hh", "-hx", "--he", "--help=x", "--fo", "--f", "--p",
          "--po=EN:2x2", "--format=json", "--force=", "--avoid=", "--=x",
          "--cache-dir", "--c", "count", "", "a\nb"]


class TestAgainstArgparse:
    """parse_args gives argparse's fields, exit codes and error lines."""

    @pytest.fixture(scope="class")
    def reference(self):
        return reference_parser().parse_args

    def agree(self, reference, argv):
        assert parsed(cli.parse_args, argv) == parsed(reference, argv), argv

    @given(cli_argvs())
    @settings(max_examples=300, deadline=None)
    def test_drawn_argv(self, reference, argv):
        self.agree(reference, argv)

    @given(cli_argvs(), st.sampled_from(TRICKY), st.integers(0, 20))
    @settings(max_examples=300, deadline=None)
    def test_drawn_argv_with_a_tricky_word(self, reference, argv, word, at):
        self.agree(reference, argv[:at] + [word] + argv[at:])

    def test_commands_and_their_handlers(self):
        # main reads each command's cacheable flag and runs cmd_<command>
        assert set(cli.COMMANDS) == set(reference_commands())
        assert {name for name, (_, cacheable, _) in cli.COMMANDS.items()
                if cacheable} == {"count", "table", "qpoly"}
        assert all(callable(getattr(cli, f"cmd_{name}", None))
                   for name in cli.COMMANDS)

    def test_build_parser_gives_parse_args(self):
        # perfbench's draw test still parses through build_parser()
        assert cli.build_parser().parse_args is cli.parse_args

    def test_pool_spellings(self, reference, monkeypatch):
        argvs = pool_spellings(monkeypatch)
        assert len(argvs) == 465
        for argv in argvs:
            assert type(parsed(reference, argv)) is dict, argv
            self.agree(reference, argv)

    def test_pool_spellings_never_build_argparse(self, monkeypatch):
        argvs = pool_spellings(monkeypatch)

        def refuse():
            raise AssertionError("argparse was built")
        monkeypatch.setattr(cli, "_argparser", refuse)
        for argv in argvs:
            cli.parse_args(argv)

    def test_both_readers_give_the_same_fields_and_key(self, monkeypatch):
        for argv in pool_spellings(monkeypatch):
            joined = with_equals(argv)
            assert cli._plain(joined) is None, joined
            plain, other = cli.parse_args(argv), cli.parse_args(joined)
            assert vars(plain) == vars(other), joined
            assert cli._cache_key(plain) == cli._cache_key(other)

    @pytest.mark.parametrize("argv", [
        # --opt=value
        ["count", "--poset=EN:3x3", "--avoid=123", "--format=json"],
        ["--cache-dir=d", "table", "--family=EN", "--max-s=2", "--max-t=3"],
        ["count", "--poset=", "--avoid="],
        ["charpoly", "--t=0"],
        # prefixes
        ["count", "--po", "EN:2x2", "--av", "12", "--r", "ideal-dp"],
        ["--cache", "d", "qpoly", "--pos=EN:2x2", "--s", "maj"],
        ["table", "--fa", "EN", "--max", "1"],
        ["count", "--poset", "EN:2x2", "--fo=json"],
        ["count", "--poset", "EN:2x2", "--=x"],
        # --
        ["--"], ["--", "count"], ["--cache-dir", "--", "count"],
        ["count", "--", "--poset", "EN:2x2"],
        ["count", "--poset", "EN:2x2", "--"],
        ["count", "--poset", "EN:2x2", "--", "--avoid", "12"],
        # a stray -1
        ["-1"], ["count", "--poset", "EN:2x2", "-1"],
        ["charpoly", "--t", "3", "-1"],
        # values that start with -
        ["charpoly", "--t", "-3"], ["count", "--poset", "-x"],
        ["count", "--poset", "EN:2x2", "--avoid", "-12"],
        ["count", "--poset", "-.5"], ["count", "--poset", "--format"],
        ["bijection", "--poset", "EN:2x2", "--kind", "zipper",
         "--word", "-1 2"],
        ["--cache-dir", "-d", "count", "--poset", "EN:2x2"],
        # flags, help, repeats, unknown options before the command
        ["verify", "--suite", "theorems", "--fast="],
        ["count", "-hh"], ["count", "-hx"], ["count", "-h="],
        ["--help=x"], ["count", "--poset", "EN:2x2", "--he"],
        ["count", "--poset", "EN:2x2", "--poset", "EN:3x3", "--format",
         "json", "--format", "csv", "--route", "formula", "--route",
         "ideal-dp"],
        ["--bogus", "count", "--poset", "EN:2x2"],
        ["--poset", "EN:2x2", "count"],
    ])
    def test_edge_cases(self, reference, argv):
        self.agree(reference, argv)
