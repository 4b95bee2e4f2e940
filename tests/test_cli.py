"""Command-line interface: formats, determinism, exit codes, round-trips."""

import csv
import io
import itertools
import json
import os
import subprocess
import sys
import textwrap

import pytest

import kllab
from kllab import cli, kernel
from kllab.cli import main, poly_csv
from kllab.hecke import KLTable
from kllab.parabolic import (
    ANTISPHERICAL, SPHERICAL, ParabolicContext, ParabolicKLTable,
)
from kllab.laurent import LaurentPoly
from helpers import (
    bruhat_leq_oracle, get_group, get_kl, poly, reference_table,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPolyCsv:
    def test_examples(self):
        assert poly_csv(LaurentPoly.zero()) == "0"
        assert poly_csv(poly({1: 1, 3: 1})) == "1*v^1+1*v^3"
        assert poly_csv(poly({-2: 3, 0: -1})) == "3*v^-2+-1*v^0"


class TestInfo:
    def test_text_golden(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--group", "A3")
        assert code == 0
        assert out == "order 24, longest length 6\n"

    def test_capped_text(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--group", "I2(inf)",
                               "--cap", "5")
        assert code == 0
        assert "order 11" in out and "cap 5" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--group", "B2",
                               "--format", "json")
        obj = json.loads(out)
        assert code == 0
        assert obj["order"] == 8 and obj["longest_length"] == 4
        assert obj["complete"] is True


class TestTables:
    def test_invkl_a2_row_count_from_oracle(self, capsys):
        # one CSV row per Bruhat-comparable pair; the subword-property
        # oracle independently counts those
        table = get_group("A2")
        expected = sum(1 for x in table for y in table
                       if bruhat_leq_oracle(table, y, x))
        assert expected == 19
        code, out, _ = run_cli(capsys, "invkl", "--group", "A2",
                               "--format", "csv")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "y,x,len_y,len_x,poly"
        assert len(lines) == 1 + expected

    def test_kl_json_round_trips_against_table(self, capsys):
        code, out, _ = run_cli(capsys, "kl", "--group", "B2",
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        kl = get_kl("B2")
        g = kl.group
        by_word = {("e" if not el.word else
                    ",".join(str(s + 1) for s in el.word)): el for el in g}
        count = 0
        for key, coeffs in obj["entries"].items():
            ytext, xtext = key.split("|")
            p = LaurentPoly.from_json_dict(coeffs)
            assert p == kl.kl_poly(by_word[ytext], by_word[xtext])
            count += 1
        assert count == sum(len(g.downset(x)) for x in g)

    def test_mu_table(self, capsys):
        code, out, _ = run_cli(capsys, "kl", "--group", "A2", "--mu",
                               "--format", "csv")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "y,x,len_y,len_x,mu"
        assert len(lines) == 20
        assert "e,1,0,1,1" in lines  # mu(e, s) = 1

    def test_mu_json(self, capsys):
        code, out, _ = run_cli(capsys, "kl", "--group", "A2", "--mu",
                               "--format", "json")
        obj = json.loads(out)
        assert code == 0
        assert obj["entries"]["e|1"] == 1
        assert obj["entries"]["e|1,2"] == 0

    def test_kl_text_contains_pairs(self, capsys):
        code, out, _ = run_cli(capsys, "kl", "--group", "A2")
        assert code == 0
        assert "(e, 1,2,1)" in out and "v^3" in out

    def test_parabolic_csv_has_flavor_columns(self, capsys):
        code, out, _ = run_cli(capsys, "parabolic", "--group", "A2",
                               "--parabolic", "1", "--flavor",
                               "antispherical", "--format", "csv")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "y,x,len_y,len_x,poly,flavor,I"
        assert all(line.endswith("antispherical,1") for line in lines[1:])

    def test_parabolic_inverse_family(self, capsys):
        code, out, _ = run_cli(capsys, "parabolic", "--group", "A2",
                               "--parabolic", "1", "--flavor", "spherical",
                               "--family", "invkl", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["family"] == "invkl" and obj["flavor"] == "spherical"
        # m^{e,s2s1} = 0 so the pair (e, "2,1") must be absent
        assert "e|2,1" not in obj["entries"]
        assert obj["entries"]["e|2"] == {"1": 1}

    def test_parabolic_kl_family_builds_no_inverse_column(self, capsys,
                                                           monkeypatch):
        calls = []
        monkeypatch.setattr(kernel.ColumnTable, "inverse_columns",
                            lambda *args: calls.append(args))
        code, out, _ = run_cli(capsys, "parabolic", "--group", "B3",
                               "--parabolic", "1", "--flavor", "spherical")
        assert code == 0 and "parabolic-kl" in out and calls == []

    @pytest.mark.parametrize("spec,cap,family", [
        pytest.param("A3", None, "invkl", id="A3"),
        pytest.param("B3", None, "invkl", id="B3"),
        pytest.param("Aff-A2", 8, "invkl", id="Aff-A2-8"),
        pytest.param("A3", None, "kl", id="A3-kl"),
        pytest.param("B3", None, "kl", id="B3-kl"),
        pytest.param("Aff-A2", 8, "kl", id="Aff-A2-8-kl"),
    ])
    def test_invkl_is_the_antispherical_family_at_empty_i(self, capsys, spec,
                                                           cap, family):
        """At I = empty the antispherical module is the regular one: b_x by
        the mu route equals d_x by the bar-invariance pass, and Soergel's
        identity gives n^ = h^.  Both tables print through the one
        printer, one pair per y <= x."""
        argv = ["--group", spec] + ([] if cap is None else ["--cap", str(cap)])
        code, out, _ = run_cli(capsys, family, *argv, "--format", "json")
        assert code == 0
        regular = json.loads(out)["entries"]
        group = get_group(spec, cap)
        assert len(regular) == sum(len(group.downset(x)) for x in group)
        code, out, _ = run_cli(capsys, "parabolic", *argv,
                               "--parabolic", "none", "--flavor",
                               "antispherical", "--family", family,
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["entries"] == regular

    @pytest.mark.parametrize("spec,cap,family,flavor,subset", [
        pytest.param(spec, cap, family, flavor, subset, id="-".join(
            [spec, str(cap), family, flavor or "", subset or "none"]))
        for (spec, cap), (family, flavor, subset) in itertools.product(
            [("A1", None), ("A3", None), ("B3", None), ("H3", None),
             ("G2", None), ("Aff-A2", 8), ("I2(inf)", 12), ("I2(inf)", 0)],
            [("kl", None, ""), ("mu", None, ""), ("invkl", None, ""),
             *itertools.product(("kl", "invkl"), (SPHERICAL, ANTISPHERICAL),
                                ("", "1", "1,2"))])
        if spec != "A1" or subset != "1,2"])
    def test_tables_match_the_decoded_reference(self, capsys, spec, cap,
                                                family, flavor, subset):
        """Every table command prints, in each format, what the decoding
        printer ``reference_table`` prints for its table; a quotient's
        table here is solved, whatever route the command takes."""
        group = get_group(spec, cap)
        argv = ["--group", spec] + ([] if cap is None else ["--cap", str(cap)])
        if flavor is None:
            table, kw = get_kl(spec, cap), {}
            argv = ["kl", "--mu", *argv] if family == "mu" else [family, *argv]
        else:
            ids = sorted(int(t) for t in subset.split(",") if t)
            table = ParabolicKLTable(ParabolicContext(
                group, [t - 1 for t in ids], flavor))
            kw = {"command": f"parabolic-{family}",
                  "meta": {"flavor": flavor, "I": ids, "family": family},
                  "columns": {"flavor": flavor, "I": subset or "-"}}
            argv = ["parabolic", *argv, "--family", family, "--flavor",
                    flavor, "--parabolic", subset]
        for fmt in ("text", "csv", "json"):
            assert run_cli(capsys, *argv, "--format", fmt) == (
                0, reference_table(table, family, fmt, spec, cap, **kw), "")

    def test_rouquier_csv(self, capsys):
        code, out, _ = run_cli(capsys, "rouquier", "--group", "A2",
                               "--element", "1", "--format", "csv")
        assert code == 0
        assert out == "y,i,mult\ne,1,1\n1,0,1\n"

    def test_rouquier_identity_element(self, capsys):
        code, out, _ = run_cli(capsys, "rouquier", "--group", "A2",
                               "--element", "e", "--format", "json")
        assert code == 0
        assert json.loads(out)["entries"] == {"e|0": 1}


class TestScanCommand:
    def test_inverse_scan_passes(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--name", "inverse",
                               "--group", "B2")
        assert code == 0
        assert out.startswith("PASS scan-inverse")

    def test_spherical_scan_expected(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--name", "spherical",
                               "--group", "A2", "--parabolic", "1")
        assert code == 0
        assert "violations=2 (expected)" in out
        assert "mandated consecutive chain triples: 1/1 present" in out

    def test_spherical_scan_strict_fails(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--name", "spherical",
                               "--group", "A2", "--parabolic", "1",
                               "--no-expect-violations")
        assert code == 1
        assert out.startswith("FAIL")

    def test_antispherical_scan(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--name", "antispherical",
                               "--group", "A3", "--parabolic", "1,2")
        assert code == 0

    def test_scan_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--name", "spherical",
                               "--group", "A2", "--parabolic", "1",
                               "--format", "json")
        obj = json.loads(out)
        assert code == 0
        assert obj["check"] == "scan-spherical"
        assert obj["I"] == [1] and obj["passed"] is True
        assert len(obj["violations"]) == 2
        for v in obj["violations"]:
            assert {"z", "y", "x", "lhs", "rhs", "witness_exponent"} \
                <= set(v)

    def test_scan_csv(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--name", "spherical",
                               "--group", "A2", "--parabolic", "1",
                               "--format", "csv")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "z,y,x,lhs,rhs,witness_exponent"
        assert len(lines) == 3

    def test_scan_is_the_suite_check(self, capsys):
        """``kllab scan`` and the suite fill a scan check the same way:
        count, violations, status and the mandate note."""
        code, out, _ = run_cli(capsys, "scan", "--name", "spherical",
                               "--group", "A3", "--parabolic", "1,2",
                               "--format", "json")
        assert code == 0
        scan = json.loads(out)
        assert scan["notes"] == [
            "mandated consecutive chain triples: 2/2 present"]
        code, out, _ = run_cli(capsys, "suite", "--group", "A3",
                               "--parabolic", "1,2", "--format", "json")
        assert code == 0
        (check,) = [c for c in json.loads(out)["checks"]
                    if c["check"] == "scan-spherical" and c["I"] == [1, 2]]
        assert check == scan

    def test_classical_rejects_parabolic(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--name", "classical",
                               "--group", "A2", "--parabolic", "1")
        assert code == 2
        assert "CoxeterSpecError" in err


class TestSuiteCommand:
    def test_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "--group", "A2")
        assert code == 0
        assert out.strip().endswith("suite result: PASS")

    def test_suite_csv(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "--group", "A2",
                               "--format", "csv")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "check,I,flavor,checked,violations,status"
        assert all(line.endswith(",pass") for line in lines[1:])

    def test_suite_explicit_subsets(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "--group", "A2",
                               "--parabolic", "1", "--parabolic", "1,2",
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        subsets = {tuple(c["I"]) for c in obj["checks"]}
        assert (1,) in subsets and (1, 2) in subsets and () in subsets

    def test_suite_repeated_subset_runs_once(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "--group", "A2",
                               "--parabolic", "1", "--parabolic", "1",
                               "--format", "json")
        assert code == 0
        _, once, _ = run_cli(capsys, "suite", "--group", "A2",
                             "--parabolic", "1", "--format", "json")
        assert out == once
        labels = [(c["check"], tuple(c["I"]), c["flavor"])
                  for c in json.loads(out)["checks"]]
        assert len(labels) == len(set(labels))

    def test_byte_identical_runs_and_threads(self, capsys):
        outs = []
        for threads in ("1", "1", "4"):
            code, out, _ = run_cli(capsys, "suite", "--group", "B2",
                                   "--format", "json",
                                   "--threads", threads)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]

    def test_suite_affine_with_cap(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "--group", "Aff-A1",
                               "--cap", "5")
        assert code == 0

    def test_suite_enumerates_once(self, capsys, monkeypatch):
        from kllab.coxeter import GroupTable
        calls = []
        enumerate_table = GroupTable._enumerate

        def counted(table):
            calls.append(table.matrix)
            enumerate_table(table)

        monkeypatch.setattr(GroupTable, "_enumerate", counted)
        code, _, _ = run_cli(capsys, "suite", "--group", "A2")
        assert code == 0 and len(calls) == 1

    @pytest.mark.parametrize("argv,error", [
        (("--group", "Aff-A2", "--parabolic", "9"), "CapRequiredError"),
        (("--group", "A2", "--parabolic", "9"), "CoxeterSpecError"),
    ])
    def test_suite_cap_check_comes_first(self, capsys, argv, error):
        code, out, err = run_cli(capsys, "suite", *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == error


class TestErrorsAndIO:
    def test_unknown_group_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "info", "--group", "Q7")
        assert code == 2
        assert json.loads(err)["error"] == "CoxeterSpecError"

    def test_dihedral_order_zero_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "info", "--group", "I2(0)",
                                 "--cap", "3")
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "CoxeterSpecError",
                                   "message": "I2(m) needs m >= 2"}

    def test_missing_cap_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "info", "--group", "Aff-A1")
        assert code == 2
        assert json.loads(err)["error"] == "CapRequiredError"

    @pytest.mark.parametrize("command", ["info", "kl", "suite"])
    def test_negative_cap_exits_2(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--group", "A2",
                                 "--cap", "-1")
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "CapRequiredError",
            "message": "length cap must be >= 0, got -1"}

    @pytest.mark.parametrize("where", ["missing/table.txt", "."])
    def test_unwritable_out_exits_2_before_computing(self, capsys, tmp_path,
                                                     monkeypatch, where):
        def no_build(*args):
            raise AssertionError("computed before checking --out")
        monkeypatch.setattr(cli, "build_group", no_build)
        target = str(tmp_path / where)
        code, out, err = run_cli(capsys, "kl", "--group", "A2",
                                 "--out", target)
        assert code == 2 and out == ""
        obj = json.loads(err)
        assert obj["error"] == "OutputPathError"
        assert obj["message"].startswith(f"cannot write output file "
                                         f"{target!r}: ")

    def test_out_file_kept_until_output(self, capsys, tmp_path):
        target = tmp_path / "old.txt"
        target.write_text("old\n")
        code, _, _ = run_cli(capsys, "kl", "--group", "Q7",
                             "--out", str(target))
        assert code == 2 and target.read_text() == "old\n"

    @pytest.mark.parametrize("argv,expected", [
        (["info", "--group", "X9"], 2),
        (["rouquier", "--group", "Aff-A1", "--cap", "2", "--element",
          "1,2,1"], 1),
    ])
    def test_failed_run_leaves_no_new_out_file(self, capsys, tmp_path, argv,
                                               expected):
        target = tmp_path / "new.txt"
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == expected and out == ""
        assert not target.exists()

    def test_bad_subset_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--name", "spherical",
                               "--group", "A2", "--parabolic", "9")
        assert code == 2

    def test_bad_element_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "rouquier", "--group", "A2",
                               "--element", "1,9")
        assert code == 2

    def test_usage_error_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--name", "bogus", "--group", "A2"])
        assert exc.value.code == 2

    def test_element_beyond_cap_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "rouquier", "--group", "I2(inf)",
                               "--cap", "3", "--element", "1,2,1,2,1")
        assert code == 1
        assert json.loads(err)["error"] == "CapExceededError"

    def test_max_elements_env_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv("KLLAB_MAX_ELEMENTS", "5")
        code, _, err = run_cli(capsys, "info", "--group", "B3")
        assert code == 1
        assert json.loads(err)["error"] == "ResourceLimitError"

    def test_closed_pipe_exits_1_with_json_error(self):
        """A reader that takes 10 bytes of a long table and closes the
        pipe: exit 1 and the JSON error on stderr, with no traceback."""
        src = os.path.dirname(os.path.dirname(kllab.__file__))
        with subprocess.Popen(
                [sys.executable, "-m", "kllab.cli", "invkl", "--group", "B4",
                 "--format", "csv"], stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src}) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == 1
        assert "Traceback" not in err
        assert json.loads(err)["error"] == "BrokenPipeError"

    def test_closed_pipe_unbuffered_exits_1_with_json_error(self):
        """With PYTHONUNBUFFERED=1 the text table goes out a few hundred
        lines a write, which a reader that takes 10 bytes cuts short: still
        exit 1 and the JSON error, not a truncated table passed off as
        success."""
        src = os.path.dirname(os.path.dirname(kllab.__file__))
        with subprocess.Popen(
                [sys.executable, "-m", "kllab.cli", "kl", "--group", "B4"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src,
                     "PYTHONUNBUFFERED": "1"}) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == 1
        assert "Traceback" not in err
        assert json.loads(err)["error"] == "BrokenPipeError"

    @pytest.mark.parametrize("value", ["abc", "-1", "0", "2.5", ""])
    def test_bad_max_elements_env_exits_2_before_enumerating(
            self, capsys, monkeypatch, value):
        from kllab.coxeter import GroupTable

        def no_enumerate(table):
            raise AssertionError("enumerated before checking the setting")
        monkeypatch.setattr(GroupTable, "_enumerate", no_enumerate)
        monkeypatch.setenv("KLLAB_MAX_ELEMENTS", value)
        code, out, err = run_cli(capsys, "info", "--group", "A2")
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "SettingError",
            "message": f"KLLAB_MAX_ELEMENTS must be an integer >= 1, "
                       f"got {value!r}"}

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "invkl", "--group", "A2",
                               "--format", "csv", "--out", str(target))
        assert code == 0 and out == ""
        text = target.read_text()
        assert text.startswith("y,x,len_y,len_x,poly\n")
        assert len(text.strip().split("\n")) == 20

    @pytest.mark.parametrize("argv", [
        ["kl", "--group", "B3"], ["kl", "--mu", "--group", "B3"],
        ["parabolic", "--group", "B3", "--parabolic", "1", "--flavor",
         "spherical"], ["invkl", "--group", "Aff-A2", "--cap", "9"]])
    def test_json_tables_come_in_key_order(self, capsys, argv):
        """A JSON table, streamed entry by entry, is byte for byte the
        one string of json.dumps(indent=2, sort_keys=True)."""
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2,
                                 sort_keys=True) + "\n"

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_streamed_output_is_the_one_string(self, tmp_path, monkeypatch,
                                                fmt):
        """Every format leaves in many writes, none of them the whole
        output, and holds byte for byte what one string of
        json.dumps(indent=2, sort_keys=True), of a csv writer or of the
        decoding printer ``reference_table`` would."""
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(len(text))
                return super().write(text)
        monkeypatch.setattr(sys, "stdout", Recorder())
        argv = ["invkl", "--group", "B3", "--format", fmt]
        assert main(argv) == 0
        out = sys.stdout.getvalue()
        if fmt == "json":
            expected = json.dumps(json.loads(out), indent=2,
                                  sort_keys=True) + "\n"
        elif fmt == "csv":
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(
                csv.reader(io.StringIO(out)))
            expected = buf.getvalue()
        else:
            expected = reference_table(get_kl("B3"), "invkl", "text", "B3",
                                       None)
        assert out == expected
        assert len(writes) > 1 and max(writes) < len(out)
        target = tmp_path / f"table.{fmt}"
        assert main(argv + ["--out", str(target)]) == 0
        assert target.read_text() == out


def test_commands_do_not_load_numpy_ma():
    """No command needs ``numpy.ma``, which a plain ``np.unique`` or
    ``np.union1d`` imports under numpy 2 at a cost to every process; a
    fresh interpreter runs a suite, an affine scan and three tables
    without it.
    Skipped where importing numpy alone loads it."""
    script = textwrap.dedent("""
        import contextlib, io, sys
        import numpy
        if "numpy.ma" in sys.modules:
            sys.exit(3)
        from kllab.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["suite", "--group", "H3"]) == 0
            assert main(["scan", "--name", "inverse", "--group", "Aff-A2",
                         "--cap", "13"]) == 0
            assert main(["kl", "--mu", "--group", "H3", "--format",
                         "json"]) == 0
            assert main(["invkl", "--group", "H3", "--format", "json"]) == 0
            assert main(["parabolic", "--group", "B3", "--parabolic", "1",
                         "--flavor", "spherical", "--format", "csv"]) == 0
        sys.exit("numpy.ma" in sys.modules)
    """)
    src = os.path.dirname(os.path.dirname(kllab.__file__))
    code = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": src}).returncode
    if code == 3:
        pytest.skip("importing numpy alone loads numpy.ma")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["suite", "--group", "B3"],
    ["suite", "--group", "Aff-A2", "--cap", "8"],
    ["invkl", "--group", "B3", "--format", "json"],
    ["scan", "--name", "classical", "--group", "B3"],
])
def test_output_is_the_same_across_the_exact_fallback(monkeypatch, capsys,
                                                      argv):
    """With the int64 limit at 8, chunks run in exact ints (and some int64
    chunks are redone in them); with the cell budget at 1, every chunk
    holds one column.  Stdout and the exit code do not change.  The
    suite's certificate passes show it: their mirrored sums run in exact
    ints, and one column at a time."""
    expected = run_cli(capsys, *argv)[:2]
    dtypes, sizes = [], set()

    def spy(*args, _sums=kernel.alternating_failures):
        if args[5:] and args[5] is not None:   # the blocks of bar(m_x)
            sizes.add(len(args[1].xs))
        return _sums(*args)

    def mirrored(*args, _add=kernel.add_blocks):
        if args[8:] and args[8] is not None:   # the mirrored sum
            dtypes.append(args[8][0].dtype)
        return _add(*args)

    def spies():
        monkeypatch.setattr(kernel, "alternating_failures", spy)
        monkeypatch.setattr(kernel, "add_blocks", mirrored)
    spies()
    monkeypatch.setattr(kernel, "INT64_LIMIT", 8)
    assert run_cli(capsys, *argv)[:2] == expected
    assert argv[0] != "suite" or object in dtypes
    monkeypatch.undo()
    spies()
    monkeypatch.setattr(kernel, "CELL_BUDGET", 1)
    sizes.clear()
    assert run_cli(capsys, *argv)[:2] == expected
    assert sizes <= {1} and (argv[0] != "suite" or sizes)


@pytest.mark.parametrize("argv,gathers", [
    (["parabolic", "--group", "B4", "--parabolic", "1", "--flavor",
      "spherical"], True),
    (["parabolic", "--group", "B4", "--parabolic", "2,3,4", "--flavor",
      "antispherical", "--family", "invkl"], False),
    (["parabolic", "--group", "H3", "--parabolic", "1,2", "--flavor",
      "spherical", "--format", "csv"], False),
    (["parabolic", "--group", "A3", "--flavor", "antispherical",
      "--format", "json"], True),
    (["scan", "--name", "spherical", "--group", "B3", "--parabolic", "1"],
     True),
    (["scan", "--name", "antispherical", "--group", "Aff-A2", "--cap", "8",
      "--parabolic", "1"], True),
    (["scan", "--name", "antispherical", "--group", "Aff-A2", "--cap", "8",
      "--parabolic", "1,2"], False),
])
def test_table_queries_gather_only_on_large_quotients(monkeypatch, capsys,
                                                      argv, gathers):
    """``kllab parabolic`` and the parabolic scans build b and gather from
    it when the quotient holds at least half of the group's table, and
    else solve with no ``KLTable`` built; the other route prints the
    same."""
    built = []

    class Counted(cli.KLTable):
        def __init__(self, group):
            built.append(group)
            super().__init__(group)

    def flipped(context, b=None):
        return ParabolicKLTable(context, None if b is not None
                                else KLTable(context.group))
    monkeypatch.setattr(cli, "KLTable", Counted)
    got = run_cli(capsys, *argv)
    assert got[0] == 0 and len(built) == gathers
    monkeypatch.setattr(cli, "ParabolicKLTable", flipped)
    assert run_cli(capsys, *argv) == got
