import csv
import io
import json

import numpy as np
import numpy.testing as npt
import pytest

import narekit as nk
import narekit.errors
from narekit import cli
from narekit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_transport_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code, _, _ = run(capsys, "gen", "--family", "transport", "--n", "8",
                         "--beta", "1e-3", "--out", str(out))
        assert code == 0
        p = nk.NareProblem.load(out)
        assert p.n == 8
        assert p.metadata["family"] == "transport"

    def test_copies_a_problem_file(self, tmp_path, capsys):
        src, dest = tmp_path / "p.json", tmp_path / "q.json"
        p = nk.transport_problem(nk.TransportSpec.near_critical(4, 1e-3))
        p.save(src)
        code, _, _ = run(capsys, "gen", "--problem", str(src), "--out", str(dest))
        assert code == 0
        npt.assert_array_equal(nk.NareProblem.load(dest).B, p.B)

    def test_random_needs_alpha(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--family", "random", "--n", "8",
                           "--out", str(tmp_path / "p.json"))
        assert code == 5
        assert "alpha" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--alpha", "inf"),
                                             ("--alpha", "nan")])
    @pytest.mark.parametrize("command", ["gen", "solve", "sushi", "diagnose"])
    def test_bad_random_parameter_exits_5(self, tmp_path, capsys, command, flag, value):
        argv = {"--alpha": "1e-3", flag: value}
        extra = ["--out", str(tmp_path / "p.json")] if command == "gen" else []
        code, out, err = run(capsys, command, "--family", "random", "--n", "8",
                             *[w for kv in argv.items() for w in kv], *extra)
        assert code == 5
        assert flag[2:] in err

    def test_quadrature_failure_exits_5(self, tmp_path, capsys, broken_leggauss):
        out = tmp_path / "x.json"
        code, _, err = run(capsys, "gen", "--family", "transport", "--n", "5",
                           "--beta", "1e-3", "--out", str(out))
        assert code == 5
        assert "narekit: " in err and not out.exists()


class TestSolve:
    def test_transport_table_cell(self, capsys):
        code, out, _ = run(capsys, "solve", "--family", "transport",
                           "--n", "32", "--beta", "1e-6")
        assert code == 0
        report = json.loads(out)
        assert abs(report["steps"] - 20) <= 2
        assert report["residual"] <= 1e-12
        assert report["converged"]

    def test_loads_problem_file(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        nk.transport_problem(nk.TransportSpec.near_critical(8, 1e-3)).save(path)
        code, out, _ = run(capsys, "solve", "--problem", str(path))
        assert code == 0
        assert json.loads(out)["converged"]

    @pytest.mark.parametrize("zero", ["B", "C"])
    def test_zero_coefficient_block_solves(self, tmp_path, capsys, zero):
        # X = 0 (B = 0) or Y = 0 (C = 0) zeroes the residual's denominator
        blocks = {"A": np.diag([2.0, 1.0]), "B": np.full((2, 2), 0.1),
                  "C": np.full((2, 2), 0.1), "D": np.diag([1.5, 1.0])}
        blocks[zero] = np.zeros((2, 2))
        path = tmp_path / "p.json"
        nk.NareProblem(**blocks).save(path)
        code, out, _ = run(capsys, "solve", "--problem", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["converged"]
        assert report["residual" if zero == "B" else "dual_residual"] == 0.0

    def test_non_mmatrix_exits_4(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        nk.NareProblem(A=[[1.0]], B=[[2.0]], C=[[3.0]], D=[[1.0]]).save(path)
        code, out, _ = run(capsys, "solve", "--problem", str(path))
        assert code == 4
        assert json.loads(out)["error"] == "classification"

    def test_force_overrides_guard(self, tmp_path, capsys):
        # a solvable equation whose M-block has a positive off-diagonal entry
        path = tmp_path / "forced.json"
        nk.NareProblem(A=[[3.0, 0.1], [0.0, 3.0]], B=np.full((2, 2), 0.2),
                       C=np.full((2, 2), 0.2),
                       D=[[3.0, 0.0], [0.1, 3.0]]).save(path)
        code, _, _ = run(capsys, "solve", "--problem", str(path))
        assert code == 4
        code, out, _ = run(capsys, "solve", "--problem", str(path), "--force")
        assert code == 0
        assert json.loads(out)["residual"] <= 1e-12

    def test_init_singular_exits_2(self, tmp_path, capsys):
        # gamma* = 2 makes A + gamma*I = 0
        path = tmp_path / "singular.json"
        nk.NareProblem(A=[[-2.0]], B=[[0.0]], C=[[0.0]], D=[[2.0]]).save(path)
        code, out, err = run(capsys, "solve", "--problem", str(path), "--force")
        assert code == 2
        assert json.loads(out)["error"] == "breakdown"
        assert "A+gamma*I" in err

    @pytest.mark.parametrize("gamma", ["0", "1e-9"])
    def test_gamma_below_gamma_star_exits_5(self, capsys, gamma):
        # gamma* = 27.6 here; gamma = 0 used to report converged, residual 1
        code, out, err = run(capsys, "solve", "--family", "transport", "--n", "8",
                             "--beta", "1e-3", "--gamma", gamma)
        assert code == 5
        assert json.loads(out)["error"] == "io"
        assert "--gamma" in err

    def test_gamma_above_gamma_star(self, capsys):
        code, out, _ = run(capsys, "solve", "--family", "transport", "--n", "8",
                           "--beta", "1e-3", "--gamma", "30")
        assert code == 0
        report = json.loads(out)
        assert report["gamma"] == 30.0 and report["steps"] == 13
        assert report["residual"] <= 1e-12

    def test_csv_of_report(self, capsys):
        # a report without rows becomes one csv row under its sorted keys
        code, out, _ = run(capsys, "solve", "--family", "transport", "--n", "8",
                           "--beta", "1e-3", "--format", "csv")
        assert code == 0
        header, values = out.splitlines()
        assert header == "converged,dual_residual,gamma,residual,schema,steps,tail_from"
        assert values.startswith("True,") and values.endswith(",13,")  # n = 8: no tail

    @pytest.mark.parametrize("command", ["solve", "sushi"])
    def test_table_format(self, capsys, command):
        code, out, _ = run(capsys, command, "--family", "transport", "--n", "8",
                           "--beta", "1e-3", "--format", "table")
        assert code == 0
        header, values = out.splitlines()
        assert header.split()[:2] == (["converged", "dual_residual"]
                                      if command == "solve" else
                                      ["central_eigs", "cond_uv"])
        assert len(values) == len(header)  # right-aligned columns

    def test_missing_source_exits_5(self, capsys):
        code, _, _ = run(capsys, "solve")
        assert code == 5

    def test_bad_file_exits_5(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, out, _ = run(capsys, "solve", "--problem", str(path))
        assert code == 5
        assert json.loads(out)["error"] == "io"

    @pytest.mark.parametrize("payload", [
        b'{"m": 1, "n": 1, "A": [[1, 2], [3]], "B": [[1]], "C": [[1]], "D": [[1]]}',
        b'{"m": 1, "n": 1, "A": [["x"]], "B": [[1]], "C": [[1]], "D": [[1]]}',
        b'[[1]]',
        b'{"m": 1, "n": 1, "A": [[1]]\xff}',
        b'{"A": ' + b'[' * 100000 + b']' * 100000 + b'}',
    ], ids=["ragged", "non-numeric", "top-level-list", "not-utf8", "too-deep"])
    def test_malformed_file_exits_5(self, tmp_path, capsys, payload):
        # each used to escape from the loader as a traceback (exit 1)
        path = tmp_path / "bad.json"
        path.write_bytes(payload)
        code, out, err = run(capsys, "solve", "--problem", str(path))
        assert code == 5
        assert json.loads(out)["error"] == "io"
        assert f"cannot load {path}" in err

    def test_no_size_cap(self):
        # sep_f no longer assembles the Kronecker operator, the last dense
        # size cap; its error class and exit code 6 went with it
        assert not hasattr(narekit.errors, "DimensionCap")
        assert 6 not in cli._EXIT_NAMES

    def test_save_solution_and_trace(self, tmp_path, capsys):
        sol = tmp_path / "x.json"
        trace = tmp_path / "trace.jsonl"
        code, out, _ = run(capsys, "solve", "--family", "transport", "--n", "8",
                           "--beta", "1e-3", "--save-solution", str(sol),
                           "--trace", str(trace))
        assert code == 0
        x = np.array(json.loads(sol.read_text())["X"])
        assert x.shape == (8, 8)
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records and records[0]["step"] == 1
        assert len(records) == json.loads(out)["steps"]
        assert all({"err_est", "cond"} <= set(record) for record in records)

    def test_thin_tail_is_traced(self, tmp_path, capsys):
        # near-critical n = 256: E and F collapse to rank 1 and the doubling
        # finishes on thin factors, each tail step still traced
        trace = tmp_path / "trace.jsonl"
        code, out, _ = run(capsys, "solve", "--family", "transport", "--n", "256",
                           "--beta", "1e-12", "--trace", str(trace))
        assert code == 0
        report = json.loads(out)
        assert report["converged"] is True and report["residual"] <= 1e-12
        assert isinstance(report["tail_from"], int)
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(records) == report["steps"]
        assert all(np.isfinite(r["err_est"]) and np.isfinite(r["cond"]) for r in records)


class TestUnwritableFile:
    SOLVE = ["solve", "--family", "transport", "--n", "8", "--beta", "1e-3"]

    @staticmethod
    def _oserror_text(path):
        with pytest.raises(OSError) as failure:
            open(path, "w")
        return str(failure.value)

    @pytest.mark.parametrize("argv, flag", [
        (["gen", "--family", "transport", "--n", "8", "--beta", "1e-3"], "--out"),
        (SOLVE, "--output"),
        (SOLVE, "--trace"),
        (SOLVE, "--save-solution"),
    ])
    def test_exits_5_with_one_error(self, tmp_path, capsys, argv, flag):
        path = tmp_path / "missing" / "f.json"
        code, out, err = run(capsys, *argv, flag, str(path))
        message = self._oserror_text(path)
        assert code == 5
        assert err == f"narekit: {message}\n"
        if argv[0] == "gen":  # gen has no --format and writes no JSON
            assert out == ""
        else:  # exactly one JSON document: the error, no report before it
            assert json.loads(out) == {"error": "io", "message": message}

    def test_failed_save_solution_leaves_no_csv_report(self, tmp_path, capsys):
        path = tmp_path / "missing" / "f.json"
        code, out, err = run(capsys, *self.SOLVE, "--format", "csv",
                             "--save-solution", str(path))
        assert code == 5
        assert out == ""
        assert err == f"narekit: {self._oserror_text(path)}\n"


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["solve", "--nope"],
        ["solve", "--family", "transport", "--n", "8", "--beta", "abc"],
        ["sushi", "--family", "transport", "--n", "8", "--beta", "1e-3", "--gamma", "0"],
        ["bench", "--skip-delta"],
        ["solve", "--fo=csv"],  # ambiguous: --force or --format
    ])
    def test_usage_error_exits_5(self, capsys, argv):
        # argparse's own code 2 is the one given to solver breakdown
        code, out, err = run(capsys, *argv)
        assert code == 5
        assert "usage:" in err
        assert len(out.splitlines()) == 1
        report = json.loads(out)
        assert report["error"] == "io" and report["message"] in err

    @pytest.mark.parametrize("fmt", [["--format", "csv"], ["--format=table"],
                                     ["--form", "csv"], ["--forma=table"]])
    @pytest.mark.parametrize("bad", [["--nope"], ["--n", "abc"]])
    def test_usage_error_in_text_format_writes_no_json(self, capsys, fmt, bad):
        # --format abbreviated as argparse accepts it
        code, out, err = run(capsys, "solve", *fmt, *bad)
        assert code == 5
        assert out == ""
        assert "usage:" in err and bad[-1] in err

    @pytest.mark.parametrize("argv", [
        ["gen", "--family", "transport", "--n", "8", "--beta", "1e-3"],
        ["gen", "--nope", "--out", "x.json"],
        ["gen", "--out", "x.json"],
    ])
    def test_gen_errors_write_no_json(self, capsys, tmp_path, monkeypatch, argv):
        # gen has no --format: usage errors and later errors alike use stderr
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 5
        assert out == "" and "narekit: " in err

    @pytest.mark.parametrize("command", [
        ["solve", "--family", "transport", "--n", "8", "--beta", "1e-3"],
        ["sushi", "--family", "transport", "--n", "8", "--beta", "1e-3"],
        ["bench", "--sizes", "8", "--params", "1e-3"],
    ], ids=["solve", "sushi", "bench"])
    @pytest.mark.parametrize("bad", [["--tol", "nan"], ["--tol", "inf"], ["--tol", "-1"],
                                     ["--max-steps", "0"], ["--max-steps", "-1"]])
    def test_step_arguments_out_of_range_exit_5(self, capsys, command, bad):
        # a NaN tol ran every step and exited 0 unconverged; -1 steps exited 3
        code, out, err = run(capsys, *command, *bad)
        assert code == 5
        assert json.loads(out)["error"] == "io" and bad[0] in err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["sushi", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out


class TestSushi:
    def test_transport_cell(self, capsys):
        code, out, _ = run(capsys, "sushi", "--family", "transport",
                           "--n", "32", "--beta", "1e-12")
        assert code == 0
        report = json.loads(out)
        assert report["k"] == 2
        assert abs(report["steps"] - 11) <= 2
        assert report["residual"] <= 1e-12

    def test_singular_m_certified_on_the_lu_of_h(self, capsys):
        # the guard certifies on the LU of H; the tau rule calls this M SingularM
        code, out, _ = run(capsys, "sushi", "--family", "transport",
                           "--n", "64", "--beta", "1e-12")
        assert code == 0
        report = json.loads(out)
        assert report["converged"] is True and report["residual"] <= 1e-12
        assert isinstance(report["steps"], int) and report["steps"] <= 16
        assert report["dual_residual"] <= 1e-6

    def test_overrides(self, capsys):
        code, out, _ = run(capsys, "sushi", "--family", "transport",
                           "--n", "16", "--beta", "1e-6", "--k", "2",
                           "--s", "50.0")
        assert code == 0
        report = json.loads(out)
        assert report["s"] == 50.0

    def test_report_is_the_solve_report_plus_the_shift(self, capsys):
        args = ("--family", "transport", "--n", "8", "--beta", "1e-3")
        _, solve_out, _ = run(capsys, "solve", *args)
        code, sushi_out, _ = run(capsys, "sushi", *args)
        assert code == 0
        assert set(json.loads(sushi_out)) == set(json.loads(solve_out)) | {
            "k", "s", "central_eigs", "inv_iter_steps", "cond_uv", "timings"}

    def test_csv_cells_are_json(self, capsys):
        code, out, _ = run(capsys, "sushi", "--family", "transport", "--n", "8",
                           "--beta", "1e-3", "--format", "csv")
        assert code == 0
        header, values = csv.reader(io.StringIO(out))
        row = dict(zip(header, values))
        eigs = json.loads(row["central_eigs"])
        assert len(eigs) == int(row["k"]) and len(eigs[0]) == 2
        assert json.loads(row["timings"])["total_s"] > 0.0
        assert "np.float64" not in out

    def test_non_mmatrix_exits_4(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        nk.NareProblem(A=[[1.0]], B=[[2.0]], C=[[3.0]], D=[[1.0]]).save(path)
        code, _, _ = run(capsys, "sushi", "--problem", str(path))
        assert code == 4

    def test_singular_h_exits_2(self, tmp_path, capsys):
        # H = [[1, 1], [-1, -1]] has an exact zero pivot, and M = [[1, 1],
        # [1, 1]] a positive off-diagonal entry, which the guard reports first
        path = tmp_path / "singular_h.json"
        nk.NareProblem(A=[[1.0]], B=[[-1.0]], C=[[-1.0]], D=[[1.0]]).save(path)
        code, out, _ = run(capsys, "sushi", "--problem", str(path), "--force")
        assert code == 2
        assert json.loads(out)["error"] == "breakdown"
        code, out, _ = run(capsys, "sushi", "--problem", str(path))
        assert code == 4
        assert json.loads(out)["error"] == "classification"

    @pytest.mark.parametrize("flag, value", [("--k", "0"), ("--k", "16"),
                                             ("--k", "17"), ("--s", "-2"),
                                             ("--s", "-1"), ("--s", "nan"),
                                             ("--s", "inf")])
    def test_out_of_range_override_exits_5(self, capsys, flag, value):
        # n = m = 8 allows 1 <= k <= 15; a shift needs a finite s, 1 + s > 0
        code, out, err = run(capsys, "sushi", "--family", "transport",
                             "--n", "8", "--beta", "1e-3", flag, value)
        assert code == 5
        assert json.loads(out)["error"] == "io"
        assert flag in err

    def test_k_max_reached_exits_3(self, capsys):
        # exactly critical: the central pair's inverse iteration does not
        # settle in PAIR_MAX_ITERS steps (NoConvergence)
        code, out, _ = run(capsys, "sushi", "--family", "transport", "--n", "8",
                           "--alpha", "0", "--c", "1")
        assert code == 3
        assert json.loads(out)["error"] == "no-convergence"

    def test_order_two_exits_3(self, capsys):
        # n = m = 1: no central dimension k >= 2 below n + m = 2
        code, out, _ = run(capsys, "sushi", "--family", "transport", "--n", "1",
                           "--beta", "1e-3")
        assert code == 3
        assert json.loads(out)["error"] == "no-convergence"


class TestDiagnose:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "diagnose", "--family", "transport",
                           "--n", "8", "--beta", "1e-3")
        assert code == 0
        report = json.loads(out)
        assert report["classification"] == "NonsingularM"
        assert report["gap"] == pytest.approx(0.11, rel=0.05)
        assert report["cayley_gap"] <= 1.0 + 1e-12

    def test_stable_eigenvalue_on_the_pole(self, tmp_path, capsys):
        # eigenvalues 1.5, 1, -2, -1; -2 is the pole of the transform at gamma* = 2
        path = tmp_path / "p.json"
        nk.NareProblem(A=np.diag([2.0, 1.0]), B=np.full((2, 2), 0.1),
                       C=np.zeros((2, 2)), D=np.diag([1.5, 1.0])).save(path)
        code, out, _ = run(capsys, "diagnose", "--problem", str(path))
        assert code == 0
        gap = json.loads(out)["cayley_gap"]
        assert gap == pytest.approx(1.0 / 9.0, rel=1e-14)
        assert abs(gap - 1.0 / 9.0) <= 1e-15

    def test_unsplit_spectrum_exits_4(self, tmp_path, capsys):
        # eigenvalues -1 and -2 of H: no antistable one for n = 1
        path = tmp_path / "p.json"
        nk.NareProblem(A=[[1.0]], B=[[0.0]], C=[[0.0]], D=[[-2.0]]).save(path)
        code, out, err = run(capsys, "diagnose", "--problem", str(path))
        assert code == 4
        assert json.loads(out) == {
            "error": "classification",
            "message": "spectrum does not split n antistable / m stable"}
        assert "does not split" in err

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "diagnose", "--family", "transport",
                           "--n", "8", "--beta", "1e-3", "--format", "table")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert "gap" in lines[0]

    def test_table_has_the_csv_columns(self, capsys):
        argv = ("diagnose", "--family", "transport", "--n", "8", "--beta", "1e-3")
        _, table, _ = run(capsys, *argv, "--format", "table")
        _, out, _ = run(capsys, *argv, "--format", "csv")
        header, _ = csv.reader(io.StringIO(out))
        assert table.splitlines()[0].split() == header

    def test_table_output_file(self, tmp_path, capsys):
        dest = tmp_path / "diag.txt"
        code, out, _ = run(capsys, "diagnose", "--family", "transport",
                           "--n", "8", "--beta", "1e-3", "--format", "table",
                           "--output", str(dest))
        assert code == 0
        assert out == ""
        lines = dest.read_text().splitlines()
        assert len(lines) == 2
        assert "gap" in lines[0]


    def test_csv_has_no_none_cell(self, capsys):
        code, out, _ = run(capsys, "diagnose", "--family", "transport",
                           "--n", "8", "--beta", "1e-3", "--format", "csv")
        assert code == 0
        header, values = csv.reader(io.StringIO(out))
        assert "None" not in values
        assert dict(zip(header, values))["cond_uv"] == ""

    @pytest.mark.parametrize("gamma", ["0", "-1"])
    def test_bad_gamma_exits_5(self, capsys, gamma):
        code, out, err = run(capsys, "diagnose", "--family", "transport",
                             "--n", "8", "--beta", "1e-3", "--gamma", gamma)
        assert code == 5
        assert json.loads(out)["error"] == "io"
        assert "--gamma" in err


class TestBench:
    def test_single_cell(self, capsys):
        code, out, _ = run(capsys, "bench", "--family", "transport",
                           "--sizes", "16", "--params", "1e-3")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 1
        row = dict(zip(payload["header"], payload["rows"][0]))
        assert row["sushi_its"] <= row["sda_its"]

    def test_csv_deterministic(self, capsys):
        argv = ["bench", "--family", "transport", "--sizes", "16",
                "--params", "1e-3,1e-6", "--format", "csv"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.splitlines()[0].startswith("n,param,seed,gap")
        assert len(out1.splitlines()) == 3

    def test_random_family_rows(self, capsys):
        code, out, _ = run(capsys, "bench", "--family", "random",
                           "--sizes", "20", "--params", "1e-2",
                           "--seeds", "0,1")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 2
        for values in payload["rows"]:
            row = dict(zip(payload["header"], values))
            assert row["sushi_its"] < row["sda_its"]

    def test_delta_column_from_one_spectrum(self, capsys, monkeypatch):
        p = nk.transport_problem(nk.TransportSpec.near_critical(16, 1e-3))
        h = nk.build_h(p)
        want = nk.delta_central(h, nk.sushi_solve(p)[1].central_eigs)
        calls = []
        eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        code, out, _ = run(capsys, "bench", "--family", "transport",
                           "--sizes", "16", "--params", "1e-3")
        assert code == 0
        payload = json.loads(out)
        row = dict(zip(payload["header"], payload["rows"][0]))
        assert row["delta"] == want
        assert calls.count(h.H.shape) == 1  # gap and delta share it

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "bench", "--family", "transport",
                           "--sizes", "8,16", "--params", "1e-3",
                           "--format", "table")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == cli.BENCH_HEADER
        assert len(lines) == 3
        assert len({len(line) for line in lines}) == 1  # right-aligned columns

    def test_bad_grid_exits_5(self, capsys):
        code, _, _ = run(capsys, "bench", "--sizes", "abc")
        assert code == 5
        code, _, err = run(capsys, "bench", "--family", "random", "--sizes", "8",
                           "--params", "1e-3", "--seeds", "0,-1")
        assert code == 5
        assert "seed" in err
        code, _, err = run(capsys, "bench", "--family", "random", "--sizes", "8",
                           "--params", "nan")
        assert code == 5
        assert "alpha" in err

    def test_csv_single_cell(self, capsys):
        code, out, _ = run(capsys, "bench", "--family", "transport", "--sizes", "8",
                           "--params", "1e-3", "--format", "csv")
        assert code == 0
        header, row = csv.reader(io.StringIO(out))
        assert header == cli.BENCH_HEADER and row[:2] == ["8", "0.001"]

    def test_output_file(self, tmp_path, capsys):
        dest = tmp_path / "bench.csv"
        code, out, _ = run(capsys, "bench", "--family", "transport",
                           "--sizes", "16", "--params", "1e-3",
                           "--format", "csv",
                           "--output", str(dest))
        assert code == 0
        assert out == ""
        assert dest.read_text().startswith("n,param")
