import json

import numpy as np
import pytest
from click.testing import CliRunner

from totaldp.cli import main
from totaldp.extreal import INF
from totaldp.fixtures import fixture
from totaldp.modelio import read_trace, render_model, write_model
from totaldp.operators import bellman_T


@pytest.fixture
def runner():
    return CliRunner()


def _write_fixture(tmp_path, name):
    fx = fixture(name)
    path = tmp_path / f"{name}.mdp"
    write_model(path, fx.model, (fx.Jstar, fx.Qstar))
    return path


class TestValidate:
    def test_ok_model_exits_zero(self, runner, tmp_path):
        path = _write_fixture(tmp_path, "FX-P2")
        out = runner.invoke(main, ["validate", str(path)])
        assert out.exit_code == 0
        assert "OK" in out.output

    def test_sign_violation_exits_one_and_names_state(self, runner, tmp_path):
        fx = fixture("FX-P2")
        text = render_model(fx.model).replace('"cost": 1.0,', '"cost": -1.0,')
        path = tmp_path / "bad.mdp"
        path.write_text(text)
        out = runner.invoke(main, ["validate", str(path)])
        assert out.exit_code == 1
        assert "regime P requires g >= 0" in out.output
        assert "state 1" in out.output and "'go'" in out.output

    def test_truncated_file_exits_two_with_location(self, runner, tmp_path):
        path = tmp_path / "trunc.mdp"
        path.write_text(render_model(fixture("FX-P2").model)[:25])
        out = runner.invoke(main, ["validate", str(path)])
        assert out.exit_code == 2
        assert "line" in out.output


class TestSolve:
    def test_vi_notes_the_gap_on_the_interval_fixture(self, runner, tmp_path):
        path = _write_fixture(tmp_path, "FX-P3a")
        out = runner.invoke(main, ["solve", str(path), "--algorithm", "vi",
                                   "--j0", "zero", "--max-iter", "400"])
        assert out.exit_code == 0
        assert "differs from the declared optimum at state '2'" in out.output

    def test_mixed_writes_reparsable_trace(self, runner, tmp_path):
        path = _write_fixture(tmp_path, "FX-P4")
        trace_path = tmp_path / "trace.csv"
        out = runner.invoke(main, ["solve", str(path), "--algorithm", "mixed",
                                   "--j0", "cJstar:1.5", "--nk", "10",
                                   "--bstrategy", "full",
                                   "--trace-out", str(trace_path)])
        assert out.exit_code == 0, out.output
        assert "termination: converged" in out.output
        trace = read_trace(trace_path)
        assert trace.rows
        assert trace.rows[-1].lower_margin <= 0.0
        assert trace.rows[-1].upper_margin <= 0.0

    def test_empty_b_replays_value_iteration(self, runner, tmp_path):
        fx = fixture("FX-P4")
        path = _write_fixture(tmp_path, "FX-P4")
        trace_path = tmp_path / "trace.json"
        out = runner.invoke(main, ["solve", str(path), "--algorithm", "mixed",
                                   "--j0", "cJstar:1.5", "--bstrategy", "empty",
                                   "--trace-out", str(trace_path), "--format", "json"])
        assert out.exit_code == 0, out.output
        trace = read_trace(trace_path)
        assert trace.rows and all(row.b_set == "{}" for row in trace.rows)
        J = trace.J0
        for row in trace.rows:
            J = bellman_T(fx.model, J)
            assert np.array_equal(np.array(row.extra["J_snapshot"]), J)

    def test_exact_rule_and_json_trace(self, runner, tmp_path):
        path = _write_fixture(tmp_path, "FX-D")
        trace_path = tmp_path / "trace.json"
        out = runner.invoke(main, ["solve", str(path), "--algorithm", "mixed",
                                   "--nk", "exact", "--tol", "1e-10",
                                   "--trace-out", str(trace_path),
                                   "--format", "json"])
        assert out.exit_code == 0, out.output
        trace = read_trace(trace_path)
        assert trace.algorithm == "mixed"
        assert "geometric-rate" in out.output

    def test_lp_on_wrong_regime_is_usage_error(self, runner, tmp_path):
        path = _write_fixture(tmp_path, "FX-N2")
        out = runner.invoke(main, ["solve", str(path), "--algorithm", "lp"])
        assert out.exit_code == 2

    def test_pi_reports_termination(self, runner, tmp_path):
        path = _write_fixture(tmp_path, "FX-P2")
        out = runner.invoke(main, ["solve", str(path), "--algorithm", "pi",
                                   "--mu0", "0,1"])
        assert out.exit_code == 0
        assert "termination: stuck" in out.output

    def test_capped_mpi_is_not_converged(self, runner, tmp_path):
        path = _write_fixture(tmp_path, "FX-D")
        out = runner.invoke(main, ["solve", str(path), "--algorithm", "mpi",
                                   "--max-iter", "1", "--tol", "1e-12"])
        assert out.exit_code == 1
        assert "termination: cap" in out.output
        assert "did not reach the residual tolerance" in out.output

    def test_out_of_range_control_is_usage_error(self, runner, tmp_path):
        path = _write_fixture(tmp_path, "FX-P2")
        for spec in ("0,2", "0,-1"):
            out = runner.invoke(main, ["solve", str(path), "--algorithm", "pi",
                                       "--mu0", spec])
            assert out.exit_code == 2, spec

    def test_config_errors_are_usage_errors(self, runner, tmp_path):
        path = _write_fixture(tmp_path, "FX-D")
        for args in (["--algorithm", "mpi", "--nk", "exact"],
                     ["--algorithm", "mixed", "--nk", "exact",
                      "--mask-schedule", "roundrobin"],
                     ["--nk", "0"], ["--nk", "abc"],
                     ["--algorithm", "vi", "--tol", "nan"], ["--tol", "0"],
                     ["--clamp-lo", "nan"], ["--clamp-hi", "nan"],
                     ["--epsilon", "nan"], ["--epsilon", "-1"],
                     *(["--bstrategy", spec] for spec in (
                         "occupation:abc", "occupation:2", "occupation:0.5:nan",
                         "occupation:0.5:-1", "occupation:0.5:0:1", "occupationx"))):
            out = runner.invoke(main, ["solve", str(path), *args])
            assert out.exit_code == 2, (args, out.output)
            assert "Traceback" not in out.output
        out = runner.invoke(main, ["solve", str(path), "--bstrategy", "occupation:0.6"])
        assert out.exit_code == 0, out.output

    @pytest.mark.parametrize("command, extra", [("solve", ["--algorithm", "vi"]),
                                                ("compare", [])])
    def test_bad_env_tolerance_is_usage_error(self, runner, tmp_path, command, extra):
        args = [command, str(_write_fixture(tmp_path, "FX-D")), *extra]
        for tol in ("abc", "nan", "0", "-1e-9"):
            out = runner.invoke(main, args, env={"TOTALDP_TOL": tol})
            assert out.exit_code == 2, (tol, out.output)
            assert "TOTALDP_TOL" in out.output
        out = runner.invoke(main, args, env={"TOTALDP_TOL": "1e-8"})
        assert out.exit_code == 0, out.output

    def test_bad_vector_files_are_usage_errors(self, runner, tmp_path):
        path = _write_fixture(tmp_path, "FX-P4")
        nan = tmp_path / "nan.json"
        nan.write_text('[0, "nan", 1]')
        short = tmp_path / "short.json"
        short.write_text("[0, 1]")
        for opt, vec in (("--j0", nan), ("--j0", short), ("--q0", short),
                         ("--j0", tmp_path / "missing.json")):
            out = runner.invoke(main, ["solve", str(path), "--algorithm", "mixed",
                                       opt, f"file:{vec}"])
            assert out.exit_code == 2, (opt, vec, out.output)

    def test_vector_files_use_the_model_literals(self, runner, tmp_path):
        path = _write_fixture(tmp_path, "FX-P3a")
        vec = tmp_path / "j0.json"
        vec.write_text('[0, "inf", 1.0]')
        out = runner.invoke(main, ["solve", str(path), "--algorithm", "vi",
                                   "--j0", f"file:{vec}"])
        assert out.exit_code == 0, out.output
        assert "final J: [ 0. inf  1.]" in out.output

    def test_zero_multiple_of_an_infinite_optimum_is_zero(self, runner, tmp_path):
        # 0 * inf = 0 in the start cJstar:0, not NaN
        path = _write_fixture(tmp_path, "FX-P3a")
        out = runner.invoke(main, ["solve", str(path), "--algorithm", "vi",
                                   "--j0", "cJstar:0", "--max-iter", "400"])
        assert out.exit_code == 0, out.output
        assert "nan" not in out.output

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_infinite_config_flag_is_written(self, runner, tmp_path, fmt):
        # mpi from J0 = inf on FX-P2 records cone_c = inf in the trace config
        path = _write_fixture(tmp_path, "FX-P2")
        trace_path = tmp_path / f"trace.{fmt}"
        out = runner.invoke(main, ["solve", str(path), "--algorithm", "mpi", "--j0", "inf",
                                   "--max-iter", "5", "--trace-out", str(trace_path),
                                   "--format", fmt])
        assert out.exit_code == 0, out.output
        assert read_trace(trace_path).config["initial_flags"]["cone_c"] == INF

    def test_tolerance_env_override(self, runner, tmp_path, monkeypatch):
        path = _write_fixture(tmp_path, "FX-D")
        monkeypatch.setenv("TOTALDP_TOL", "1e-3")
        out = runner.invoke(main, ["solve", str(path), "--algorithm", "vi"])
        assert out.exit_code == 0
        iters_loose = int(out.output.split("iterations: ")[1].split(",")[0])
        monkeypatch.setenv("TOTALDP_TOL", "1e-9")
        out2 = runner.invoke(main, ["solve", str(path), "--algorithm", "vi"])
        iters_tight = int(out2.output.split("iterations: ")[1].split(",")[0])
        assert iters_loose < iters_tight


class TestReproduce:
    def test_cheap_scenario_passes(self, runner):
        out = runner.invoke(main, ["reproduce", "footnote8"])
        assert out.exit_code == 0
        assert "=> PASS" in out.output

    def test_unknown_scenario_is_usage_error(self, runner):
        out = runner.invoke(main, ["reproduce", "nope"])
        assert out.exit_code == 2


class TestCompare:
    def test_stuck_vs_mixed_rows(self, runner, tmp_path):
        path = _write_fixture(tmp_path, "FX-P2")
        out = runner.invoke(main, ["compare", str(path),
                                   "--algorithms", "pi,mixed", "--mu0", "0,1"])
        assert out.exit_code == 0
        lines = out.output.strip().splitlines()
        assert any("stuck" in ln for ln in lines)
        assert any("converged" in ln for ln in lines)

    def test_capped_rows_say_cap(self, runner, tmp_path):
        path = _write_fixture(tmp_path, "FX-D")
        out = runner.invoke(main, ["compare", str(path), "--algorithms",
                                   "vi,mpi,mixed", "--max-iter", "2"])
        assert out.exit_code == 0
        notes = {ln.split()[0]: ln.split()[5]
                 for ln in out.output.strip().splitlines()[1:]}
        assert notes == {"vi": "cap", "mpi": "cap", "mixed": "cap"}

    def test_affine_model_is_usage_error(self, runner, tmp_path):
        path = _write_fixture(tmp_path, "FX-P3a")
        out = runner.invoke(main, ["compare", str(path),
                                   "--algorithms", "vi,mixed"])
        assert out.exit_code == 2
        assert "atomic-only" in out.output

    def test_config_errors_are_usage_errors(self, runner, tmp_path):
        path = _write_fixture(tmp_path, "FX-D")
        for nk in ("exact", "abc", "0"):
            out = runner.invoke(main, ["compare", str(path),
                                       "--algorithms", "vi,mpi", "--nk", nk])
            assert out.exit_code == 2, (nk, out.output)
            assert "Traceback" not in out.output

    def test_single_algorithm_degenerate_table(self, runner, tmp_path):
        path = _write_fixture(tmp_path, "FX-D")
        out = runner.invoke(main, ["compare", str(path), "--algorithms", "vi"])
        assert out.exit_code == 0
        assert len(out.output.strip().splitlines()) == 2

    def test_counts_reported_for_three_algorithms(self, runner, tmp_path):
        path = _write_fixture(tmp_path, "FX-D")
        out = runner.invoke(main, ["compare", str(path),
                                   "--algorithms", "vi,mpi,mixed"])
        assert out.exit_code == 0
        assert len(out.output.strip().splitlines()) == 4


class TestBench:
    def test_deterministic_counts(self, runner):
        args = ["bench", "--seeds", "1", "--sizes", "8", "--format", "json"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == 0 and b.exit_code == 0
        ra = json.loads(a.output)
        rb = json.loads(b.output)
        for x, y in zip(ra, rb):
            assert x["mixed_iters"] == y["mixed_iters"]
            assert x["vi_iters"] == y["vi_iters"]
            assert x["mixed_backups"] == y["mixed_backups"]

    def test_size_sweep_grows_backups(self, runner):
        out = runner.invoke(main, ["bench", "--seeds", "1",
                                   "--sizes", "6,12", "--format", "json"])
        assert out.exit_code == 0
        recs = json.loads(out.output)
        small = sum(r["vi_backups"] for r in recs if r["size"] == 6)
        big = sum(r["vi_backups"] for r in recs if r["size"] == 12)
        assert big >= small


class TestExportFixture:
    def test_export_then_validate(self, runner, tmp_path):
        path = tmp_path / "fx.mdp"
        out = runner.invoke(main, ["export-fixture", "FX-N2", str(path)])
        assert out.exit_code == 0
        out2 = runner.invoke(main, ["validate", str(path)])
        assert out2.exit_code == 0
        assert "ground truth block present" in out2.output

    def test_unknown_fixture(self, runner, tmp_path):
        out = runner.invoke(main, ["export-fixture", "nope",
                                   str(tmp_path / "x.mdp")])
        assert out.exit_code == 2
