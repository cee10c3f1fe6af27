import dataclasses

import numpy as np
import pytest
from click.testing import CliRunner

from totaldp import modelio
from totaldp.cli import _parse_mu0, main
from totaldp.extreal import INF
from totaldp.fixtures import fixture
from totaldp.model import AtomicControl, Policy, TotalCostModel
from totaldp.modelio import read_trace, render_model, trace_to_csv, write_model
from totaldp.operators import bellman_T
from totaldp.solvers import ALGORITHMS, SolverConfig, check_admits, run


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

    @pytest.mark.parametrize("old, new, words", [
        ('"state": "1",\n              "prob": 1.0', '"prob": 1.0', "missing field 'state'"),
        ('"state": "1",\n              "prob": 1.0',
         '"state": "1", "prob": 0.5}, {"state": "1", "prob": 0.5', "listed twice"),
    ])
    def test_malformed_structure_is_a_parse_error(self, runner, tmp_path, old, new, words):
        text = render_model(fixture("FX-P2").model)
        assert old in text
        path = tmp_path / "bad.mdp"
        path.write_text(text.replace(old, new, 1))
        out = runner.invoke(main, ["validate", str(path)])
        assert out.exit_code == 2
        assert "parse error" in out.output and words in out.output


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

    def test_round_robin_masks_reach_the_optimum_from_inside_the_cone(self, runner,
                                                                       tmp_path):
        path = _write_fixture(tmp_path, "FX-P4")
        out = runner.invoke(main, ["solve", str(path), "--algorithm", "mixed",
                                   "--mask-schedule", "roundrobin", "--j0", "cJstar:2"])
        assert out.exit_code == 0, out.output
        assert "termination: converged" in out.output
        assert "final J: [0. 1. 2.]" in out.output
        # J_k <= T^k(J0) is no guarantee under masks: the envelope is not checked
        assert "[FAIL]" not in out.output and "envelope-upper" not in out.output

    def test_lp_trace_with_infinite_optimum_from_zero(self, runner, tmp_path):
        # State 1 pays 1 forever: J* = (0, inf), and J0 = 0 has cone c = 0.
        model = TotalCostModel("P", 1.0, (
            (AtomicControl("rest", 0.0, np.array([1.0, 0.0])),),
            (AtomicControl("trap", 1.0, np.array([0.0, 1.0])),)))
        path = tmp_path / "trap.mdp"
        write_model(path, model, (np.array([0.0, INF]), None))
        trace_path = tmp_path / "trace.csv"
        out = runner.invoke(main, ["solve", str(path), "--algorithm", "lp",
                                   "--max-iter", "3", "--trace-out", str(trace_path)])
        assert out.exit_code == 1 and "did not reach" in out.output, out.output
        rows = read_trace(trace_path).rows
        assert [row.extra["cone_margin"] for row in rows] == [1.0, 2.0, 3.0]

    def test_model_hash_is_rendered_only_for_a_trace(self, runner, tmp_path, monkeypatch):
        path = _write_fixture(tmp_path, "FX-P4")
        # render_model and model_hash both read the model's text from
        # _model_pieces; count the pieces' generators
        renders = []
        render = modelio._model_pieces
        monkeypatch.setattr(modelio, "_model_pieces",
                            lambda *a, **kw: renders.append(a) or render(*a, **kw))
        args = ["solve", str(path), "--algorithm", "mixed", "--j0", "cJstar:1.5"]
        out = runner.invoke(main, args)
        assert out.exit_code == 0, out.output
        assert renders == []
        trace_path = tmp_path / "trace.json"
        out = runner.invoke(main, args + ["--trace-out", str(trace_path), "--format", "json"])
        assert out.exit_code == 0, out.output
        assert len(renders) == 1
        # FX-P4's model_hash, as pinned in test_kernels.FIXTURE_HASHES
        assert read_trace(trace_path).model_hash == "7fa8dc1e70c628f8"

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

    def test_trace_header_names_the_b_parameters(self, runner, tmp_path):
        path = _write_fixture(tmp_path, "FX-P4")
        trace_path = tmp_path / "t.json"
        out = runner.invoke(main, ["solve", str(path), "--algorithm", "mixed",
                                   "--bstrategy", "occupation:0.5:0.2", "--format", "json",
                                   "--trace-out", str(trace_path)])
        assert out.exit_code == 0, out.output
        assert read_trace(trace_path).config["bstrategy"] == \
            "OccupationSupportB(beta=0.5, threshold=0.2, rho=None)"

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

    @pytest.mark.parametrize("args", [["--mask-schedule", "roundrobin"],
                                      ["--epsilon", "0.5"]], ids=["masks", "epsilon"])
    def test_lp_refuses_the_settings_it_ignores(self, runner, tmp_path, args):
        path = _write_fixture(tmp_path, "FX-P4")
        out = runner.invoke(main, ["solve", str(path), "--algorithm", "lp", *args])
        assert out.exit_code == 2, out.output
        assert "the lp variant takes no mask schedule and no epsilon > 0" in out.output
        assert "Traceback" not in out.output

    @pytest.mark.parametrize("algorithm", ["vi", "pi", "mpi"])
    @pytest.mark.parametrize("args, unread", [
        (["--mask-schedule", "roundrobin"], "mask schedule"),
        (["--epsilon", "0.5"], "epsilon > 0"),
        (["--clamp-lo", "0"], "clamp_lo"),
        (["--clamp-hi", "100"], "clamp_hi"),
        (["--bstrategy", "empty"], "B strategy but FullB"),
    ], ids=["masks", "epsilon", "clamp-lo", "clamp-hi", "bstrategy"])
    def test_vi_pi_mpi_refuse_the_settings_they_ignore(self, runner, tmp_path,
                                                       algorithm, args, unread):
        path = _write_fixture(tmp_path, "FX-D")
        out = runner.invoke(main, ["solve", str(path), "--algorithm", algorithm, *args])
        assert out.exit_code == 2, out.output
        assert f"takes no {unread}" in out.output
        assert "Traceback" not in out.output

    def test_ground_truth_of_the_wrong_length_is_a_parse_error(self, runner, tmp_path):
        fx = fixture("FX-P2")
        path = tmp_path / "bad.mdp"
        write_model(path, fx.model, (np.append(fx.Jstar, 0.0), fx.Qstar))
        out = runner.invoke(main, ["solve", str(path), "--algorithm", "vi"])
        assert out.exit_code == 2, out.output
        assert "parse error: ground_truth Jstar: 3 values, the model has 2" in out.output
        assert "broadcast" not in out.output

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

    @pytest.mark.parametrize("command, algorithm", [("solve", "--algorithm"),
                                                    ("compare", "--algorithms")])
    def test_starts_the_solver_refuses_are_usage_errors(self, runner, tmp_path,
                                                        command, algorithm):
        path = str(_write_fixture(tmp_path, "FX-P2"))
        negative = tmp_path / "neg.json"
        negative.write_text("[-1, 0]")
        # a J below zero in P; an infinite stop cost makes lp's program infeasible
        for args in (["--nk", "exact", "--j0", f"file:{negative}", algorithm, "mixed"],
                     ["--j0", "inf", algorithm, "lp"]):
            out = runner.invoke(main, [command, path, *args])
            assert out.exit_code == 2, (args, out.output)
            assert "Traceback" not in out.output

    @pytest.mark.parametrize("command, extra", [("solve", ["--algorithm", "vi"]),
                                                ("compare", [])])
    def test_bad_tolerance_is_usage_error(self, runner, tmp_path, command, extra):
        args = [command, str(_write_fixture(tmp_path, "FX-D")), *extra]
        for tol in ("abc", "nan", "0", "-1e-9"):
            out = runner.invoke(main, [*args, "--tol", tol])
            assert out.exit_code == 2, (tol, out.output)
            assert "Traceback" not in out.output
        out = runner.invoke(main, [*args, "--tol", "1e-8"])
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

    def test_tolerance_defaults_to_1e_9(self, runner, tmp_path):
        path = _write_fixture(tmp_path, "FX-D")
        iters = {}
        for tol in ([], ["--tol", "1e-9"], ["--tol", "1e-3"]):
            out = runner.invoke(main, ["solve", str(path), "--algorithm", "vi", *tol])
            assert out.exit_code == 0, out.output
            iters[tuple(tol)] = int(out.output.split("iterations: ")[1].split(",")[0])
        assert iters[()] == iters[("--tol", "1e-9")] > iters[("--tol", "1e-3")]


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
        for args in (*(["--algorithms", "vi,mpi", "--nk", nk] for nk in ("exact", "abc", "0")),
                     ["--algorithms", ""], ["--algorithms", " , "],
                     ["--algorithms", "vi,vi"], ["--algorithms", "vi, mixed ,vi"]):
            out = runner.invoke(main, ["compare", str(path), *args,
                                       "--trace-out", str(tmp_path / "t")])
            assert out.exit_code == 2, (args, out.output)
            assert "Traceback" not in out.output
            assert not list(tmp_path.glob("t.*.csv")), args

    def test_refused_run_leaves_no_trace_files(self, runner, tmp_path):
        # lp refuses the all-+inf start (its program is infeasible), after
        # vi has already run: no trace file may be left behind.
        path = _write_fixture(tmp_path, "FX-P2")
        prefix = tmp_path / "P"
        out = runner.invoke(main, ["compare", str(path), "--algorithms", "vi,lp",
                                   "--j0", "inf", "--trace-out", str(prefix)])
        assert out.exit_code == 2, out.output
        assert not (tmp_path / "P.vi.csv").exists()
        assert not list(tmp_path.glob("P.*"))
        out = runner.invoke(main, ["compare", str(path), "--algorithms", "vi,lp",
                                   "--trace-out", str(prefix)])
        assert out.exit_code == 0, out.output
        assert sorted(p.name for p in tmp_path.glob("P.*")) == ["P.lp.csv", "P.vi.csv"]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_trace_file_is_the_one_solve_writes(self, runner, tmp_path, algorithm):
        path = _write_fixture(tmp_path, "FX-P4")
        out = runner.invoke(main, ["compare", str(path), "--algorithms", algorithm,
                                   "--trace-out", str(tmp_path / "P")])
        assert out.exit_code == 0, out.output
        solo = tmp_path / "solve.csv"
        out = runner.invoke(main, ["solve", str(path), "--algorithm", algorithm,
                                   "--trace-out", str(solo)])
        assert out.exit_code == 0, out.output

        def timeless(trace):
            rows = [dataclasses.replace(row, wall_time=0.0) for row in trace.rows]
            return dataclasses.replace(trace, rows=rows)

        compared = read_trace(tmp_path / f"P.{algorithm}.csv")
        assert trace_to_csv(timeless(compared)) == trace_to_csv(timeless(read_trace(solo)))
        assert compared.model_hash == "7fa8dc1e70c628f8"  # test_kernels.FIXTURE_HASHES
        assert all(("J_snapshot" in row.extra) == (algorithm == "mixed")
                   for row in compared.rows)

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


# Every (algorithm, fixture) pair that the admission rule refuses: the
# atomic-only algorithms on an interval-control model, lp outside P.
REFUSED = [(a, "FX-P3a") for a in ("pi", "mpi", "mixed", "lp")] + [
    ("lp", "FX-D"), ("lp", "FX-N2")]


def test_greedy_mu0_takes_the_first_cheapest_control_of_each_state():
    # Uneven control counts, a tie and an infinite cost.
    def ctl(name, cost):
        return AtomicControl(name, cost, np.array([1.0, 0.0, 0.0]))
    model = TotalCostModel("P", 1.0, ((ctl("a", 2.0), ctl("b", 1.0), ctl("c", 1.0)),
                                      (ctl("d", 0.0),),
                                      (ctl("e", INF), ctl("f", 3.0))))
    policy = _parse_mu0("greedy", model)
    assert [policy.action_index(x) for x in range(3)] == [1, 0, 1]


class TestAdmission:
    @pytest.mark.parametrize("algorithm, name", REFUSED)
    def test_one_refusal_text_for_run_solve_and_compare(self, runner, tmp_path,
                                                        algorithm, name):
        model = fixture(name).model
        with pytest.raises(ValueError) as err:
            check_admits(algorithm, model)
        text = str(err.value)
        J0 = np.zeros(model.num_states)
        cfg = SolverConfig(algorithm=algorithm, J0=J0, Q0=np.zeros(model.num_pairs()),
                           initial_policy=Policy.deterministic(model, [0] * len(J0)))
        with pytest.raises(ValueError) as err:
            run(model, cfg)
        assert str(err.value) == text
        path = str(_write_fixture(tmp_path, name))
        for args in (["solve", path, "--algorithm", algorithm],
                     ["compare", path, "--algorithms", f"vi,{algorithm}"]):
            out = runner.invoke(main, args)
            assert out.exit_code == 2, (args, out.output)
            assert text in out.output

    def test_vi_is_admitted_everywhere(self):
        for name in ("FX-P3a", "FX-D", "FX-N2"):
            check_admits("vi", fixture(name).model)


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
