import math

import numpy as np
import pytest

import tlpsparse.bench as bench
from tlpsparse.bench import (CSV_HEADER, ExperimentPlan, SolverSpec,
                             parameter_sweep, run_experiment, run_trial,
                             sweep_to_csv, to_csv)


def tiny_plan(**over):
    base = dict(family="gaussian", M=16, N=32, param=0.0,
                sparsities=(1, 3), trials=3,
                solvers=(SolverSpec(method="tlp", a=1.0, p=0.7),),
                master_seed=7, timing=False)
    base.update(over)
    return ExperimentPlan(**base)


class TestPlanValidation:
    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            tiny_plan(sparsities=(3, 1))
        with pytest.raises(ValueError):
            tiny_plan(sparsities=())

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            tiny_plan(trials=0)

    @pytest.mark.parametrize("over", [
        {"M": 16.0}, {"N": 32.5}, {"trials": 3.0}, {"trials": True},
        {"sparsities": (1, 3.0)}, {"master_seed": 7.0},
        {"timing": 0}, {"sparsities": (0, 3)}, {"param": "0.5"},
        {"param": True}, {"threshold": True}, {"threshold": "0.1"},
        {"threshold": 0.0}])
    def test_rejects_coercible_numbers(self, over):
        with pytest.raises(ValueError, match=next(iter(over))):
            tiny_plan(**over)

    @pytest.mark.parametrize("a_grid, p_grid, named", [
        ([True], [0.7], "a_grid must be a number, got True"),
        ([1.0], ["0.7"], "p_grid must be a number, got '0.7'")])
    def test_rejects_coercible_grid_values(self, a_grid, p_grid, named):
        with pytest.raises(ValueError, match=named):
            parameter_sweep(a_grid, p_grid, 1, tiny_plan())

    def test_integral_floats_accepted(self):
        plan = tiny_plan(family="dct", param=1, threshold=1, sparsities=(1,),
                         trials=1)
        assert to_csv(run_experiment(plan)).splitlines()[1].split(",")[7] \
            == "1.0"
        assert parameter_sweep([1], [1], 1, plan)[0][:2] == (1.0, 1.0)

    def test_rejects_sparsity_at_or_above_n(self):
        with pytest.raises(ValueError, match="below N=32"):
            tiny_plan(sparsities=(1, 32))
        tiny_plan(sparsities=(1, 31), master_seed=0)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            tiny_plan(family="bernoulli")

    def test_rejects_bad_method(self):
        with pytest.raises(ValueError):
            SolverSpec(method="omp")


class TestRunExperiment:
    def test_easy_cell_succeeds(self):
        plan = tiny_plan(sparsities=(1,), trials=5)
        result = run_experiment(plan)
        assert result.cells[0].success_rate == 1.0
        assert result.cells[0].trials == 5

    def test_one_sparse_at_full_scale(self):
        plan = tiny_plan(M=64, N=256, sparsities=(1,), trials=5)
        result = run_experiment(plan)
        assert result.cells[0].success_rate == 1.0

    def test_dct_family(self):
        plan = tiny_plan(family="dct", M=20, N=60, param=2.0,
                         sparsities=(1,), trials=4,
                         solvers=(SolverSpec(method="tlp", a=1.0, p=1.0),))
        result = run_experiment(plan)
        assert result.cells[0].success_rate == 1.0

    def test_deterministic_csv(self):
        plan = tiny_plan()
        c1 = to_csv(run_experiment(plan))
        c2 = to_csv(run_experiment(plan))
        assert c1 == c2
        assert c1.splitlines()[0] == CSV_HEADER

    def test_schedule_independence(self):
        plan = tiny_plan(trials=4)
        serial = to_csv(run_experiment(plan, workers=1))
        parallel = to_csv(run_experiment(plan, workers=4))
        assert serial == parallel

    def test_row_order(self):
        plan = tiny_plan(solvers=(SolverSpec(method="tlp", a=1.0, p=0.7),
                                  SolverSpec(method="lq", q=0.5)))
        lines = to_csv(run_experiment(plan)).splitlines()[1:]
        solvers = [ln.split(",")[0] for ln in lines]
        sparsities = [int(ln.split(",")[8]) for ln in lines]
        assert solvers == sorted(solvers, key=solvers.index)
        assert sparsities == [1, 3, 1, 3]

    def test_failed_trial_recorded_not_raised(self, monkeypatch):
        calls = {"n": 0}
        real = bench.irls_tlp

        def flaky(A, y, params, cfg):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("synthetic solver crash")
            return real(A, y, params, cfg)

        monkeypatch.setattr(bench, "irls_tlp", flaky)
        plan = tiny_plan(sparsities=(1,), trials=3)
        result = run_experiment(plan)
        rels = [r.rel_err for r in result.records]
        assert math.inf in rels
        assert result.cells[0].trials == 3
        assert result.cells[0].successes == 2

    def test_success_threshold_contract(self):
        plan = tiny_plan(sparsities=(1,), trials=4)
        for rec in run_experiment(plan).records:
            assert rec.success == (rec.rel_err < plan.threshold)

    def test_master_seed_changes_instances(self):
        r1 = run_trial(tiny_plan(), tiny_plan().solvers[0], 3, 0)
        r2 = run_trial(tiny_plan(master_seed=8), tiny_plan().solvers[0], 3, 0)
        assert r1.seed != r2.seed

    def test_specs_sharing_a_canonical_id_get_their_own_rows(self):
        # same seeds (instances), different schedules: one row each
        cap1 = SolverSpec(method="tlp", label="cap1", outer_max=1)
        full = SolverSpec(method="tlp", label="full")
        both = run_experiment(tiny_plan(sparsities=(3,),
                                        solvers=(cap1, full)))
        alone = run_experiment(tiny_plan(sparsities=(3,), solvers=(full,)))
        assert [c.trials for c in both.cells] == [3, 3]
        assert both.cells[1] == alone.cells[0]
        assert both.cells[0].successes < both.cells[1].successes
        assert [r.seed for r in both.records[:3]] == \
            [r.seed for r in both.records[3:]]


class TestSweep:
    def test_degenerate_grid_matches_experiment_cell(self):
        plan = tiny_plan(sparsities=(2,), trials=4)
        rows = parameter_sweep([1.0], [0.7], 2, plan)
        cell = run_experiment(plan).cells[0]
        assert rows == [(1.0, 0.7, 2, cell.success_rate)]

    def test_deterministic(self):
        plan = tiny_plan(trials=2)
        rows1 = parameter_sweep([0.5, 1.0], [0.5, 1.0], 2, plan)
        rows2 = parameter_sweep([0.5, 1.0], [0.5, 1.0], 2, plan)
        assert rows1 == rows2

    def test_csv_shape(self):
        plan = tiny_plan(trials=2)
        rows = parameter_sweep([1.0], [0.5, 0.9], 2, plan)
        text = sweep_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "a,p,sparsity,success_rate"
        assert len(lines) == 3

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            parameter_sweep([], [0.5], 2, tiny_plan())


class TestCsvFormat:
    def test_lq_row_leaves_a_blank(self):
        plan = tiny_plan(sparsities=(1,), trials=1,
                         solvers=(SolverSpec(method="lq", q=0.5),))
        row = to_csv(run_experiment(plan)).splitlines()[1].split(",")
        assert row[1] == ""
        assert float(row[2]) == 0.5

    def test_infinite_mean_rel_err_serializes(self, monkeypatch):
        monkeypatch.setattr(bench, "irls_tlp",
                            lambda *a, **k: (_ for _ in ()).throw(RuntimeError))
        plan = tiny_plan(sparsities=(1,), trials=2)
        text = to_csv(run_experiment(plan))
        assert "inf" in text.splitlines()[1]
