import json
import math

import numpy as np
import pytest

from tlpsparse.cli import main
from tlpsparse.sensing import load_matrix_csv, save_matrix_csv


def write_vector(path, values):
    path.write_text("".join(f"{v!r}\n" for v in values))


@pytest.fixture
def identity_matrix(tmp_path):
    path = tmp_path / "eye4.csv"
    save_matrix_csv(np.eye(4), str(path))
    return path


class TestSolve:
    def test_identity_recovery(self, tmp_path, identity_matrix, capsys):
        y = tmp_path / "y.txt"
        write_vector(y, [3.0, 0.0, 0.0, 0.0])
        code = main(["solve", "--matrix", str(identity_matrix),
                     "--measurements", str(y), "--method", "tlp", "--s", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert np.allclose(payload["x"], [3.0, 0.0, 0.0, 0.0], atol=1e-3)
        assert payload["converged"] in ("sparsity_reached", "step_converged")

    def test_truth_gives_rel_err(self, tmp_path, identity_matrix, capsys):
        t = tmp_path / "x0.txt"
        write_vector(t, [0.0, 2.0, 0.0, 0.0])
        code = main(["solve", "--matrix", str(identity_matrix),
                     "--truth", str(t), "--s", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rel_err"] < 1e-3

    def test_constrained_method(self, tmp_path, identity_matrix, capsys):
        y = tmp_path / "y.txt"
        write_vector(y, [1.0, -2.0, 0.0, 0.5])
        code = main(["solve", "--matrix", str(identity_matrix),
                     "--measurements", str(y), "--method", "constrained",
                     "--s", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert np.allclose(payload["x"], [1.0, -2.0, 0.0, 0.5], atol=1e-8)
        assert payload["j_trace"] is not None

    def test_lq_method(self, tmp_path, identity_matrix, capsys):
        y = tmp_path / "y.txt"
        write_vector(y, [3.0, 0.0, 0.0, 0.0])
        code = main(["solve", "--matrix", str(identity_matrix),
                     "--measurements", str(y), "--method", "lq",
                     "--q", "0.5", "--s", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert np.allclose(payload["x"], [3.0, 0.0, 0.0, 0.0], atol=1e-3)

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(["solve", "--matrix", str(tmp_path / "nope.csv"),
                     "--s", "1"])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_invalid_a_exit_2(self, tmp_path, identity_matrix, capsys):
        y = tmp_path / "y.txt"
        write_vector(y, [1.0, 0.0, 0.0, 0.0])
        code = main(["solve", "--matrix", str(identity_matrix),
                     "--measurements", str(y), "--s", "1", "--a", "0"])
        assert code == 2
        assert "a must be positive" in capsys.readouterr().err

    def test_dimension_mismatch_exit_3(self, tmp_path, identity_matrix):
        y = tmp_path / "y.txt"
        write_vector(y, [1.0, 0.0, 0.0])
        code = main(["solve", "--matrix", str(identity_matrix),
                     "--measurements", str(y), "--s", "1"])
        assert code == 3

    def test_s_too_large_exit_3(self, tmp_path, identity_matrix):
        y = tmp_path / "y.txt"
        write_vector(y, [1.0, 0.0, 0.0, 0.0])
        code = main(["solve", "--matrix", str(identity_matrix),
                     "--measurements", str(y), "--s", "4"])
        assert code == 3

    def test_missing_s_exit_2(self, tmp_path, identity_matrix, capsys):
        y = tmp_path / "y.txt"
        write_vector(y, [1.0, 0.0, 0.0, 0.0])
        code = main(["solve", "--matrix", str(identity_matrix),
                     "--measurements", str(y)])
        assert code == 2

    @pytest.mark.parametrize("flag", ["--truth", "--measurements"])
    @pytest.mark.parametrize("text, says", [
        (b"1\nx\n0\n0\n", ":2: bad value 'x'"),
        (b"1\n\n1_0\n0\n0\n", ":3: bad value '1_0'"),
        (b"1\n0\xe9\n0\n0\n", ":2: bad value '0\ufffd'"),
        (b"1,0\n0\n0\n", ":1: expected 1 values, got 2"),
        (b"\n \n", "no values found in "),
        (b"1\nnan\n0\n0\n", ": values must be finite")],
        ids=["bad-value", "underscore", "non-ascii", "two-columns", "empty",
             "nan"])
    def test_bad_vector_file_names_path_and_line(
            self, tmp_path, identity_matrix, capsys, flag, text, says):
        vec = tmp_path / "v.txt"
        vec.write_bytes(text)
        code = main(["solve", "--matrix", str(identity_matrix), flag,
                     str(vec), "--s", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(vec) in err and says in err

    def test_truth_and_measurements_exclusive(self, tmp_path,
                                              identity_matrix, capsys):
        t = tmp_path / "x0.txt"
        write_vector(t, [0.0, 2.0, 0.0, 0.0])
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--matrix", str(identity_matrix), "--truth",
                  str(t), "--measurements", str(tmp_path / "nope.txt"),
                  "--s", "1"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_config_file_equals_flags(self, tmp_path, identity_matrix):
        y = tmp_path / "y.txt"
        write_vector(y, [3.0, 0.0, 0.0, 0.0])
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(
            {"method": "tlp", "a": 2.0, "p": 0.8, "s": 1, "lambda": 1e-5}))
        out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
        assert main(["solve", "--matrix", str(identity_matrix),
                     "--measurements", str(y), "--config", str(cfgfile),
                     "--out", str(out1)]) == 0
        assert main(["solve", "--matrix", str(identity_matrix),
                     "--measurements", str(y), "--method", "tlp",
                     "--a", "2", "--p", "0.8", "--s", "1",
                     "--lambda", "1e-5", "--out", str(out2)]) == 0
        p1 = json.loads(out1.read_text())
        p2 = json.loads(out2.read_text())
        p1.pop("wall_time_ms")
        p2.pop("wall_time_ms")
        assert p1 == p2

    def test_flags_override_config(self, tmp_path, identity_matrix, capsys):
        y = tmp_path / "y.txt"
        write_vector(y, [1.0, 0.0, 0.0, 0.0])
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"a": 0.0, "s": 1}))
        code = main(["solve", "--matrix", str(identity_matrix),
                     "--measurements", str(y), "--config", str(cfgfile),
                     "--a", "1.0"])
        assert code == 0

    def test_unknown_config_key_exit_2(self, tmp_path, identity_matrix,
                                        capsys):
        y = tmp_path / "y.txt"
        write_vector(y, [1.0, 0.0, 0.0, 0.0])
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"s": 1, "alpha": 3}))
        code = main(["solve", "--matrix", str(identity_matrix),
                     "--measurements", str(y), "--config", str(cfgfile)])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("opts, code, named", [
        ({"inner_max": 20.0}, 2, "inner_max"), ({"s": 1.0}, 2, "s"),
        ({"outer_max": "5"}, 2, "outer_max"), ({"lambda": 1}, 0, None)])
    def test_config_number_rule(self, tmp_path, identity_matrix, capsys,
                                opts, code, named):
        # int knobs take integers, float knobs any real number
        y = tmp_path / "y.txt"
        write_vector(y, [3.0, 0.0, 0.0, 0.0])
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"s": 1, **opts}))
        assert main(["solve", "--matrix", str(identity_matrix),
                     "--measurements", str(y), "--config", str(cfgfile)]) \
            == code
        if named:
            assert f"{named} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_lambda_named_as_written(self, tmp_path, identity_matrix,
                                     capsys, how):
        y = tmp_path / "y.txt"
        write_vector(y, [3.0, 0.0, 0.0, 0.0])
        args = ["solve", "--matrix", str(identity_matrix),
                "--measurements", str(y), "--s", "1"]
        if how == "flag":
            args.append("--lambda=-1e-6")
        else:
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps({"lambda": -1e-6}))
            args += ["--config", str(cfgfile)]
        assert main(args) == 2
        assert "lambda must be positive" in capsys.readouterr().err

    def test_config_lambda_with_flag_override(self, tmp_path,
                                              identity_matrix):
        # file and flags both spell lam as "lambda"; a flag beats the file
        y = tmp_path / "y.txt"
        write_vector(y, [3.0, 0.0, 0.0, 0.0])
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"s": 1, "lambda": 1e-3,
                                       "kappa": 2.0}))
        out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
        assert main(["solve", "--matrix", str(identity_matrix),
                     "--measurements", str(y), "--config", str(cfgfile),
                     "--lambda", "1e-5", "--kappa", "2.5",
                     "--out", str(out1)]) == 0
        assert main(["solve", "--matrix", str(identity_matrix),
                     "--measurements", str(y), "--s", "1",
                     "--lambda", "1e-5", "--kappa", "2.5",
                     "--out", str(out2)]) == 0
        p1 = json.loads(out1.read_text())
        p2 = json.loads(out2.read_text())
        p1.pop("wall_time_ms")
        p2.pop("wall_time_ms")
        assert p1 == p2

    def test_every_knob_has_a_flag_and_a_plan_key(self, tmp_path):
        from dataclasses import fields
        from tlpsparse.cli import build_parser, parse_plan_file
        from tlpsparse.solver import Schedule
        parser = build_parser()
        spec, want = {"method": "tlp"}, {}
        for f in fields(Schedule):
            key = "lambda" if f.name == "lam" else f.name
            value = f.default * 3  # valid, and not the default
            args = parser.parse_args(["solve", "--matrix", "A.csv",
                                      f"--{key.replace('_', '-')}",
                                      str(value)])
            assert getattr(args, f.name) == value
            spec[key] = want[f.name] = value
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"family": "gaussian", "M": 4, "N": 8,
                                    "sparsities": [1], "solvers": [spec]}))
        cfg = parse_plan_file(str(plan))[1].solvers[0].config(1)
        assert {name: getattr(cfg, name) for name in want} == want


class TestBench:
    def plan_dict(self):
        return {"family": "gaussian", "M": 16, "N": 32, "param": 0.0,
                "sparsities": [1, 2], "trials": 2, "master_seed": 5,
                "timing": False,
                "solvers": [{"method": "tlp", "a": 1.0, "p": 0.7}]}

    def test_plan_round_trip_identical(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(self.plan_dict()))
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(["bench", "--plan", str(plan), "--out", str(out1)]) == 0
        assert main(["bench", "--plan", str(plan), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_integer_plan_numbers_print_as_floats(self, tmp_path):
        d = {**self.plan_dict(), "family": "dct", "param": 1, "threshold": 1}
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(d))
        out = tmp_path / "r.csv"
        assert main(["bench", "--plan", str(plan), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].split(",")[7] == "1.0"

    def test_flag_overrides_trials(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(self.plan_dict()))
        out = tmp_path / "r.csv"
        assert main(["bench", "--plan", str(plan), "--out", str(out),
                     "--trials", "1"]) == 0
        rows = out.read_text().splitlines()[1:]
        assert all(row.split(",")[9] == "1" for row in rows)

    def test_unknown_plan_key_exit_2(self, tmp_path, capsys):
        d = self.plan_dict()
        d["matrix_family"] = "gaussian"
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(d))
        assert main(["bench", "--plan", str(plan)]) == 2
        assert "matrix_family" in capsys.readouterr().err

    def test_sweep_plan(self, tmp_path, capsys):
        d = self.plan_dict()
        d.update({"kind": "sweep", "a_grid": [1.0], "p_grid": [0.7],
                  "sparsity": 1})
        d.pop("sparsities")
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(d))
        assert main(["bench", "--plan", str(plan)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "a,p,sparsity,success_rate"

    def test_omitted_keys_take_the_plan_defaults(self, tmp_path):
        from tlpsparse.bench import ExperimentPlan
        from tlpsparse.cli import parse_plan_file
        d = {"family": "gaussian", "M": 16, "N": 32, "sparsities": [1]}
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(d))
        assert parse_plan_file(str(plan))[1] == ExperimentPlan(
            family="gaussian", M=16, N=32, sparsities=(1,))
        assert parse_plan_file(str(plan), trials=3, seed=4,
                               threshold=0.5)[1] == ExperimentPlan(
            family="gaussian", M=16, N=32, sparsities=(1,), trials=3,
            master_seed=4, threshold=0.5)

    @pytest.mark.parametrize("drop, named", [
        ("sparsities", "plan requires 'sparsities'"),
        ("family", "plan requires 'family'")])
    def test_missing_plan_key_exit_2(self, tmp_path, capsys, drop, named):
        d = self.plan_dict()
        d.pop(drop)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(d))
        assert main(["bench", "--plan", str(plan)]) == 2
        assert named in capsys.readouterr().err

    def test_scalar_sweep_grid_exit_2(self, tmp_path, capsys):
        d = {**self.plan_dict(), "kind": "sweep", "a_grid": 1.0,
             "p_grid": [0.7], "sparsity": 1}
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(d))
        assert main(["bench", "--plan", str(plan)]) == 2
        assert "a_grid must be a list of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("solvers", [{"method": "tlp"}, [["tlp"]],
                                         [{"method": "tlp"}, "lq"]])
    def test_solvers_must_be_a_list_of_objects(self, tmp_path, capsys,
                                               solvers):
        d = {**self.plan_dict(), "solvers": solvers}
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(d))
        assert main(["bench", "--plan", str(plan)]) == 2
        assert ("solvers must be a list of objects"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("extra, named", [
        ({"a_grid": [1.0]}, "a_grid"),
        ({"p_grid": [0.7]}, "p_grid"),
        ({"sparsity": 1}, "sparsity"),
        ({"sparsity": 1, "sparsities": None}, "sparsity"),  # no alias
        ({"a_grid": [1.0], "p_grid": [0.7], "sparsity": 1},
         "a_grid, p_grid, sparsity")])
    def test_sweep_keys_only_in_sweep_plans(self, tmp_path, capsys, extra,
                                            named):
        # a None value drops the key from the plan
        d = {k: v for k, v in {**self.plan_dict(), **extra}.items()
             if v is not None}
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(d))
        assert main(["bench", "--plan", str(plan)]) == 2
        assert (f"unknown plan key(s): {named}\n"
                in capsys.readouterr().err)

    def test_shipped_plans_parse(self):
        from pathlib import Path
        from tlpsparse.cli import parse_plan_file
        plan_dir = Path(__file__).resolve().parent.parent / "plans"
        files = sorted(plan_dir.glob("*.json"))
        assert files, "shipped plan files are missing"
        for path in files:
            kind, plan, raw = parse_plan_file(str(path))
            assert kind in ("success_rate", "sweep")
            assert plan.trials >= 1

    @pytest.mark.parametrize("bad, named", [
        ({"lambda": -1e-6}, "lambda must be positive"),
        ({"outer_max": 0}, "outer_max must be positive"),
        ({"method": "lq", "q": 2.0}, "q must lie in"),
        ({"inner_max": 20.0}, "inner_max must be an integer"),
        ({"c": float("nan")}, "c must be positive"),
        ({"a": True}, "a must be a number, got True"),
        ({"q": True}, "q must be a number, got True"),
        ({"method": "lq", "q": True}, "q must be a number, got True"),
        ({"p": "0.7"}, "p must be a number, got '0.7'"),
        ({"label": 5}, "label must be a string or null, got 5")])
    def test_invalid_spec_exit_2(self, tmp_path, capsys, bad, named):
        d = self.plan_dict()
        d["solvers"] = [{"method": "tlp", **bad}]
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(d))
        assert main(["bench", "--plan", str(plan)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("over, named", [
        ({"M": 12.9}, "M must be an integer, got 12.9"),
        ({"N": 32.0}, "N must be an integer, got 32.0"),
        ({"trials": 2.7}, "trials must be an integer, got 2.7"),
        ({"sparsities": [2.9]}, "sparsities must be an integer, got 2.9"),
        ({"master_seed": 1.5}, "master_seed must be an integer, got 1.5"),
        ({"master_seed": True}, "master_seed must be an integer, got True"),
        ({"timing": "false"}, "timing must be true or false, got 'false'"),
        ({"kind": "sweep", "a_grid": [1.0], "p_grid": [0.7],
          "sparsity": 2.9}, "sparsity must be an integer, got 2.9"),
        ({"sparsities": [2, 32]}, "sparsities must be below N=32, got 32"),
        ({"kind": "sweep", "a_grid": [1.0], "p_grid": [0.7],
          "sparsity": 40}, "sparsity must be below N=32, got 40"),
        ({"threshold": True}, "threshold must be a number, got True"),
        ({"threshold": 0}, "threshold must be positive"),
        ({"param": "0.0"}, "param must be a number, got '0.0'"),
        ({"kind": "sweep", "a_grid": [True], "p_grid": [0.7],
          "sparsity": 1}, "a_grid must be a number, got True"),
        ({"kind": "sweep", "a_grid": [1.0], "p_grid": ["0.7"],
          "sparsity": 1}, "p_grid must be a number, got '0.7'")])
    def test_bad_plan_numbers_exit_2(self, tmp_path, capsys, over, named):
        # checked before any trial runs, naming the key as written
        d = {**self.plan_dict(), **over}
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(d))
        out = tmp_path / "r.csv"
        assert main(["bench", "--plan", str(plan), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestTheoryCommands:
    def test_rip_bound_tl1(self, capsys):
        assert main(["rip-bound", "--a", "1", "--p", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta_bound"] == pytest.approx(0.57735, abs=1e-5)

    def test_rip_bound_sharp_limit(self, capsys):
        assert main(["rip-bound", "--a", "1e9", "--p", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta_bound"] == pytest.approx(0.70710, abs=1e-4)

    def test_rip_bound_with_constants(self, capsys):
        assert main(["rip-bound", "--a", "1", "--p", "1",
                     "--delta2s", "0.1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["C2"] == pytest.approx(2 * payload["C1"])

    def test_rip_bound_delta2s_too_big_exit_2(self, capsys):
        assert main(["rip-bound", "--a", "1", "--p", "1",
                     "--delta2s", "0.9"]) == 2

    def test_rd_values(self, capsys):
        assert main(["rd", "--kind", "lp", "--a", "1", "--p", "1",
                     "--N", "100"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.1)
        assert main(["rd", "--kind", "tlp", "--a", "5", "--p", "0.7",
                     "--N", "512"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(2.4e-3,
                                                               abs=0.05e-3)
        assert main(["rd", "--kind", "lap", "--a", "5", "--p", "0.7",
                     "--N", "512"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(2.5e-3,
                                                               abs=0.05e-3)


class TestGenMatrix:
    def test_deterministic_files(self, tmp_path):
        a1, a2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
        args = ["gen-matrix", "--family", "gaussian", "--M", "8", "--N", "16",
                "--param", "0.4", "--seed", "9"]
        assert main(args + ["--out", str(a1)]) == 0
        assert main(args + ["--out", str(a2)]) == 0
        assert a1.read_bytes() == a2.read_bytes()
        assert load_matrix_csv(str(a1)).shape == (8, 16)

    def test_r_out_of_range_exit_2(self, tmp_path):
        assert main(["gen-matrix", "--family", "gaussian", "--M", "4",
                     "--N", "8", "--param", "1.5", "--seed", "1",
                     "--out", str(tmp_path / "a.csv")]) == 2

    def test_dct_coherent_downstream(self, tmp_path):
        from tlpsparse.sensing import coherence
        out = tmp_path / "dct.csv"
        assert main(["gen-matrix", "--family", "dct", "--M", "100",
                     "--N", "1000", "--param", "20", "--seed", "3",
                     "--out", str(out)]) == 0
        assert coherence(load_matrix_csv(str(out))) >= 0.999
