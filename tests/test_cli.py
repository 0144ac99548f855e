import io
import itertools
import json
import math
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tlpsparse
from tlpsparse import sensing
from tlpsparse.bench import (CSV_HEADER, METHODS, ExperimentPlan,
                             SolverSpec, run_experiment)
from tlpsparse.cli import _json_indented, build_parser, main, parse_plan_file
from tlpsparse.penalty import KINDS
from tlpsparse.sensing import (gen_gaussian, gen_signal, load_matrix_csv,
                               save_matrix_csv)
from tlpsparse.solver import Schedule


# a JSON integer too large for a float: not finite, so exit 2 naming its key
BIG = 10 ** 400


# what solve --out holds: str-keyed objects of nested lists of floats,
# integers, None and strings
JSON_PAYLOADS = st.recursive(
    st.none() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=5)
    | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=25)


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
        assert payload["status"] in ("sparsity_reached", "step_converged")

    def test_constrained_on_zero_matrix_exit_0(self, tmp_path, capsys):
        # the ridged step on A = 0 returns x = 0, not a LAPACK error
        A, y = tmp_path / "A.csv", tmp_path / "y.txt"
        save_matrix_csv(np.zeros((4, 8)), str(A))
        write_vector(y, [0.0] * 4)
        with pytest.warns(RuntimeWarning, match="ridge"):
            code = main(["solve", f"--matrix={A}", f"--measurements={y}",
                         "--s=2", "--method=constrained"])
        assert code == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["x"] == [0.0] * 8
        assert payload["status"] == "step_converged"

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
        code, out, err = run_main(["solve", "--matrix", str(identity_matrix),
                                   "--measurements", str(y), "--s", "1"])
        assert (code, out) == (3, "")
        assert err == "error: measurements has shape (3,), expected (4,)\n"

    def test_truth_length_mismatch_exit_3(self, tmp_path, identity_matrix):
        x0 = tmp_path / "x0.txt"
        write_vector(x0, [1.0, 0.0, 0.0, 0.0, 0.0])
        code, out, err = run_main(["solve", "--matrix", str(identity_matrix),
                                   "--truth", str(x0), "--s", "1"])
        assert (code, out) == (3, "")
        assert err == "error: truth has shape (5,), expected (4,)\n"

    def test_s_too_large_exit_3(self, tmp_path, identity_matrix):
        y = tmp_path / "y.txt"
        write_vector(y, [1.0, 0.0, 0.0, 0.0])
        code, out, err = run_main(["solve", "--matrix", str(identity_matrix),
                                   "--measurements", str(y), "--s", "4"])
        assert (code, out) == (3, "")
        assert err == "error: target sparsity s=4 must be below N=4\n"

    def test_missing_s_exit_2(self, tmp_path, identity_matrix, capsys):
        y = tmp_path / "y.txt"
        write_vector(y, [1.0, 0.0, 0.0, 0.0])
        code = main(["solve", "--matrix", str(identity_matrix),
                     "--measurements", str(y)])
        assert code == 2

    def test_s_too_large_for_a_float_exit_2(self, tmp_path, identity_matrix):
        y = tmp_path / "y.txt"
        write_vector(y, [1.0, 0.0, 0.0, 0.0])
        code, out, err = run_main(["solve", "--matrix", str(identity_matrix),
                                   "--measurements", str(y), "--s", str(BIG)])
        assert (code, out) == (2, "")
        assert err == "error: s must be positive and finite\n"

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
        ({"outer_max": "5"}, 2, "outer_max"), ({"lambda": 1}, 0, None),
        ({"s": "5"}, 2, "s"), ({"s": [2]}, 2, "s"),
        ({"lambda": BIG}, 2, "lambda"), ({"s": BIG}, 2, "s"),
        ({"a": BIG}, 2, "a")])
    def test_config_number_rule(self, tmp_path, identity_matrix, capsys,
                                opts, code, named):
        # int knobs take integers, float knobs any real number; an error
        # is one stderr line naming the key, with no traceback
        y = tmp_path / "y.txt"
        write_vector(y, [3.0, 0.0, 0.0, 0.0])
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"s": 1, **opts}))
        assert main(["solve", "--matrix", str(identity_matrix),
                     "--measurements", str(y), "--config", str(cfgfile)]) \
            == code
        out, err = capsys.readouterr()
        if named:
            assert out == "" and err.count("\n") == 1
            assert err.startswith(f"error: {named} must be ")
        if opts == {"lambda": BIG}:
            # a 400-digit integer is too large for a float, so not finite
            assert err == "error: lambda must be positive and finite\n"

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

    def test_hit_and_miss_write_the_same_json(self, tmp_path):
        # load_matrix_csv keeps the last matrix read: the first solve after
        # another file was read parses its matrix, the next one reuses it
        matrix, other = tmp_path / "a.csv", tmp_path / "b.csv"
        save_matrix_csv(gen_gaussian(16, 48, 0.0, seed=3), str(matrix))
        save_matrix_csv(np.eye(2), str(other))
        truth = tmp_path / "x0.txt"
        write_vector(truth, gen_signal(48, 3, seed=4).vector.tolist())
        for method in METHODS:
            outs = [tmp_path / f"{method}.{n}.json" for n in range(2)]
            load_matrix_csv(str(other))
            for out in outs:  # a miss, then a hit
                assert main(["solve", "--matrix", str(matrix), "--truth",
                             str(truth), "--s", "3", "--method", method,
                             "--out", str(out)]) == 0
            assert load_matrix_csv(str(matrix)) is load_matrix_csv(
                str(matrix))
            miss, hit = (without_wall_time(out.read_text()) for out in outs)
            assert len(miss) == len(outs[0].read_text().splitlines()) - 1
            assert miss == hit, method

    @pytest.mark.parametrize("method", METHODS)
    def test_solve_out_is_json_dumps_indent_2(self, tmp_path, method):
        # the bytes json.dumps(payload, indent=2) writes, nested traces
        # (tlp's inner_f_traces), None and strings included
        matrix, truth, out = (tmp_path / n for n in ("a.csv", "x0.txt",
                                                     "out.json"))
        save_matrix_csv(gen_gaussian(16, 48, 0.0, seed=3), str(matrix))
        write_vector(truth, gen_signal(48, 3, seed=4).vector.tolist())
        assert main(["solve", "--matrix", str(matrix), "--truth", str(truth),
                     "--s", "3", "--method", method, "--out", str(out)]) == 0
        text = out.read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2) + "\n"
        assert any(isinstance(v, list) and v and isinstance(v[0], list)
                   for v in payload.values()) == (method == "tlp")

    @settings(max_examples=300, deadline=None)
    @given(value=JSON_PAYLOADS)
    @example(value={"x": [], "t": [[], [1.5]], "n": None})
    @example(value=[[[]], [1, [2.5, "s"]], None])
    def test_json_writer_is_json_dumps_indent_2(self, value):
        assert _json_indented(value) == json.dumps(value, indent=2,
                                                   allow_nan=False)

    @pytest.mark.parametrize("value", [
        math.nan, [1.0, math.inf], {"x": [[0.5], [-math.inf]]}])
    def test_json_writer_rejects_what_json_dumps_would(self, value):
        with pytest.raises(ValueError):
            json.dumps(value, indent=2, allow_nan=False)
        with pytest.raises(ValueError):
            _json_indented(value)

    @pytest.mark.parametrize("method", METHODS)
    def test_solve_after_gen_matrix_parses_nothing(self, tmp_path, method):
        # gen-matrix holds the matrix it wrote, and the solve after it gets
        # that matrix; its JSON is the JSON of a solve that parses the file
        matrix, truth = tmp_path / "a.csv", tmp_path / "x0.txt"
        outs = [tmp_path / f"{n}.json" for n in range(2)]
        write_vector(truth, gen_signal(48, 3, seed=4).vector.tolist())
        assert main(["gen-matrix", "--family", "gaussian", "--M", "16",
                     "--N", "48", "--param", "0.0", "--seed", "3",
                     "--out", str(matrix)]) == 0
        held = sensing._last_read[1]
        solve = ["solve", "--matrix", str(matrix), "--truth", str(truth),
                 "--s", "3", "--method", method, "--out"]
        assert main(solve + [str(outs[0])]) == 0
        assert sensing._last_read[1] is held
        sensing._last_read = None
        assert main(solve + [str(outs[1])]) == 0
        assert sensing._last_read[1] is not held
        held_json, parsed_json = (without_wall_time(out.read_text())
                                  for out in outs)
        assert held_json == parsed_json

    def test_every_knob_has_a_flag_and_a_plan_key(self, tmp_path,
                                                  identity_matrix, capsys):
        from dataclasses import fields
        from tlpsparse.cli import build_parser, parse_plan_file
        from tlpsparse.solver import Schedule
        parser = build_parser()
        spec, want = {"method": "tlp"}, {}
        y = tmp_path / "y.txt"
        write_vector(y, [1.0, 0.0, 0.0, 0.0])
        solve = ["solve", "--matrix", str(identity_matrix),
                 "--measurements", str(y), "--s", "1"]
        cfg_file = tmp_path / "cfg.json"
        bad_plan = tmp_path / "bad.json"
        for f in fields(Schedule):
            key = "lambda" if f.name == "lam" else f.name
            flag = f"--{key.replace('_', '-')}"
            value = f.default * 3  # valid, and not the default
            args = parser.parse_args(["solve", "--matrix", "A.csv", flag,
                                      str(value)])
            assert getattr(args, f.name) == value
            spec[key] = want[f.name] = value
            # each entry point exits 2 on a bad value, naming the knob
            for bad in (0, -1, True, "1e-3"):
                bad_plan.write_text(json.dumps({
                    "family": "gaussian", "M": 4, "N": 8, "sparsities": [1],
                    "solvers": [{"method": "tlp", key: bad}]}))
                assert main(["bench", "--plan", str(bad_plan)]) == 2, key
                assert capsys.readouterr().err.startswith(f"error: {key} ")
                cfg_file.write_text(json.dumps({key: bad}))
                assert main(solve + ["--config", str(cfg_file)]) == 2, key
                assert capsys.readouterr().err.startswith(f"error: {key} ")
            for bad in ("0", "-1"):
                assert main(solve + [flag, bad]) == 2, key
                assert capsys.readouterr().err.startswith(f"error: {key} ")
            with pytest.raises(SystemExit) as exc:
                main(solve + [flag, "true"])
            assert exc.value.code == 2
            assert f"argument {flag}: invalid" in capsys.readouterr().err
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"family": "gaussian", "M": 4, "N": 8,
                                    "sparsities": [1], "solvers": [spec]}))
        cfg = parse_plan_file(str(plan)).solvers[0]
        assert {name: getattr(cfg, name) for name in want} == want


class TestBench:
    def plan_dict(self):
        # tlp at the spec defaults a = 1, p = 0.7, which a sweep plan's
        # entry may not set
        return {"family": "gaussian", "M": 16, "N": 32, "param": 0.0,
                "sparsities": [1, 2], "trials": 2, "master_seed": 5,
                "timing": False, "solvers": [{"method": "tlp"}]}

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
        # the success CSV: its header, then one row per grid point, a-major
        d = self.plan_dict()
        d.update({"kind": "sweep", "a_grid": [0.5, 1.0], "p_grid": [0.5, 1.0],
                  "sparsity": 1})
        d.pop("sparsities")
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(d))
        assert main(["bench", "--plan", str(plan)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert [ln.split(",")[1:3] + ln.split(",")[8:9]
                for ln in lines[1:]] == [
            [a, p, "1"] for a in ("0.5", "1.0") for p in ("0.5", "1.0")]

    def test_shipped_a7_plan_at_one_trial(self):
        # the phase-transition plan through main, with --trials overriding
        # its 20: the success CSV header, then one row per sparsity
        path = Path(__file__).resolve().parent.parent / "plans" / \
            "phase_transition_a7.json"
        code, out, err = run_main(["bench", "--plan", str(path),
                                   "--trials", "1"])
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == ("solver,a,p,kappa,family,M,N,param,sparsity,"
                            "trials,successes,success_rate,mean_rel_err,"
                            "mean_time_ms")
        assert [ln.split(",")[8:10] for ln in lines[1:]] == [["14", "1"],
                                                              ["32", "1"]]

    def test_omitted_keys_take_the_plan_defaults(self, tmp_path):
        from tlpsparse.bench import ExperimentPlan
        from tlpsparse.cli import parse_plan_file
        d = {"family": "gaussian", "M": 16, "N": 32, "sparsities": [1]}
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(d))
        assert parse_plan_file(str(plan)) == ExperimentPlan(
            family="gaussian", M=16, N=32, sparsities=(1,))
        assert parse_plan_file(str(plan), trials=3, seed=4,
                               threshold=0.5) == ExperimentPlan(
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
        d.pop("sparsities")
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(d))
        assert main(["bench", "--plan", str(plan)]) == 2
        assert "a_grid must be a list of numbers" in capsys.readouterr().err

    def sweep_dict(self):
        d = {**self.plan_dict(), "kind": "sweep", "a_grid": [1.0],
             "p_grid": [0.7], "sparsity": 1}
        d.pop("sparsities")
        return d

    @pytest.mark.parametrize("solvers, named", [
        ([{"method": "tlp"}, {"method": "tlp", "kappa": 2.0}],
         "solvers of a sweep plan must hold at most one entry, got 2"),
        ([{"method": "lq"}], "method of a sweep plan must be 'tlp', got 'lq'"),
        ([{"a": 2.0}], "a cannot be set in a sweep plan"),
        ([{"method": "tlp", "p": 0.5}], "p cannot be set in a sweep plan"),
        ([{"q": 0.5}], "q cannot be set in a sweep plan"),
        ([{"label": "x"}], "label cannot be set in a sweep plan")])
    def test_sweep_solver_entry_sets_schedule_knobs_only(
            self, tmp_path, capsys, solvers, named):
        # the grid makes the sweep's tlp specs; nothing is dropped silently
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({**self.sweep_dict(), "solvers": solvers}))
        assert main(["bench", "--plan", str(plan)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("grid, named", [
        ({"a_grid": [1.0, -2.0]},
         "error: a_grid must be positive and finite\n"),
        ({"p_grid": [0.7, 1.5]}, "error: p_grid must lie in (0, 1]\n")])
    def test_sweep_grid_range_error_names_the_grid(self, tmp_path, capsys,
                                                   grid, named):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({**self.sweep_dict(), **grid}))
        assert main(["bench", "--plan", str(plan)]) == 2
        assert capsys.readouterr().err == named

    def test_sweep_plan_solvers_are_its_grid(self):
        path = Path(__file__).resolve().parent.parent / "plans" / \
            "heat_sweep_s24.json"
        raw = json.loads(path.read_text())
        plan = parse_plan_file(str(path))
        assert plan.sparsities == (24,)
        assert plan.solvers == tuple(
            SolverSpec(method="tlp", a=a, p=p, kappa=3.0, lam=1e-6)
            for a, p in itertools.product(raw["a_grid"], raw["p_grid"]))
        assert len(plan.solvers) == 50

    def test_sweep_plan_is_the_plan_it_abbreviates(self, tmp_path):
        # a sweep plan and the ordinary plan listing its grid's entries at
        # the same family, shape, seed, trials and sparsity: equal cells
        knobs = {"kappa": 2.5, "lambda": 1e-5}
        sweep = {**self.sweep_dict(), "sparsity": 3, "a_grid": [0.5, 2.0],
                 "p_grid": [0.4, 1.0], "solvers": [knobs]}
        entries = [{"method": "tlp", "a": a, "p": p, **knobs}
                   for a in (0.5, 2.0) for p in (0.4, 1.0)]
        plain = {**self.plan_dict(), "sparsities": [3], "solvers": entries}
        cells = []
        for name, d in (("sweep", sweep), ("plain", plain)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(d))
            cells.append([(c.spec, c.sparsity, c.successes, c.mean_rel_err)
                          for c in run_experiment(
                              parse_plan_file(str(path))).cells])
        assert cells[0] == cells[1]
        assert len(cells[0]) == 4
        assert len({c[2:] for c in cells[0]}) > 1  # the grid points differ

    def test_overflowing_eps0_fails_before_any_trial(self, tmp_path, capsys,
                                                     monkeypatch):
        import tlpsparse.bench as bench
        calls = []
        monkeypatch.setattr(bench, "run_trial",
                            lambda *args: calls.append(args))
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({**self.plan_dict(), "solvers": [
            {"method": "lq", "eps0": 1e200, "kappa": 2.0}]}))
        assert main(["bench", "--plan", str(plan)]) == 2
        assert "error: eps0 ** kappa must be a finite float" in \
            capsys.readouterr().err
        assert calls == []

    def test_dct_param_too_small_for_n_fails_before_any_trial(
            self, tmp_path, capsys, monkeypatch):
        # sensing's family rule, applied when the plan is built, names the
        # plan key; gen-matrix names F (TestGenMatrix)
        import tlpsparse.bench as bench
        calls = []
        monkeypatch.setattr(bench, "run_trial",
                            lambda *args: calls.append(args))
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({**self.plan_dict(), "family": "dct",
                                    "param": 1e-320}))
        assert main(["bench", "--plan", str(plan)]) == 2
        assert capsys.readouterr().err == (
            "error: param is too small for N=32: the phases overflow, "
            "got 1e-320\n")
        assert calls == []

    def test_sweep_plan_rejects_sparsities(self, tmp_path, capsys):
        # a sweep runs at its one sparsity; a sparsities list is not used
        d = {**self.plan_dict(), "kind": "sweep", "a_grid": [1.0],
             "p_grid": [0.7], "sparsity": 2, "sparsities": [5, 9]}
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(d))
        assert main(["bench", "--plan", str(plan)]) == 2
        assert ("unknown plan key(s): sparsities\n"
                in capsys.readouterr().err)

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
            assert parse_plan_file(str(path)).trials >= 1

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
        ({"label": 5}, "label must be a string or null, got 5"),
        ({"a": BIG}, "a must be positive"),
        ({"lambda": BIG}, "lambda must be positive and finite"),
        ({"inner_max": BIG}, "inner_max must be positive and finite")])
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
          "sparsity": 2.9, "sparsities": None},
         "sparsity must be an integer, got 2.9"),
        ({"sparsities": [2, 32]}, "sparsities must be below N=32, got 32"),
        ({"kind": "sweep", "a_grid": [1.0], "p_grid": [0.7],
          "sparsity": 40, "sparsities": None},
         "sparsity must be below N=32, got 40"),
        ({"threshold": True}, "threshold must be a number, got True"),
        ({"threshold": 0}, "threshold must be positive"),
        ({"param": "0.0"}, "param must be a number, got '0.0'"),
        ({"kind": "sweep", "a_grid": [True], "p_grid": [0.7],
          "sparsity": 1, "sparsities": None},
         "a_grid must be a number, got True"),
        ({"kind": "sweep", "a_grid": [1.0], "p_grid": ["0.7"],
          "sparsity": 1, "sparsities": None},
         "p_grid must be a number, got '0.7'"),
        ({"family": "dct", "param": 0},
         "param must be positive and finite for family dct, got 0"),
        ({"family": "dct", "param": math.inf},
         "param must be positive and finite for family dct, got inf"),
        ({"param": 1.5},
         "param must lie in [0, 1) for family gaussian, got 1.5"),
        ({"param": math.inf},
         "param must lie in [0, 1) for family gaussian, got inf"),
        ({"kind": "sweep", "a_grid": [1.0], "p_grid": [0.7], "sparsity": 1,
          "sparsities": None, "family": "dct", "param": 0},
         "param must be positive and finite for family dct, got 0"),
        ({"kind": "sweep", "a_grid": [1.0], "p_grid": [0.7], "sparsity": 1,
          "sparsities": None, "param": 1.5},
         "param must lie in [0, 1) for family gaussian, got 1.5"),
        ({"threshold": BIG}, "threshold must be positive and finite"),
        ({"family": "dct", "param": BIG},
         "param must be positive and finite for family dct, got 1000"),
        ({"M": BIG}, "M must be positive and finite"),
        ({"sparsities": [2, BIG]}, "sparsities must be positive and finite"),
        ({"kind": "sweep", "a_grid": [BIG], "p_grid": [0.7], "sparsity": 1,
          "sparsities": None}, "a_grid must be positive"),
        ({"sparsities": 5}, "sparsities must be a list of integers, got 5"),
        ({"kind": "sweep", "a_grid": [1.0], "p_grid": [0.7], "sparsity": 1,
          "sparsities": None, "family": "dct", "param": 1e-320},
         "param is too small for N=32: the phases overflow, got 1e-320")])
    def test_bad_plan_numbers_exit_2(self, tmp_path, capsys, over, named):
        # checked before any trial runs, naming the key as written; a None
        # value drops the key from the plan
        d = {k: v for k, v in {**self.plan_dict(), **over}.items()
             if v is not None}
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(d))
        out = tmp_path / "r.csv"
        assert main(["bench", "--plan", str(plan), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["success_rate", "sweep"])
    @pytest.mark.parametrize("M, N", [(2 ** 32, 2 ** 32), (2, 2 ** 61)])
    def test_plan_too_large_fails_when_parsed(self, tmp_path, kind, M, N):
        # gen-matrix's size test, applied when the plan is built rather
        # than when its first trial generates the matrix
        d = {**self.plan_dict(), "M": M, "N": N}
        if kind == "sweep":
            del d["sparsities"], d["solvers"]
            d.update(kind="sweep", sparsity=1, a_grid=[1.0], p_grid=[0.7])
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=(
                f"an M x N matrix of floats does not fit in memory at "
                f"M={M}, N={N}")):
            parse_plan_file(str(plan))


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

    def test_rd_kinds_and_families_are_their_rules(self):
        # each choice list is the tuple its rule checks against
        commands = build_parser()._subparsers._group_actions[0].choices
        choices = {(cmd, action.dest): action.choices
                   for cmd in ("rd", "gen-matrix")
                   for action in commands[cmd]._actions}
        assert choices["rd", "kind"] is KINDS
        assert choices["gen-matrix", "family"] is sensing.FAMILIES


def run_main(argv):
    """cli.main in-process, as (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_fresh_parser(argv):
    """As run_main, but through a parser built for this call alone."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        args = build_parser().parse_args(argv)
        code = args.func(args)
    return code, out.getvalue(), err.getvalue()


def without_wall_time(text):
    """solve's indented JSON minus its one wall_time_ms line."""
    return [ln for ln in text.splitlines() if '"wall_time_ms"' not in ln]


class TestOneParserPerProcess:
    def test_reused_parser_acts_as_a_fresh_one(self, tmp_path,
                                               identity_matrix):
        y = tmp_path / "y.txt"
        write_vector(y, [0.0, 2.0, 0.0, 0.0])
        solve = ["solve", "--matrix", str(identity_matrix),
                 "--measurements", str(y), "--s", "1"]
        usage_errors = [
            ["rip-bound", "--a", "1"],
            ["solve", "--matrix", "A.csv", "--kappa", "x"],
            ["rd", "--kind", "l2", "--a", "1", "--p", "1", "--N", "4"],
            ["solve", "--matrix", "A.csv", "--truth", "x", "--measurements",
             "y"]]
        calls = [
            ["rip-bound", "--a", "1", "--p", "0.7", "--delta2s", "0.2"],
            ["rip-bound", "--a", "2", "--p", "1"],
            ["rd", "--kind", "lap", "--a", "5", "--p", "0.7", "--N", "512"],
            solve + ["--method", "lq", "--kappa", "5", "--lambda", "1e-4"],
            solve,
            ["rd", "--kind", "tlp", "--a", "5", "--p", "0.7", "--N", "512"]]
        for bad, argv in itertools.product(usage_errors, calls):
            said = []
            for parse in (main, build_parser().parse_args):
                err = io.StringIO()
                with redirect_stderr(err), pytest.raises(SystemExit) as exc:
                    parse(bad)
                assert exc.value.code == 2
                said.append(err.getvalue())
            assert said[0] == said[1] and said[0].startswith("usage: "), bad
            code, out, err = run_main(argv)
            want = run_fresh_parser(argv)
            assert (code, without_wall_time(out), err) == (
                want[0], without_wall_time(want[1]), want[2]), argv
        # what an earlier call set does not carry over
        assert "C0" not in json.loads(run_main(calls[1])[1])
        assert json.loads(run_main(solve)[1])["rel_err"] is None


# an exit-2 message names what it rejects, as "name must ..." or "name=..."
NAMES_A_PARAM = re.compile(r"\b(a|p|gamma|delta2s|N)( must|=)")


class TestTheoryCommandsNeverCrash:
    """rip-bound and rd give exit 0 with finite output or exit 2 naming
    the bad parameter, for any float flags (nan, inf and subnormals
    included) and any --N."""

    @pytest.mark.parametrize("gamma", ["nan", "inf", "1e308"])
    def test_gamma_that_is_not_finite_or_overflows_exit_2(self, gamma):
        code, out, err = run_main(["rip-bound", "--a", "1", "--p", "0.7",
                                   "--gamma", gamma])
        assert (code, out) == (2, "")
        assert "gamma" in err

    def test_overflowing_bisection_still_finds_the_root(self):
        code, out, _ = run_main(["rip-bound", "--a", "1e-300", "--p", "0.1"])
        assert code == 0
        assert 0.0 < json.loads(out)["eta0"] < math.inf

    def test_constant_that_overflows_exit_2(self):
        code, out, err = run_main(["rip-bound", "--a", "1e-20", "--p", "0.1",
                                   "--delta2s", "0.01"])
        assert (code, out) == (2, "")
        assert "a=1e-20, p=0.1, gamma=1.0, delta2s=0.01" in err

    @pytest.mark.parametrize("argv, want", [
        (["--kind", "lap", "--a", "1", "--p", "1e-3", "--N", "512"], 0.0),
        (["--kind", "tlp", "--a", "1e-17", "--p", "0.5", "--N", "1"], 1.0),
        (["--kind", "lap", "--a", "1e-17", "--p", "0.5", "--N", "1"], 1.0)])
    def test_rd_limits(self, argv, want):
        assert run_main(["rd", *argv]) == (0, f"{want!r}\n", "")

    @staticmethod
    def check(argv):
        code, out, err = run_main(argv)
        assert code in (0, 2), (argv, code, err)
        if code == 2:
            assert NAMES_A_PARAM.search(err), (argv, err)
        else:
            values = out.split() if argv[0] == "rd" else \
                json.loads(out).values()
            assert all(math.isfinite(float(v)) for v in values), (argv, out)

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(), p=st.floats(), gamma=st.none() | st.floats(),
           delta2s=st.none() | st.floats())
    def test_rip_bound(self, a, p, gamma, delta2s):
        argv = ["rip-bound", f"--a={a!r}", f"--p={p!r}"]
        for flag, v in (("gamma", gamma), ("delta2s", delta2s)):
            if v is not None:
                argv.append(f"--{flag}={v!r}")
        self.check(argv)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["tlp", "lp", "lap"]), a=st.floats(),
           p=st.floats(), N=st.integers())
    def test_rd(self, kind, a, p, N):
        self.check(["rd", f"--kind={kind}", f"--a={a!r}", f"--p={p!r}",
                    f"--N={N}"])


def strict_json(text):
    """json.loads that rejects NaN and infinities, as RFC 8259 does."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


# solve's float flags: the float knobs and the penalty parameters
FLOAT_FLAGS = [("lambda" if f.name == "lam" else f.name).replace("_", "-")
               for f in fields(Schedule) if f.type == "float"] + \
    ["a", "p", "q"]


class TestSolveNeverCrashes:
    """solve exits 0 with strict JSON, or exits 2 with a message and no
    output, for any float flags (nan, inf and subnormals included)."""

    @pytest.fixture(scope="class")
    def problem(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("fuzz")
        save_matrix_csv(gen_gaussian(6, 12, 0.0, seed=61), str(d / "A.csv"))
        write_vector(d / "x0.txt",
                     gen_signal(12, 2, seed=62).vector.tolist())
        return ["solve", f"--matrix={d / 'A.csv'}", f"--truth={d / 'x0.txt'}",
                "--s=2"]

    def test_overflowing_eps0_exit_2(self, problem):
        code, out, err = run_main(problem + ["--eps0=1e300"])
        assert (code, out) == (2, "")
        assert "eps0=1e+300, kappa=3.0" in err

    def test_nan_exit_2_and_no_out_file(self, problem, tmp_path):
        # a^3 underflows, and grad_phi_w divides 0 by 0 at x_i = 0; no
        # numpy warning precedes the message (any warning raises here)
        out = tmp_path / "o.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_main(problem + ["--a=1e-300", "--outer-max=5",
                                               f"--out={out}"])
        assert code == 2
        assert err.startswith("error: x holds a value that is not finite")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_constrained_weight_overflow_exit_2_and_no_out_file(self,
                                                                tmp_path):
        # (a+1) w overflows after the first step; the solve stops
        # not_finite, with no ridge warning and no LAPACK message
        A, x0, out = (tmp_path / name for name in ("A.csv", "x0.txt",
                                                   "o.json"))
        save_matrix_csv(gen_gaussian(32, 64, 0.0, seed=7), str(A))
        write_vector(x0, gen_signal(64, 4, seed=8).vector.tolist())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_main(["solve", f"--matrix={A}", f"--truth={x0}",
                                     "--s=4", "--method=constrained",
                                     "--a=1e308", f"--out={out}"])
        assert (code, err) == (2, "error: x holds a value that is not "
                                  "finite; the solve broke down at these "
                                  "settings\n")
        assert not out.exists()

    @settings(max_examples=200, deadline=None)
    @given(method=st.sampled_from(METHODS),
           flags=st.dictionaries(st.sampled_from(FLOAT_FLAGS), st.floats(),
                                 max_size=3),
           inner_max=st.integers(1, 5), outer_max=st.integers(1, 5))
    @example(method="tlp", flags={"eps0": 1e300}, inner_max=1, outer_max=1)
    @example(method="tlp", flags={"a": 1e-300}, inner_max=1, outer_max=1)
    def test_solve(self, problem, method, flags, inner_max, outer_max):
        argv = problem + [f"--method={method}", f"--inner-max={inner_max}",
                          f"--outer-max={outer_max}"]
        argv += [f"--{flag}={v!r}" for flag, v in flags.items()]
        code, out, err = run_main(argv)
        assert code in (0, 2), (argv, code, err)
        if code == 2:
            assert out == "" and err.startswith("error: "), (argv, err)
            assert len(err) > len("error: \n"), argv
        else:
            assert strict_json(out)["outer_iters"] <= outer_max, argv


# any JSON value: integers beyond the float range, NaN and infinities
# (which Python's json module reads), strings, and nested lists and objects
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.integers() | st.integers(-BIG, BIG),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6)
PLAN_KEYS = [f.name for f in fields(ExperimentPlan)] + \
    ["kind", "a_grid", "p_grid", "sparsity"]
SPEC_KEYS = [("lambda" if f.name == "lam" else f.name)
             for f in fields(SolverSpec)]
# the exceptions cli.main maps to an exit code instead of a traceback
EXIT_CODE_ERRORS = (ValueError, OSError)


class TestPlanFileNeverCrashes:
    """parse_plan_file returns a plan or raises an error that main maps
    to exit 2, whatever JSON values a plan's keys or its solver entry hold;
    it runs no trial."""

    BASES = {
        "success_rate": {"family": "gaussian", "M": 16, "N": 32,
                         "sparsities": [2]},
        "sweep": {"kind": "sweep", "family": "gaussian", "M": 16, "N": 32,
                  "sparsity": 2, "a_grid": [1.0], "p_grid": [0.7]}}

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("plans") / "plan.json"

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(sorted(BASES)),
           keys=st.dictionaries(st.sampled_from(PLAN_KEYS), JSON_VALUES,
                                max_size=3),
           entry=st.none() | st.dictionaries(st.sampled_from(SPEC_KEYS),
                                             JSON_VALUES, max_size=3))
    @example(kind="success_rate", keys={"threshold": BIG}, entry=None)
    @example(kind="success_rate", keys={"family": "dct", "param": BIG},
             entry=None)
    @example(kind="success_rate", keys={}, entry={"a": BIG})
    @example(kind="sweep", keys={"a_grid": [BIG]}, entry={"lambda": BIG})
    @example(kind="success_rate", keys={"sparsities": 5}, entry=None)
    def test_parse_plan_file(self, path, kind, keys, entry):
        plan = {**self.BASES[kind], **keys}
        if entry is not None:
            plan["solvers"] = [entry]
        path.write_text(json.dumps(plan))
        try:
            got = parse_plan_file(str(path))
        except EXIT_CODE_ERRORS:
            return
        assert isinstance(got, ExperimentPlan)


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

    @pytest.mark.parametrize("family, param, seed, named", [
        ("dct", "inf", "1",
         "F must be positive and finite for family dct, got inf"),
        ("dct", "nan", "1",
         "F must be positive and finite for family dct, got nan"),
        ("gaussian", "0.0", "-1",
         "seed must be a non-negative integer, got -1"),
        ("dct", "10", "-1", "seed must be a non-negative integer, got -1")])
    def test_bad_param_or_seed_exit_2(self, tmp_path, capsys, family, param,
                                      seed, named):
        out = tmp_path / "a.csv"
        assert main(["gen-matrix", "--family", family, "--M", "4", "--N", "8",
                     "--param", param, "--seed", seed,
                     "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    # more bytes than any address space holds, so allocation fails at once
    @pytest.mark.parametrize("family", ["gaussian", "dct"])
    @pytest.mark.parametrize("M, N", [(2 ** 55, 2), (2, 2 ** 55),
                                      (2 ** 55, 2 ** 55)])
    def test_matrix_too_large_exit_2(self, tmp_path, family, M, N):
        out = tmp_path / "a.csv"
        code, _, err = run_main(["gen-matrix", f"--family={family}",
                                 f"--M={M}", f"--N={N}", "--param=0.5",
                                 "--seed=1", f"--out={out}"])
        assert code == 2
        assert err == (f"error: an M x N matrix of floats does not fit in "
                       f"memory at M={M}, N={N}\n")
        assert not out.exists()

    @pytest.mark.parametrize("family, param", [
        ("gaussian", 1.5), ("gaussian", -0.1), ("gaussian", math.nan),
        ("dct", 0.0), ("dct", -math.inf), ("dct", 1e-320)])
    def test_gen_matrix_and_plan_share_the_family_rule(self, tmp_path,
                                                       family, param):
        # one rule in sensing, worded alike but for the key each wrote
        gen = run_main(["gen-matrix", f"--family={family}", "--M=4",
                        "--N=8", f"--param={param!r}", "--seed=1",
                        f"--out={tmp_path / 'a.csv'}"])
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"family": family, "M": 4, "N": 8,
                                    "param": param, "sparsities": [2]}))
        bench = run_main(["bench", f"--plan={plan}"])
        name = {"gaussian": "correlation r",
                "dct": "frequency parameter F"}[family]
        assert (gen[0], bench[0]) == (2, 2)
        assert gen[2].startswith(f"error: {name} ")
        assert bench[2].startswith("error: param ")
        assert gen[2][len(f"error: {name}"):] == \
            bench[2][len("error: param"):]

    def test_dct_phase_overflow_exit_2_without_warning(self, tmp_path):
        out = tmp_path / "a.csv"
        argv = ["gen-matrix", "--family=dct", "--M=4", "--N=8",
                "--param=1e-320", "--seed=1", f"--out={out}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_main(argv)
        assert code == 2
        assert err == ("error: frequency parameter F is too small for N=8: "
                       "the phases overflow, got 1e-320\n")
        # at N = 1 every phase is 0, whatever F
        assert main(argv[:3] + ["--N=1"] + argv[4:]) == 0
        assert load_matrix_csv(str(out)).shape == (4, 1)

    @settings(max_examples=200, deadline=None)
    @given(family=st.sampled_from(["gaussian", "dct"]),
           M=st.integers(1, 32), N=st.integers(1, 32), param=st.floats(),
           seed=st.integers())
    @example(family="dct", M=4, N=8, param=1e-320, seed=1)
    @example(family="gaussian", M=2 ** 55, N=2, param=0.5, seed=1)
    def test_gen_matrix_never_crashes(self, tmp_path_factory, family, M, N,
                                      param, seed):
        # exit 0 with an M x N file, or exit 2 with a message only
        out = tmp_path_factory.getbasetemp() / "fuzz_gen.csv"
        out.unlink(missing_ok=True)
        argv = ["gen-matrix", f"--family={family}", f"--M={M}", f"--N={N}",
                f"--param={param!r}", f"--seed={seed}", f"--out={out}"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run_main(argv)
        assert not caught, (argv, [str(w.message) for w in caught])
        assert stdout == "", argv
        if code == 0:
            assert err == "", argv
            assert load_matrix_csv(str(out)).shape == (M, N), argv
        else:
            assert code == 2, (argv, code, err)
            assert err.startswith("error: ") and "Traceback" not in err
            assert not out.exists(), argv

    def test_dct_coherent_downstream(self, tmp_path):
        from tlpsparse.sensing import coherence
        out = tmp_path / "dct.csv"
        assert main(["gen-matrix", "--family", "dct", "--M", "100",
                     "--N", "1000", "--param", "20", "--seed", "3",
                     "--out", str(out)]) == 0
        assert coherence(load_matrix_csv(str(out))) >= 0.999


def test_cli_import_leaves_out_scipy_optimize():
    # only irls_constrained(exact_update=True) needs scipy.optimize, and it
    # imports it on first use; every CLI process is spared the load
    src = str(Path(tlpsparse.__file__).resolve().parent.parent)
    code = ("import sys, tlpsparse, tlpsparse.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.optimize')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
