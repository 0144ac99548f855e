"""Command-line interface: solve, bench, rip-bound, rd, gen-matrix.

File formats
------------
* matrices: the plain-text CSV of :mod:`tlpsparse.sensing` — header line
  "M,N", then M comma-separated rows, 17 significant digits (``%.17g``);
  the reader is numpy's C parser, so values read back bit for bit, and
  :func:`~tlpsparse.sensing.load_matrix_csv` lists the accepted forms;
* vectors: plain text, one value per line, values as in matrices
  (:func:`~tlpsparse.sensing.load_vector`);
* solve results: JSON with the recovered vector and all traces;
* bench plans: JSON (see README for the schema); the keys are the
  fields of :class:`~tlpsparse.bench.ExperimentPlan`, with its defaults,
  plus ``kind`` and, in sweep plans only, the sweep keys; unknown keys are
  rejected so typos fail loudly.

Exit codes: 0 solver/tool completed (regardless of convergence status),
2 usage or input error, 3 dimension mismatch.  Bench runs its trials
serially.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import MISSING, fields

import numpy as np

from . import bench as bench_mod
from .penalty import PenaltyParams, relaxation_degree
from .sensing import (gen_dct, gen_gaussian, load_matrix_csv, load_vector,
                      save_matrix_csv)
# irls_* are not called here; benchmarks/tracing.py wraps them at install
from .solver import (SolverConfig, irls_constrained,  # noqa: F401
                     irls_lq_baseline, irls_tlp)
from .theory import rip_bound, stability_constants


class DimensionError(ValueError):
    """Input shapes disagree; maps to exit code 3."""


# keys of sweep plans only, beyond the ExperimentPlan fields
_SWEEP_KEYS = ("a_grid", "p_grid", "sparsity")

# files and flags spell the field lam as "lambda"
_SPELLING = {"lam": "lambda"}
# solver-spec keys of plan files, mapped to SolverSpec fields
_SPEC_KEYS = {_SPELLING.get(f.name, f.name): f
              for f in fields(bench_mod.SolverSpec)}
# solve options (config keys and flags): the spec keys but label, plus s
_SOLVE_KEYS = {**{k: f for k, f in _SPEC_KEYS.items() if k != "label"},
               "s": next(f for f in fields(SolverConfig) if f.name == "s")}


def _reject_unknown(d: dict, allowed, what: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")


def _as_written(spelling: dict, build, **kwargs):
    """build(**kwargs); a ValueError names the field as the user spelled it."""
    try:
        return build(**kwargs)
    except ValueError as exc:
        name, sep, rest = str(exc).partition(" ")
        raise ValueError(spelling.get(name, name) + sep + rest) from None


def _write_text(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- solve

def _solve_spec(args) -> tuple[bench_mod.SolverSpec, int]:
    """Config file options overridden by explicit flags, as (spec, s)."""
    opts: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            opts = json.load(fh)
        if not isinstance(opts, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
    for key, f in _SOLVE_KEYS.items():
        if getattr(args, f.name) is not None:
            opts[key] = getattr(args, f.name)
    if "s" not in opts:
        raise ValueError("target sparsity --s is required")
    s = opts.pop("s")
    return _parse_spec(opts, _SOLVE_KEYS, "config"), s


def cmd_solve(args) -> int:
    spec, s = _solve_spec(args)
    A = load_matrix_csv(args.matrix)
    M, N = A.shape

    truth = None
    if args.truth:
        truth = load_vector(args.truth)
        if truth.size != N:
            raise DimensionError(
                f"truth vector has length {truth.size}, matrix has N={N}")
        y = A.entries @ truth
    elif args.measurements:
        y = load_vector(args.measurements)
        if y.size != M:
            raise DimensionError(
                f"measurement vector has length {y.size}, matrix has M={M}")
    else:
        raise ValueError("provide --truth or --measurements")
    if s >= N:
        raise DimensionError(f"s={s} must be below N={N}")

    t0 = time.perf_counter()
    result = bench_mod.solve(spec, A, y, s)
    elapsed_ms = (time.perf_counter() - t0) * 1e3

    payload = result.to_dict()
    payload["wall_time_ms"] = elapsed_ms
    payload["rel_err"] = (
        float(np.linalg.norm(result.x - truth) / np.linalg.norm(truth))
        if truth is not None and np.any(truth) else None)
    _write_text(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


# ---------------------------------------------------------------- bench

def _parse_spec(d: dict, keys=_SPEC_KEYS, what="solver spec"
                ) -> bench_mod.SolverSpec:
    """A SolverSpec from options keyed as written, among ``keys``."""
    _reject_unknown(d, keys, what)
    return _as_written(_SPELLING, bench_mod.SolverSpec,
                       **{keys[k].name: v for k, v in d.items()})


def parse_plan_file(path: str, trials=None, seed=None, threshold=None):
    """Load and validate a plan file; returns (kind, plan, raw dict).

    The optional arguments override the corresponding plan fields (the
    flag-beats-file rule).  Keys the file omits take the
    ``ExperimentPlan`` defaults.  The sweep keys belong to sweep plans
    only; a sweep runs at its one ``sparsity``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: plan must be a JSON object")
    plan_fields = fields(bench_mod.ExperimentPlan)
    names = [f.name for f in plan_fields]
    kind = raw.get("kind", "success_rate")
    if kind not in ("success_rate", "sweep"):
        raise ValueError(f"unknown plan kind {kind!r}")
    sweep_keys = _SWEEP_KEYS if kind == "sweep" else ()
    _reject_unknown(raw, names + ["kind", *sweep_keys], "plan")
    for key in sweep_keys:
        if key not in raw:
            raise ValueError(f"sweep plan requires {key!r}")

    opts = {k: raw[k] for k in names if k in raw}
    flags = {"trials": trials, "master_seed": seed, "threshold": threshold}
    opts.update((k, v) for k, v in flags.items() if v is not None)
    if "solvers" in opts:
        specs = opts["solvers"]
        if not (isinstance(specs, list)
                and all(isinstance(d, dict) for d in specs)):
            raise ValueError("solvers must be a list of objects")
        opts["solvers"] = tuple(_parse_spec(d) for d in specs)
    if kind == "sweep":
        opts["sparsities"] = [raw["sparsity"]]
    for f in plan_fields:
        if f.default is MISSING and f.name not in opts:
            raise ValueError(f"plan requires {f.name!r}")
    spelling = {"sparsities": "sparsity"} if kind == "sweep" else {}
    plan = _as_written(spelling, bench_mod.ExperimentPlan, **opts)
    return kind, plan, raw


def cmd_bench(args) -> int:
    kind, plan, raw = parse_plan_file(args.plan, trials=args.trials,
                                      seed=args.seed,
                                      threshold=args.threshold)
    if kind == "sweep":
        rows = bench_mod.parameter_sweep(
            raw["a_grid"], raw["p_grid"], plan.sparsities[0], plan)
        _write_text(bench_mod.sweep_to_csv(rows), args.out)
    else:
        result = bench_mod.run_experiment(plan)
        _write_text(bench_mod.to_csv(result), args.out)
    return 0


# ---------------------------------------------------------------- theory

def cmd_rip_bound(args) -> int:
    bound = rip_bound(PenaltyParams(args.a, args.p), args.gamma)
    payload = {"eta0": bound.eta0, "mu0": bound.mu0,
               "delta_bound": bound.delta_bound}
    if args.delta2s is not None:
        consts = stability_constants(bound, args.delta2s)
        payload.update({"C0": consts.c0, "C1": consts.c1, "C2": consts.c2})
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_rd(args) -> int:
    value = relaxation_degree(args.kind, PenaltyParams(args.a, args.p),
                              args.N)
    sys.stdout.write(f"{value!r}\n")
    return 0


def cmd_gen_matrix(args) -> int:
    if args.family == "gaussian":
        A = gen_gaussian(args.M, args.N, args.param, args.seed)
    else:
        A = gen_dct(args.M, args.N, args.param, args.seed)
    save_matrix_csv(A, args.out)
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlpsparse",
        description="Sparse recovery with the transformed-lp penalty")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="recover a signal from a matrix file")
    ps.add_argument("--matrix", required=True)
    vec = ps.add_mutually_exclusive_group()
    vec.add_argument("--truth", help="ground-truth vector file; y = A x")
    vec.add_argument("--measurements", help="measurement vector file")
    ps.add_argument("--config", help="JSON file with solver options")
    ps.add_argument("--out", help="write result JSON here (default stdout)")
    for key, f in _SOLVE_KEYS.items():
        kind = {"int": int, "float": float}.get(f.type)
        ps.add_argument("--" + key.replace("_", "-"), dest=f.name, type=kind,
                        choices=bench_mod.METHODS if key == "method" else None)
    ps.set_defaults(func=cmd_solve)

    pb = sub.add_parser("bench", help="run a success-rate plan file")
    pb.add_argument("--plan", required=True)
    pb.add_argument("--out", help="write CSV here (default stdout)")
    pb.add_argument("--trials", type=int)
    pb.add_argument("--seed", type=int)
    pb.add_argument("--threshold", type=float)
    pb.set_defaults(func=cmd_bench)

    pr = sub.add_parser("rip-bound", help="recovery bound and constants")
    pr.add_argument("--a", type=float, required=True)
    pr.add_argument("--p", type=float, required=True)
    pr.add_argument("--gamma", type=float, default=1.0)
    pr.add_argument("--delta2s", type=float)
    pr.set_defaults(func=cmd_rip_bound)

    pd = sub.add_parser("rd", help="relaxation degree of a penalty")
    pd.add_argument("--kind", choices=("tlp", "lp", "lap"), required=True)
    pd.add_argument("--a", type=float, required=True)
    pd.add_argument("--p", type=float, required=True)
    pd.add_argument("--N", type=int, required=True)
    pd.set_defaults(func=cmd_rd)

    pg = sub.add_parser("gen-matrix", help="generate a matrix CSV file")
    pg.add_argument("--family", choices=("gaussian", "dct"), required=True)
    pg.add_argument("--M", type=int, required=True)
    pg.add_argument("--N", type=int, required=True)
    pg.add_argument("--param", type=float, required=True)
    pg.add_argument("--seed", type=int, required=True)
    pg.add_argument("--out", required=True)
    pg.set_defaults(func=cmd_gen_matrix)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
