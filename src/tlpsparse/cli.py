"""Command-line interface: solve, bench, rip-bound, rd, gen-matrix.

File formats
------------
* matrices: the plain-text CSV of :mod:`tlpsparse.sensing` — header line
  "M,N", then M comma-separated rows, 17 significant digits (``%.17g``);
  the reader is numpy's C parser, so values read back bit for bit, and
  :func:`~tlpsparse.sensing.load_matrix_csv` lists the accepted forms
  and says how the last matrix read or written is kept, so that an
  unchanged file is parsed at most once per process;
* vectors: plain text, one value per line, values as in matrices
  (:func:`~tlpsparse.sensing.load_vector`);
* solve results: JSON with the recovered vector and all traces, the
  bytes of ``json.dumps(payload, indent=2)``;
* bench plans: JSON (see README for the schema); the keys are the
  fields of :class:`~tlpsparse.bench.ExperimentPlan`, with its defaults,
  plus ``kind``; unknown keys are rejected so typos fail loudly.  A sweep
  plan abbreviates an ordinary plan: its one ``sparsity`` stands for
  ``sparsities``, and each point of its (a, p) grid becomes a tlp solver
  entry made from its one solver entry, which sets schedule knobs only.

Exit codes: 0 solver/tool completed (regardless of convergence status),
2 usage or input error (a ``ValueError`` or ``OSError``), 3 a truth or
measurement length that is not the matrix's N or M, or s >= N (library
callers get ``tlpsparse.sensing.DimensionError`` for these).  Any other
exception is a bug and ends in a traceback.  ``solve`` exits 2 rather
than write a NaN or infinity.  Bench runs its trials serially.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time
from dataclasses import MISSING, fields

import numpy as np

from . import bench as bench_mod
from .penalty import KINDS, PenaltyParams, relaxation_degree
from .sensing import (FAMILIES, DimensionError, _as_vector, gen_dct,
                      gen_gaussian, load_matrix_csv, load_vector,
                      save_matrix_csv)
# irls_* are not called here; benchmarks/tracing.py wraps them at install
from .solver import (Schedule, irls_constrained,  # noqa: F401
                     irls_lq_baseline, irls_tlp)
from .theory import rip_bound, stability_constants


_PLAN_KEYS = [f.name for f in fields(bench_mod.ExperimentPlan)]
# keys of sweep plans only, which stand for sparsities and the solvers
_SWEEP_KEYS = ("a_grid", "p_grid", "sparsity")
# errors in the ordinary plan a sweep expands to name the sweep's keys
_SWEEP_SPELLING = {"sparsities": "sparsity", "a": "a_grid", "p": "p_grid"}

# files and flags spell the field lam as "lambda"
_SPELLING = {"lam": "lambda"}
# solver-spec keys of plan files, mapped to SolverSpec fields
_SPEC_KEYS = {_SPELLING.get(f.name, f.name): f
              for f in fields(bench_mod.SolverSpec)}
# solve options (config keys and flags): the spec keys but label; the
# target sparsity "s" is a solve argument, declared on its own
_SOLVE_KEYS = {k: f for k, f in _SPEC_KEYS.items() if k != "label"}
# keys of a sweep plan's solver entry, besides "method": "tlp"
_KNOB_KEYS = [_SPELLING.get(f.name, f.name) for f in fields(Schedule)]


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
    if args.s is not None:
        opts["s"] = args.s
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
        truth = _as_vector(load_vector(args.truth), N, "truth")
        y = A.entries @ truth
    elif args.measurements:
        y = _as_vector(load_vector(args.measurements), M, "measurements")
    else:
        raise ValueError("provide --truth or --measurements")

    t0 = time.perf_counter()
    result = bench_mod.solve(spec, A, y, s)
    elapsed_ms = (time.perf_counter() - t0) * 1e3

    payload = result.to_dict()
    payload["wall_time_ms"] = elapsed_ms
    payload["rel_err"] = (
        float(np.linalg.norm(result.x - truth) / np.linalg.norm(truth))
        if truth is not None and np.any(truth) else None)
    try:
        text = _json_indented(payload)
    except ValueError:  # a NaN or infinity; name the first key holding one
        key = next(k for k, v in payload.items() if not _finite(v))
        raise ValueError(f"{key} holds a value that is not finite; the "
                         f"solve broke down at these settings") from None
    _write_text(text + "\n", args.out)
    return 0


def _json_indented(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2, allow_nan=False)``, byte for byte,
    for str-keyed dicts, lists and scalars at nesting depth ``depth``.

    ``indent`` sends json.dumps to its pure-Python encoder, one call per
    value; here each list that holds no list or dict goes through the C
    encoder in one call, its item separator carrying the indentation.
    """
    pad = "\n" + "  " * (depth + 1)
    end = "\n" + "  " * depth
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + pad + ("," + pad).join(
            json.dumps(k) + ": " + _json_indented(v, depth + 1)
            for k, v in value.items()) + end + "}"
    if not isinstance(value, list):
        return json.dumps(value, allow_nan=False)
    if not value:
        return "[]"
    if any(map(isinstance, value, itertools.repeat((list, dict)))):
        return "[" + pad + ("," + pad).join(
            _json_indented(v, depth + 1) for v in value) + end + "]"
    flat = json.dumps(value, allow_nan=False, separators=("," + pad, ": "))
    return "[" + pad + flat[1:-1] + end + "]"


def _finite(value) -> bool:
    """No NaN or infinity in a float or a (nested) list of them."""
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


# ---------------------------------------------------------------- bench

def _parse_spec(d: dict, keys=_SPEC_KEYS, what="solver spec"
                ) -> bench_mod.SolverSpec:
    """A SolverSpec from options keyed as written, among ``keys``."""
    _reject_unknown(d, keys, what)
    return _as_written(_SPELLING, bench_mod.SolverSpec,
                       **{keys[k].name: v for k, v in d.items()})


def _expand_sweep(raw: dict) -> dict:
    """The ordinary plan that the sweep plan ``raw`` abbreviates.

    Its ``sparsity`` becomes ``sparsities: [sparsity]``, and each (a, p)
    point of its grid, a-major, the solver entry ``{**entry, "method":
    "tlp", "a": a, "p": p}``, with ``entry`` its one solver entry (none
    means the default schedule).  That entry may set ``"method": "tlp"``
    and the schedule knobs only: any other key would be overwritten or
    lost.  The values themselves are checked on the ordinary path.
    """
    _reject_unknown(raw, {*_PLAN_KEYS, *_SWEEP_KEYS} - {"sparsities"}, "plan")
    for key in _SWEEP_KEYS:
        if key not in raw:
            raise ValueError(f"sweep plan requires {key!r}")
    for key in ("a_grid", "p_grid"):
        if not (isinstance(raw[key], list) and raw[key]):
            raise ValueError(f"{key} must be a list of numbers (nonempty), "
                             f"got {raw[key]!r}")
    entries = raw.get("solvers") or [{}]
    if len(entries) > 1:
        raise ValueError(f"solvers of a sweep plan must hold at most one "
                         f"entry, got {len(entries)}")
    entry = entries[0]
    if entry.get("method", "tlp") != "tlp":
        raise ValueError(f"method of a sweep plan must be 'tlp', "
                         f"got {entry['method']!r}")
    for key in entry:
        if key not in ("method", *_KNOB_KEYS):
            raise ValueError(f"{key} cannot be set in a sweep plan, whose "
                             f"solver entry takes schedule knobs only")
    plan = {k: v for k, v in raw.items() if k not in _SWEEP_KEYS}
    plan["sparsities"] = [raw["sparsity"]]
    plan["solvers"] = [{**entry, "method": "tlp", "a": a, "p": p}
                       for a, p in itertools.product(raw["a_grid"],
                                                     raw["p_grid"])]
    return plan


def _build_plan(solvers=None, **opts) -> bench_mod.ExperimentPlan:
    if solvers is not None:
        opts["solvers"] = tuple(_parse_spec(d) for d in solvers)
    return bench_mod.ExperimentPlan(**opts)


def parse_plan_file(path: str, trials=None, seed=None, threshold=None):
    """Load and validate a plan file; returns the ExperimentPlan.

    The optional arguments override the corresponding plan fields (the
    flag-beats-file rule).  Keys the file omits take the
    ``ExperimentPlan`` defaults.  A sweep plan is first expanded to the
    ordinary plan it abbreviates (``_expand_sweep``), so every plan, and
    every solver entry, is checked and built on one path; its errors
    name the keys the sweep plan wrote.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: plan must be a JSON object")
    kind = raw.pop("kind", "success_rate")
    if kind not in ("success_rate", "sweep"):
        raise ValueError(f"unknown plan kind {kind!r}")
    specs = raw.get("solvers", [])
    if not (isinstance(specs, list)
            and all(isinstance(d, dict) for d in specs)):
        raise ValueError("solvers must be a list of objects")
    spelling = {}
    if kind == "sweep":
        raw, spelling = _expand_sweep(raw), _SWEEP_SPELLING
    _reject_unknown(raw, _PLAN_KEYS, "plan")
    flags = {"trials": trials, "master_seed": seed, "threshold": threshold}
    raw.update((k, v) for k, v in flags.items() if v is not None)
    for f in fields(bench_mod.ExperimentPlan):
        if f.default is MISSING and f.name not in raw:
            raise ValueError(f"plan requires {f.name!r}")
    return _as_written(spelling, _build_plan, **raw)


def cmd_bench(args) -> int:
    plan = parse_plan_file(args.plan, trials=args.trials, seed=args.seed,
                           threshold=args.threshold)
    _write_text(bench_mod.to_csv(bench_mod.run_experiment(plan)), args.out)
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
    gen = gen_gaussian if args.family == "gaussian" else gen_dct
    save_matrix_csv(gen(args.M, args.N, args.param, args.seed), args.out)
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
    ps.add_argument("--s", type=int)
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
    pd.add_argument("--kind", choices=KINDS, required=True)
    pd.add_argument("--a", type=float, required=True)
    pd.add_argument("--p", type=float, required=True)
    pd.add_argument("--N", type=int, required=True)
    pd.set_defaults(func=cmd_rd)

    pg = sub.add_parser("gen-matrix", help="generate a matrix CSV file")
    pg.add_argument("--family", choices=FAMILIES, required=True)
    pg.add_argument("--M", type=int, required=True)
    pg.add_argument("--N", type=int, required=True)
    pg.add_argument("--param", type=float, required=True)
    pg.add_argument("--seed", type=int, required=True)
    pg.add_argument("--out", required=True)
    pg.set_defaults(func=cmd_gen_matrix)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` uses, built on first use.  Parsing keeps
    no state in the parser: each call fills a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, DimensionError) else 2


if __name__ == "__main__":
    sys.exit(main())
