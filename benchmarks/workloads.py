"""The benchmark's workloads and the output checks made on every op.

A workload runs in *rounds*.  Every round has the same fixed list of ops;
its inputs come from a round seed derived from (workload seed, round index),
so the same seed always gives the same inputs, and a run that stops after R
rounds has run exactly the ops of rounds 0..R-1.  An op is one
``tlpsparse.bench.run_trial`` call in ``desk`` and ``wide`` and one in-process
``tlpsparse.cli.main([...])`` call in ``files``.  Checks run outside the
timed region of an op.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from tlpsparse import bench, cli, penalty, sensing, theory
from tlpsparse.penalty import PenaltyParams

THRESHOLD = 1e-3  # rel_err below which a trial counts as recovered

SOLVER_NAMES = ("irls_tlp", "irls_lq_baseline", "irls_constrained")


@dataclass
class Op:
    label: str               # cell or command, e.g. "gaussian:tlp@24"
    method: str | None       # solver method of a solve op, else None
    round: int
    traced: bool
    wall: float              # seconds, measured outside every wrapper
    error: str | None        # raised, non-finite, non-zero exit or bad output
    recovered: bool | None   # solve ops only
    outer: int = 0           # outer iterations reported by the solver
    inner: int = 0           # inner iterations reported by the solver
    out_bytes: int = 0       # bytes the command wrote (files only)
    slot: int = 0            # position in its round; every run of one
                             # input has the same (round, slot)


class Log:
    """Ops in execution order; tags the tracer's spans with the op index."""

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self.tracer = None
        self.traced = False

    def begin(self) -> None:
        if self.tracer is not None:
            self.tracer.op = len(self.ops)

    def end(self) -> None:
        if self.tracer is not None:
            self.tracer.op = None


def round_seeds(seed: int, k: int, n: int = 1) -> list[int]:
    state = np.random.SeedSequence([seed, k]).generate_state(n, np.uint64)
    return [int(v) for v in state]


def _rel_err(x: np.ndarray, truth: np.ndarray) -> float:
    return float(np.linalg.norm(x - truth) / np.linalg.norm(truth))


# ------------------------------------------------------------ trial workloads

@dataclass(frozen=True)
class Cell:
    family: str
    param: float
    spec: bench.SolverSpec
    sparsities: tuple[int, ...]
    trials: int              # trials per round at each sparsity

    def label(self, s: int) -> str:
        return f"{self.family}:{self.spec.method}@{s}"


class TrialWorkload:
    """Success-rate trials through ``bench.run_experiment``, one plan per cell."""

    def __init__(self, M: int, N: int, cells: tuple[Cell, ...]):
        self.M, self.N, self.cells = M, N, cells

    def _plan(self, cell: Cell, master: int, trials: int | None = None):
        return bench.ExperimentPlan(
            family=cell.family, M=self.M, N=self.N, param=cell.param,
            sparsities=cell.sparsities, trials=trials or cell.trials,
            solvers=(cell.spec,), threshold=THRESHOLD, master_seed=master)

    def run_round(self, seed: int, k: int, log: Log, workdir: str) -> None:
        master = round_seeds(seed, k)[0]
        for cell in self.cells:
            with self._capture(log, k, cell):
                bench.run_experiment(self._plan(cell, master))

    def first_op(self, seed: int, k: int, log: Log, workdir: str) -> None:
        """The first trial of round k: first matrix and first solve."""
        cell = self.cells[0]
        plan = self._plan(cell, round_seeds(seed, k)[0], trials=1)
        with self._capture(log, k, cell):
            bench.run_trial(plan, cell.spec, cell.sparsities[0], 0)

    @contextmanager
    def _capture(self, log: Log, k: int, cell: Cell):
        """Time each run_trial call and keep what its output check needs.

        ``run_trial`` turns solver exceptions into rel_err = inf, so the
        solver entry points are wrapped to tell errors from failures.
        """
        seen: dict = {}
        inner_trial, inner_signal = bench.run_trial, bench.gen_signal
        solvers = {n: getattr(bench, n) for n in SOLVER_NAMES}

        def gen_signal(*args, **kwargs):
            seen["truth"] = inner_signal(*args, **kwargs)
            return seen["truth"]

        def catching(fn):
            def solve(*args, **kwargs):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    seen["error"] = f"raised {type(exc).__name__}"
                    raise
                seen["x"] = result.x
                seen["inner"] = result.total_inner_iters
                return result
            return solve

        def run_trial(plan, spec, sparsity, trial):
            seen.clear()
            log.begin()
            t0 = perf_counter()
            try:
                rec = inner_trial(plan, spec, sparsity, trial)
            except Exception as exc:
                rec = None
                seen["error"] = f"run_trial raised {type(exc).__name__}"
            wall = perf_counter() - t0
            log.end()
            log.ops.append(self._check(cell.label(sparsity), spec, rec, seen,
                                       wall, k, log.traced))
            if rec is None:
                rec = bench.TrialRecord(
                    seed=0, sparsity=sparsity, solver_id=spec.canonical_id,
                    rel_err=math.inf, success=False, wall_time_ms=0.0,
                    outer_iters=0)
            return rec

        patches = {"run_trial": run_trial, "gen_signal": gen_signal,
                   **{n: catching(fn) for n, fn in solvers.items()}}
        saved = {n: getattr(bench, n) for n in patches}
        try:
            for n, fn in patches.items():
                setattr(bench, n, fn)
            yield
        finally:
            for n, fn in saved.items():
                setattr(bench, n, fn)

    @staticmethod
    def _check(label, spec, rec, seen, wall, k, traced) -> Op:
        op = Op(label=label, method=spec.method, round=k, traced=traced,
                wall=wall, error=seen.get("error"), recovered=None)
        if op.error is not None:
            return op
        x, truth = seen.get("x"), seen.get("truth")
        if x is None or truth is None:
            op.error = "no solver result"
        elif not np.all(np.isfinite(x)):
            op.error = "non-finite x"
        else:
            rel = _rel_err(x, truth.vector)
            if rel != rec.rel_err:
                op.error = f"rel_err {rec.rel_err!r} != recomputed {rel!r}"
            elif rec.success != (rel < THRESHOLD):
                op.error = "success flag disagrees with rel_err"
            else:
                op.recovered = rec.success
                op.outer = rec.outer_iters
                op.inner = seen["inner"]
        return op


# ------------------------------------------------------------ files workload

class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class MatrixFile:
    tag: str
    family: str
    M: int
    N: int
    param: float
    s: int                   # sparsity of the solves on this file
    signals: int = 1         # ground-truth vectors solved for per round
    fail_s: int = 0          # if > 0: one uncapped tlp solve per round at
                             # this sparsity, past the transition


class FilesWorkload:
    """The CLI file route: gen-matrix, solve, rip-bound and rd, in a temp dir."""

    def __init__(self, matrices: tuple[MatrixFile, ...], a_grid, p_grid,
                 delta2s: float, rd_n: int):
        self.matrices = matrices
        self.a_grid, self.p_grid = tuple(a_grid), tuple(p_grid)
        self.delta2s, self.rd_n = delta2s, rd_n

    def run_round(self, seed: int, k: int, log: Log, workdir: str,
                  first_only: bool = False) -> None:
        seeds = iter(round_seeds(
            seed, k, sum(1 + m.signals + bool(m.fail_s)
                         for m in self.matrices)))
        for mat in self.matrices:
            csv = os.path.join(workdir, f"{mat.tag}.csv")
            gen = {"gaussian": sensing.gen_gaussian,
                   "dct": sensing.gen_dct}[mat.family]
            mat_seed = next(seeds)
            expected = gen(mat.M, mat.N, mat.param, mat_seed)
            self._op(log, k, f"gen:{mat.tag}", None,
                     ["gen-matrix", "--family", mat.family, "--M", str(mat.M),
                      "--N", str(mat.N), "--param", repr(mat.param),
                      "--seed", str(mat_seed), "--out", csv],
                     lambda text, e=expected.entries, p=csv:
                     self._check_csv(p, e))
            sparsities = ([mat.s] * mat.signals
                          + [mat.fail_s] * bool(mat.fail_s))
            for n, s in enumerate(sparsities):
                truth = sensing.gen_signal(mat.N, s, next(seeds)).vector
                xfile = os.path.join(workdir, f"{mat.tag}.truth.txt")
                with open(xfile, "w", encoding="ascii") as fh:
                    fh.write("".join(f"{v!r}\n" for v in truth.tolist()))
                failing = n == mat.signals
                for method in ("tlp",) if failing else ("constrained", "tlp"):
                    out = os.path.join(workdir, f"{mat.tag}.{method}.json")
                    self._op(log, k, f"solve:{mat.tag}:{method}"
                             + (f"@{s}" if failing else ""), method,
                             ["solve", "--matrix", csv, "--truth", xfile,
                              "--s", str(s), "--method", method,
                              "--out", out],
                             lambda text, o=out, t=truth:
                             self._check_solve(o, t))
                    if first_only:
                        return
        for a in self.a_grid:
            for p in self.p_grid:
                self._op(log, k, "rip-bound", None,
                         ["rip-bound", "--a", repr(a), "--p", repr(p),
                          "--delta2s", repr(self.delta2s)],
                         lambda text, a=a, p=p: self._check_rip(text, a, p))
        for a in self.a_grid:
            for p in self.p_grid:
                self._op(log, k, "rd", None,
                         ["rd", "--kind", "tlp", "--a", repr(a), "--p",
                          repr(p), "--N", str(self.rd_n)],
                         lambda text, a=a, p=p: self._check_rd(text, a, p))

    def first_op(self, seed: int, k: int, log: Log, workdir: str) -> None:
        """First matrix file of round k and the first solve on it."""
        self.run_round(seed, k, log, workdir, first_only=True)

    @staticmethod
    def _op(log: Log, k: int, label: str, method, argv, check) -> None:
        buf = io.StringIO()
        with redirect_stdout(buf):
            log.begin()
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:
                code = f"raised {type(exc).__name__}"
            wall = perf_counter() - t0
            log.end()
        text = buf.getvalue()
        op = Op(label=label, method=method, round=k, traced=log.traced,
                wall=wall, error=None, recovered=None,
                out_bytes=len(text.encode()))
        if code != 0:
            op.error = f"exit {code}"
        else:
            try:
                found = check(text)
            except (CheckFailed, OSError, ValueError, KeyError) as exc:
                op.error = f"{type(exc).__name__}: {exc}"
            else:
                for field, value in (found or {}).items():
                    setattr(op, field, value)
        log.ops.append(op)

    @staticmethod
    def _check_csv(path: str, expected: np.ndarray) -> None:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip()
        if header != f"{expected.shape[0]},{expected.shape[1]}":
            raise CheckFailed(f"bad header {header!r}")
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if not np.array_equal(back, expected):
            raise CheckFailed(f"{path} does not re-read bit-exactly")

    @staticmethod
    def _check_solve(out: str, truth: np.ndarray):
        with open(out, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        x = np.asarray(payload["x"], dtype=float)
        if x.shape != truth.shape or not np.all(np.isfinite(x)):
            raise CheckFailed("solution has the wrong length or is not finite")
        rel = _rel_err(x, truth)
        if payload["rel_err"] != rel:
            raise CheckFailed(f"rel_err {payload['rel_err']!r} != "
                              f"recomputed {rel!r}")
        return {"recovered": rel < THRESHOLD,
                "outer": payload["outer_iters"],
                "inner": payload["total_inner_iters"],
                "out_bytes": os.path.getsize(out)}

    def _check_rip(self, text: str, a: float, p: float) -> None:
        got = json.loads(text)
        bound = theory.rip_bound(PenaltyParams(a, p))
        consts = theory.stability_constants(bound, self.delta2s)
        want = {"eta0": bound.eta0, "mu0": bound.mu0,
                "delta_bound": bound.delta_bound,
                "C0": consts.c0, "C1": consts.c1, "C2": consts.c2}
        if got != want:
            raise CheckFailed(f"rip-bound --a {a} --p {p}: {got} != {want}")
        if a == 1.0 and p == 1.0:
            # closed form at p = 1: eta0 = sqrt(1 + K) - 1 with K = (a+1)/a,
            # delta = 1/sqrt(1 + (a+1)/a)
            if abs(got["eta0"] - (math.sqrt(3.0) - 1.0)) > 1e-12 or \
                    abs(got["delta_bound"] - 1.0 / math.sqrt(3.0)) > 1e-12:
                raise CheckFailed("rip-bound --a 1 --p 1 misses its closed form")

    def _check_rd(self, text: str, a: float, p: float) -> None:
        want = penalty.relaxation_degree("tlp", PenaltyParams(a, p), self.rd_n)
        if text != f"{want!r}\n":
            raise CheckFailed(f"rd --a {a} --p {p}: {text!r} != {want!r}")


# ------------------------------------------------------------ definitions

TLP = bench.SolverSpec(method="tlp", a=1.0, p=0.7, kappa=3.0, lam=1e-6)
LQ = bench.SolverSpec(method="lq", q=0.5, kappa=3.0, lam=1e-6)
CONSTRAINED = bench.SolverSpec(method="constrained", a=1.0, p=0.7, kappa=3.0)

# An uncapped failure at 256 x 1024 runs ~390 outer iterations (~14 s);
# the failing wide cells stop at this cap instead (~0.5 s).
WIDE_FAIL_OUTER_MAX = 10

WORKLOADS = {
    # 64 x 256 i.i.d. Gaussian at the acceptance cells: each inner step
    # factors 256 x 256 (direct route, 4M = N), so per-iteration Python
    # overhead and the f_w trace dominate; recovered and failed trials mix.
    # Run by hand, not listed in BENCHMARK.json: on a shared 2-vCPU host its
    # 30 s figures swung by more than the largest allowed bound (see the
    # README).
    "desk": TrialWorkload(64, 256, (
        Cell("gaussian", 0.0, TLP, (14,), 16),
        Cell("gaussian", 0.0, TLP, (24, 32), 1),
        Cell("gaussian", 0.0, LQ, (24,), 2),
        Cell("gaussian", 0.0, CONSTRAINED, (14,), 8),
        Cell("gaussian", 0.0, CONSTRAINED, (24,), 4),
    )),
    # 256 x 1024: every outer iteration factors 1024 x 1024, so BLAS
    # dominates; one recovering and one failing sparsity per family.  Two
    # Gaussian to one DCT recovered trial keeps the recovered p50 and p90
    # inside one family's spread instead of in the gap between the two; six
    # per round give ~50 recovered trials in 35 s, so that the p90 still has
    # several samples above it when the host runs slow.
    "wide": TrialWorkload(256, 1024, (
        Cell("gaussian", 0.0, TLP, (40,), 4),
        Cell("gaussian", 0.0, replace(TLP, outer_max=WIDE_FAIL_OUTER_MAX),
             (128,), 1),
        Cell("dct", 1.0, TLP, (40,), 2),
        Cell("dct", 1.0, replace(TLP, outer_max=WIDE_FAIL_OUTER_MAX),
             (128,), 1),
    )),
    # CSV text I/O, JSON output and argument parsing; the 100 x 1500 file is
    # the only solve on the Woodbury (M < N/4) route.  Two Gaussian signals
    # to one DCT signal per round put the recovered tlp p50 and p75 at the
    # Gaussian solves' p25 and p62.5, clear of the ~0.1 s DCT solves, whose
    # speed swings the most with the host's.  The uncapped tlp solve at
    # s = M fails in ~30 outer iterations (~0.2 s), so the unrecovered
    # median sees a change in how long failures iterate.
    "files": FilesWorkload(
        (MatrixFile("gaussian", "gaussian", 256, 1024, 0.0, 20, signals=2),
         MatrixFile("dct", "dct", 100, 1500, 1.0, 6, fail_s=100)),
        a_grid=(0.5, 1.0, 2.0, 5.0), p_grid=(0.5, 0.7, 1.0),
        delta2s=0.2, rd_n=512),
}

# Tiny shapes and few ops, for the benchmark's own tests.
SMOKE = {
    "desk": TrialWorkload(16, 48, (
        Cell("gaussian", 0.0, TLP, (2,), 2),
        Cell("gaussian", 0.0, TLP, (4, 12), 1),
        Cell("gaussian", 0.0, LQ, (4,), 1),
        Cell("gaussian", 0.0, CONSTRAINED, (2, 6), 1),
    )),
    "wide": TrialWorkload(24, 96, (
        Cell("gaussian", 0.0, TLP, (3,), 1),
        Cell("gaussian", 0.0, replace(TLP, outer_max=5), (16,), 1),
        Cell("dct", 1.0, TLP, (3,), 1),
        Cell("dct", 1.0, replace(TLP, outer_max=5), (16,), 1),
    )),
    "files": FilesWorkload(
        (MatrixFile("gaussian", "gaussian", 16, 64, 0.0, 2),
         MatrixFile("dct", "dct", 12, 96, 1.0, 2, signals=2, fail_s=12)),
        a_grid=(1.0,), p_grid=(0.7, 1.0), delta2s=0.2, rd_n=512),
}
