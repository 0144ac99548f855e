"""Success-rate experiment harness.

A plan names a matrix family, a sparsity grid, a trial count, and one or
more solver configurations; the harness runs every (solver, sparsity,
trial) cell with a fresh matrix and a fresh signal, counts recoveries
below the relative-error threshold, and emits one CSV row per cell under
the one fixed header ``CSV_HEADER``.  An (a, p) sweep is such a plan too,
with one tlp solver per grid point and one sparsity, and writes the same
table.

Trials run serially, in plan order.  Per-trial random streams are derived
from (master seed, canonical solver id, sparsity, trial index), so the
table is a pure function of the plan: re-running a plan file reproduces it
byte for byte (timing column aside — disable timing in the plan when byte
identity matters) as long as the BLAS build, its kernel set
(``OPENBLAS_CORETYPE``) and its thread count stay fixed: other kernels or
threads sum in a different order, which moves ``mean_rel_err`` in its
last digits.  On the a7 plan every trial's status and outer and inner
counts held across four kernel sets and 1 and 2 threads (README, "The
reproducibility contract").  The caller's memory layout does not matter,
since the solvers run on a SensingMatrix's C-ordered entries, and the
rank-k Gram update (``dsyrk``) is deterministic at a fixed thread count.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .penalty import PenaltyParams, _check_exponent
from .sensing import (_allocating, _check_family, derive_seed, gen_dct,
                      gen_gaussian, gen_signal)
from .solver import (Schedule, _check_number, _check_positive,
                     irls_constrained, irls_lq_baseline, irls_tlp)

CSV_HEADER = ("solver,a,p,kappa,family,M,N,param,sparsity,trials,"
              "successes,success_rate,mean_rel_err,mean_time_ms")

METHODS = ("tlp", "lq", "constrained")


@dataclass(frozen=True)
class SolverSpec(Schedule):
    """One solver column of an experiment: method, penalty, and the
    schedule knobs it inherits.  Invalid values raise ValueError here,
    before any trial runs."""

    method: str = "tlp"
    a: float = 1.0
    p: float = 0.7
    q: float = 0.5
    label: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        for name in ("a", "p", "q"):
            _check_number(name, getattr(self, name), integral=False)
        if self.method == "lq":
            _check_exponent("q", self.q)
        else:
            PenaltyParams(self.a, self.p)
        if not isinstance(self.label, (str, type(None))):
            raise ValueError(f"label must be a string or null, "
                             f"got {self.label!r}")
        if self.label and "," in self.label:
            raise ValueError("solver label must not contain commas")

    @property
    def canonical_id(self) -> str:
        # seed derivation keys off this, never off the display label;
        # comma-free so it can sit in the first CSV column
        if self.method == "lq":
            return f"lq(q={self.q:g};kappa={self.kappa:g})"
        return (f"{self.method}(a={self.a:g};p={self.p:g};"
                f"kappa={self.kappa:g})")

    @property
    def display(self) -> str:
        return self.label if self.label else self.canonical_id


@dataclass(frozen=True, kw_only=True)
class ExperimentPlan:
    """Full description of a success-rate experiment.  Invalid values
    raise ValueError here, before any trial runs.  The defaults are those
    of plan files, which the CLI reads through this class."""

    family: str
    M: int
    N: int
    param: float = 0.0
    sparsities: tuple[int, ...]
    trials: int = 20
    solvers: tuple[SolverSpec, ...] = (SolverSpec(),)
    threshold: float = 1e-3
    master_seed: int = 0
    timing: bool = True

    def __post_init__(self) -> None:
        for name in ("M", "N", "trials"):
            _check_positive(name, getattr(self, name), integral=True)
        _check_number("master_seed", self.master_seed, integral=True)
        _check_number("param", self.param, integral=False)
        with _allocating(self.M, self.N):  # gen-matrix's own checks
            _check_family(self.family, self.N, self.param, "param")
        _check_positive("threshold", self.threshold, integral=False)
        if not isinstance(self.timing, bool):
            raise ValueError(f"timing must be true or false, "
                             f"got {self.timing!r}")
        if not isinstance(self.sparsities, (list, tuple)):
            raise ValueError(f"sparsities must be a list of integers, "
                             f"got {self.sparsities!r}")
        sp = tuple(self.sparsities)
        for s in sp:
            _check_positive("sparsities", s, integral=True)
        if not sp or any(b <= a for a, b in zip(sp, sp[1:])):
            raise ValueError("sparsity grid must be nonempty and strictly "
                             "increasing")
        if sp[-1] >= self.N:
            raise ValueError(f"sparsities must be below N={self.N}, "
                             f"got {sp[-1]}")
        if not self.solvers:
            raise ValueError("at least one solver spec is required")
        object.__setattr__(self, "sparsities", sp)
        object.__setattr__(self, "solvers", tuple(self.solvers))


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    sparsity: int
    solver_id: str
    rel_err: float
    success: bool
    wall_time_ms: float
    outer_iters: int

    def __post_init__(self) -> None:
        if self.rel_err < 0:
            raise ValueError("rel_err must be nonnegative")


@dataclass(frozen=True)
class CellStats:
    spec: SolverSpec
    sparsity: int
    trials: int
    successes: int
    mean_rel_err: float
    mean_time_ms: float

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials


@dataclass
class ExperimentResult:
    plan: ExperimentPlan
    cells: list[CellStats]
    records: list[TrialRecord] = field(default_factory=list)


def solve(spec: SolverSpec, A, y, s: int):
    """Run the spec's solver on one problem at target sparsity s.

    The one method dispatch, for the harness and the CLI alike.  It looks
    the solvers up in this module's globals at call time, so patching
    ``bench.irls_*`` reaches both.  The spec is a ``Schedule``, so it
    goes to the solver as its knobs.
    """
    if spec.method == "lq":
        return irls_lq_baseline(A, y, spec.q, s, spec)
    params = PenaltyParams(spec.a, spec.p)
    if spec.method == "tlp":
        return irls_tlp(A, y, params, s, spec)
    return irls_constrained(A, y, params, s, spec)


def run_trial(plan: ExperimentPlan, spec: SolverSpec, sparsity: int,
              trial: int) -> TrialRecord:
    """One independent recovery attempt; never raises for solver failures."""
    mat_seed = derive_seed(plan.master_seed, spec.canonical_id, sparsity,
                           trial, 0)
    sig_seed = derive_seed(plan.master_seed, spec.canonical_id, sparsity,
                           trial, 1)
    gen = gen_gaussian if plan.family == "gaussian" else gen_dct
    A = gen(plan.M, plan.N, plan.param, mat_seed)
    truth = gen_signal(plan.N, sparsity, sig_seed)
    y = A.entries @ truth.vector
    t0 = time.perf_counter()
    try:
        result = solve(spec, A, y, sparsity)
        rel_err = float(np.linalg.norm(result.x - truth.vector)
                        / np.linalg.norm(truth.vector))
        outer = result.outer_iters
    except Exception:
        rel_err, outer = math.inf, 0
    elapsed_ms = (time.perf_counter() - t0) * 1e3 if plan.timing else 0.0
    if math.isnan(rel_err):
        rel_err = math.inf
    return TrialRecord(seed=mat_seed, sparsity=sparsity,
                       solver_id=spec.canonical_id, rel_err=rel_err,
                       success=rel_err < plan.threshold,
                       wall_time_ms=elapsed_ms, outer_iters=outer)


def run_experiment(plan: ExperimentPlan) -> ExperimentResult:
    """Run every cell of the plan, one trial after another.

    One cell per position in ``plan.solvers``: specs with equal canonical
    ids share instances but not rows.
    """
    cells, records = [], []
    for spec, sp in itertools.product(plan.solvers, plan.sparsities):
        recs = [run_trial(plan, spec, sp, t) for t in range(plan.trials)]
        records.extend(recs)
        cells.append(CellStats(
            spec=spec, sparsity=sp, trials=len(recs),
            successes=sum(r.success for r in recs),
            mean_rel_err=float(np.mean([r.rel_err for r in recs])),
            mean_time_ms=float(np.mean([r.wall_time_ms for r in recs]))))
    return ExperimentResult(plan=plan, cells=cells, records=records)


def _fmt(v: float) -> str:
    return repr(float(v))


def to_csv(result: ExperimentResult) -> str:
    """Pinned success-table format, one row per (solver, sparsity) cell."""
    plan = result.plan
    lines = [CSV_HEADER]
    for cell in result.cells:
        spec = cell.spec
        a = _fmt(spec.a) if spec.method != "lq" else ""
        p = _fmt(spec.p) if spec.method != "lq" else _fmt(spec.q)
        lines.append(",".join([
            spec.display, a, p, _fmt(spec.kappa),
            plan.family, str(plan.M), str(plan.N), _fmt(plan.param),
            str(cell.sparsity), str(cell.trials), str(cell.successes),
            _fmt(cell.success_rate), _fmt(cell.mean_rel_err),
            _fmt(cell.mean_time_ms)]))
    return "\n".join(lines) + "\n"

