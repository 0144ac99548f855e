"""Double-loop solvers for transformed-lp regularized recovery.

The unconstrained solver minimizes

    Q(x) = lam * P(x) + 1/2 ||A x - y||^2

by an outer reweighting loop and an inner difference-of-convex loop:

* outer: freeze weights w_i = (x_i^2 + eps^kappa)^((p-2)/2), shrink the
  smoothing parameter eps in step with the (s+1)-th largest magnitude of
  the iterate, and stop when that tail magnitude stagnates or vanishes;
* inner: the weighted subproblem  lam (a+1) sum_i w_i x_i^2/(a+|x_i|^p)
  + 1/2 ||A x - y||^2  is convex but has no closed-form minimizer, so it
  is split as g - h with both parts strongly convex (modulus >= 2c) and
  solved by linearizing h; each step is one SPD linear solve, and the
  subproblem objective f_w is guaranteed nonincreasing along the way.

A constrained variant (min P(x) s.t. Ax = y) performs classical
reweighted least squares on a surrogate functional, and an IRLS-lq
baseline with the same outer schedule is provided for benchmark
comparisons.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, asdict
from numbers import Integral, Real
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError, null_space
from scipy.linalg.blas import dsyrk
from scipy.optimize import minimize

from .penalty import PenaltyParams, penalty_tlp, penalty_lp
from .sensing import _as_array


def _check_number(name: str, value, integral: bool) -> None:
    """Integers only if ``integral``, else any real number; bools are
    neither."""
    kind, what = (Integral, "an integer") if integral else (Real, "a number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {what}, got {value!r}")


def _check_positive(name: str, value, integral: bool) -> None:
    _check_number(name, value, integral)
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True, kw_only=True)
class Schedule:
    """The solver knobs, declared once: ``SolverConfig`` and
    ``bench.SolverSpec`` inherit them, and the CLI derives its flags and
    plan keys from them.

    ``c`` is the strong-convexity constant added to both halves of the DC
    split; it must stay well below lam * (a+1)/a * w for typical weights or
    the inner iteration contracts too slowly to be useful.  Every knob must
    be positive and finite; ``int`` knobs take integers only.
    """

    lam: float = 1e-6
    kappa: float = 3.0
    delta_scale: float = 2.0
    c: float = 1e-6
    eps0: float = 1.0
    inner_tol: float = 1e-8
    inner_max: int = 20
    outer_tol_step: float = 1e-8
    outer_tol_mag: float = 1e-8
    outer_max: int = 2000

    def __post_init__(self) -> None:
        for f in fields(Schedule):
            _check_positive(f.name, getattr(self, f.name), f.type == "int")


@dataclass(frozen=True)
class SolverConfig(Schedule):
    """The schedule knobs of one solve, plus its target sparsity.

    ``s`` is the sparsity the eps schedule targets (the tail magnitude
    r(x)_{s+1} drives both the eps update and the stopping tests).
    """

    s: int

    def __post_init__(self) -> None:
        _check_positive("s", self.s, integral=True)
        super().__post_init__()


def _weights(x: np.ndarray, eps: float, kappa: float,
             exponent: float) -> np.ndarray:
    """IRLS weights (x_i^2 + eps^kappa)^((exponent-2)/2)."""
    return (x * x + eps ** kappa) ** ((exponent - 2.0) / 2.0)


@dataclass
class SolveResult:
    """Outcome of one solver run, with enough traces to audit it.

    ``objective_trace`` holds the solver's own objective per outer
    iteration (Q for the regularized solvers, the penalty value for the
    constrained one); ``j_trace`` is only filled by the constrained
    solver and holds the surrogate functional at matched weights.
    ``converged`` is one of ``sparsity_reached``, ``step_converged``,
    ``max_iters``.
    """

    solver: str
    x: np.ndarray
    outer_iters: int
    total_inner_iters: int
    final_eps: float
    converged: str
    residual: float
    objective_trace: list[float] = field(default_factory=list)
    j_trace: list[float] | None = None
    eps_trace: list[float] = field(default_factory=list)
    w_inf_trace: list[float] = field(default_factory=list)
    inner_f_traces: list[list[float]] | None = None
    final_grad_inf: float | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["x"] = [float(v) for v in self.x]
        return d


@dataclass
class DcaResult:
    """Inner-loop outcome: last iterate, its residual y - A x as the SPD
    solve left it, and the recorded f_w values."""

    x: np.ndarray
    residual: np.ndarray
    f_trace: np.ndarray
    iters: int
    converged: bool


def tail_magnitude(x, s: int) -> float:
    """The (s+1)-th largest magnitude of x — distance from s-sparsity."""
    r = np.abs(np.asarray(x, dtype=float))
    k = r.size - (s + 1)
    if k < 0:
        raise IndexError(f"sparsity s={s} must be below len(x)={r.size}")
    return float(np.partition(r, k)[k])


def grad_phi_w(params: PenaltyParams, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of phi_w(x) = sum_i w_i |x_i|^(p+2) / (a (a + |x_i|^p)).

    Componentwise  w sign(x) |x|^(p+1) [(p+2) a + 2 |x|^p] / (a (a+|x|^p)^2),
    which is exactly 0 at x_i = 0 since p + 1 > 1.
    """
    a, p = params.a, params.p
    ax = np.abs(x)
    axp = ax ** p
    return w * np.sign(x) * ax ** (p + 1) * ((p + 2.0) * a + 2.0 * axp) \
        / (a * (a + axp) ** 2)


def phi_w(params: PenaltyParams, w: np.ndarray, x: np.ndarray) -> float:
    a, p = params.a, params.p
    ax = np.abs(x)
    return float(np.sum(w * ax ** (p + 2) / (a * (a + ax ** p))))


def _f_w_res(params: PenaltyParams, lam: float, w: np.ndarray, x: np.ndarray,
             res: np.ndarray) -> float:
    """f_w at x given its residual res = +-(A x - y)."""
    pen = np.sum(w * x * x / (params.a + np.abs(x) ** params.p))
    return float(lam * (params.a + 1.0) * pen + 0.5 * (res @ res))


def f_w_value(A, y, params: PenaltyParams, lam: float, w: np.ndarray,
              x: np.ndarray) -> float:
    """Weighted subproblem objective lam(a+1) sum w x^2/(a+|x|^p) + 1/2 res^2."""
    A = _as_array(A)
    return _f_w_res(params, lam, w, x, A @ x - y)


def grad_f_w(A, y, params: PenaltyParams, lam: float, w: np.ndarray,
             x: np.ndarray) -> np.ndarray:
    """Gradient of the weighted subproblem objective.

    Assembled from the DC split: (2 lam (a+1)/a) W x - lam (a+1) grad_phi_w
    plus the least-squares part.
    """
    A = _as_array(A)
    a = params.a
    lin = A.T @ (A @ x - y)
    return (2.0 * lam * (a + 1.0) / a) * w * x \
        - lam * (a + 1.0) * grad_phi_w(params, w, x) + lin


def _scaled_gram(A: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Upper triangle of (A * scale) @ A.T for scale >= 0; zeros below.

    One symmetric rank-N update on B = A * sqrt(scale): half the flops of
    the general product.  B^T goes to BLAS with trans=1 because for a
    C-ordered A it is already in Fortran order, so f2py makes no copy.
    """
    B = A * np.sqrt(scale)
    return dsyrk(1.0, B.T, trans=1)


def _cho_factor_spd(B: np.ndarray):
    """Cholesky factor of the SPD matrix B, read from its upper triangle.

    If B is numerically singular, a ridge of 1e-12 trace(B) is added to its
    diagonal in place, with a RuntimeWarning, and B is factored again.
    """
    try:
        return cho_factor(B, check_finite=False)
    except LinAlgError:
        warnings.warn("SPD system is numerically singular; adding a tiny "
                      "ridge", RuntimeWarning, stacklevel=3)
        B[np.diag_indices_from(B)] += 1e-12 * float(np.trace(B))
        return cho_factor(B, check_finite=False)


class _SpdSolver:
    """Solves (A^T A + diag(d)) x = A^T y + v in the m x m dual, d > 0.

    ``y`` is fixed at construction (0 when omitted) and ``solve(v)`` takes
    the rest of the right-hand side.  The factored matrix is
    G = I + A D^-1 A^T, and the solve runs in residual form: with
    r = y - A x,

        G r = y - A D^-1 v,    x = D^-1 (v + A^T r).

    The inversion-identity form u - D^-1 A^T G^-1 A u (u = D^-1 rhs)
    subtracts two vectors of size |D^-1 A^T y| to get x, which loses about
    log10(max 1/d) digits when some d are tiny, as on the support in every
    reweighting step.  The residual form computes the small r instead and
    keeps the backward error near machine precision there, at the same
    cost.  G is I plus a PSD matrix, so it is never singular.  For an
    M x N matrix, forming G takes M^2 N flops and factoring it M^3/3, also
    when M >= N.  After each ``solve`` the attribute ``residual`` holds
    y - A x, the dual's r.
    """

    def __init__(self, A: np.ndarray, d: np.ndarray,
                 y: np.ndarray | None = None):
        self._A = A
        self._y = np.zeros(A.shape[0]) if y is None else y
        self._dinv = 1.0 / d
        G = _scaled_gram(A, self._dinv)
        G[np.diag_indices_from(G)] += 1.0
        self._factor = _cho_factor_spd(G)

    def solve(self, v: np.ndarray) -> np.ndarray:
        r = cho_solve(self._factor, self._y - self._A @ (self._dinv * v),
                      check_finite=False)
        self.residual = r
        return self._dinv * (v + self._A.T @ r)


def dca_subproblem(A, y, params: PenaltyParams, w: np.ndarray,
                   cfg: SolverConfig) -> DcaResult:
    """Difference-of-convex iteration for the weighted subproblem, started
    at x = 0.

    Each step linearizes the concave part at the current iterate and
    solves one SPD system

        [A^T A + 2 c I + (2 lam (a+1)/a) W] x = A^T y + v,
        v = lam (a+1) grad_phi_w(x) + 2 c x.

    All steps share one factor of the m x m dual (``_SpdSolver``).
    Stops when the sup-norm step falls below inner_tol relative to the
    iterate scale, or at inner_max.  The recorded f_w values are
    nonincreasing (both split halves are strongly convex with modulus
    >= 2c).
    """
    A = _as_array(A)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    a = params.a
    lam, c = cfg.lam, cfg.c
    coef = 2.0 * lam * (a + 1.0) / a
    solver = _SpdSolver(A, 2.0 * c + coef * w, y=y)
    x, res = np.zeros(A.shape[1]), y
    trace = [_f_w_res(params, lam, w, x, res)]
    iters = 0
    converged = False
    for _ in range(cfg.inner_max):
        v = lam * (a + 1.0) * grad_phi_w(params, w, x) + 2.0 * c * x
        x_new = solver.solve(v)
        step = float(np.max(np.abs(x_new - x)))
        x = x_new
        res = solver.residual
        iters += 1
        trace.append(_f_w_res(params, lam, w, x, res))
        if step < cfg.inner_tol * max(float(np.max(np.abs(x))), 1.0):
            converged = True
            break
    return DcaResult(x=x, residual=res, f_trace=np.asarray(trace),
                     iters=iters, converged=converged)


def _problem(A, y, cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """A and y as float arrays, checked against each other and cfg.s."""
    A = _as_array(A)
    y = np.asarray(y, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    if y.ndim != 1 or y.size != A.shape[0]:
        raise ValueError(f"y has length {y.size}, expected {A.shape[0]}")
    if cfg.s >= A.shape[1]:
        raise ValueError(f"target sparsity s={cfg.s} must be below N={A.shape[1]}")
    if not (np.isfinite(A).all() and np.isfinite(y).all()):
        raise ValueError("A and y must be finite")
    return A, y


class _Reweighted(NamedTuple):
    x: np.ndarray
    w: np.ndarray | None  # weights of the last step; None if none was taken
    eps: float
    outer: int
    status: str
    eps_trace: list[float]
    w_inf_trace: list[float]


def _reweight(N: int, exponent: float, cfg: SolverConfig,
              step: Callable[[np.ndarray, np.ndarray, float], np.ndarray],
              stop_on_step: bool = False) -> _Reweighted:
    """The outer reweighting schedule that all three solvers share.

    Starts from x = 0 with eps = eps0.  Each outer iteration freezes the
    weights w = (x^2 + eps^kappa)^((exponent-2)/2), moves to
    ``step(x, w, eps)``, and pulls eps down to r(x)_{s+1} / delta_scale,
    the (s+1)-th largest magnitude over delta_scale (Daubechies, DeVore,
    Fornasier and Güntürk, CPAM 2010; Lai, Xu and Yin, SINUM 2013).  This
    caps the weights (||w||_inf <= eps^(-kappa(2-exponent)/2)) and anneals
    the surrogate toward the true penalty.  If eps^kappa reaches exactly
    zero the iterate is frozen.

    Statuses: ``sparsity_reached`` when r(x)_{s+1} < outer_tol_mag (or eps
    froze), ``step_converged`` when the iteration stalls, ``max_iters`` at
    outer_max.  The stall test is the one deliberate difference between
    the solvers.  By default the tail magnitude stagnates, |r - r_old| <
    outer_tol_step max(r_old, 1), tested after the sparsity test.  With
    ``stop_on_step`` the sup-norm step falls below outer_tol_step, tested
    first.
    """
    x = np.zeros(N)
    w = None
    eps = cfg.eps0
    tail_old = 0.0
    status = "max_iters"
    outer = 0
    eps_trace: list[float] = []
    w_inf_trace: list[float] = []
    for _ in range(cfg.outer_max):
        if eps ** cfg.kappa == 0.0:
            status = "sparsity_reached"
            break
        eps_trace.append(eps)
        w = _weights(x, eps, cfg.kappa, exponent)
        w_inf_trace.append(float(np.max(w)))
        x_old, x = x, step(x, w, eps)
        outer += 1
        tail = tail_magnitude(x, cfg.s)
        eps = min(eps, tail / cfg.delta_scale)
        if stop_on_step and np.max(np.abs(x - x_old)) < cfg.outer_tol_step:
            status = "step_converged"
            break
        if tail < cfg.outer_tol_mag:
            status = "sparsity_reached"
            break
        if not stop_on_step and (abs(tail - tail_old)
                                 < cfg.outer_tol_step * max(tail_old, 1.0)):
            status = "step_converged"
            break
        tail_old = tail
    return _Reweighted(x, w, eps, outer, status, eps_trace, w_inf_trace)


def irls_tlp(A, y, params: PenaltyParams, cfg: SolverConfig) -> SolveResult:
    """Outer reweighting loop (``_reweight``) around the DC inner solver.

    Each outer step is one ``dca_subproblem`` solve at the frozen weights.
    """
    A, y = _problem(A, y, cfg)
    obj_trace: list[float] = []
    inner_traces: list[list[float]] = []

    def dca_step(x, w, eps):
        inner = dca_subproblem(A, y, params, w, cfg)
        inner_traces.append([float(v) for v in inner.f_trace])
        res = inner.residual
        obj_trace.append(float(cfg.lam * penalty_tlp(params, inner.x)
                               + 0.5 * (res @ res)))
        return inner.x

    run = _reweight(A.shape[1], params.p, cfg, dca_step)
    grad_inf = float(np.max(np.abs(grad_f_w(
        A, y, params, cfg.lam, run.w, run.x)))) if run.outer else 0.0
    return SolveResult(
        solver=f"tlp(a={params.a:g},p={params.p:g})",
        x=run.x, outer_iters=run.outer,
        # an f trace holds the starting value plus one per inner iteration
        total_inner_iters=sum(len(t) - 1 for t in inner_traces),
        final_eps=run.eps, converged=run.status,
        residual=float(np.linalg.norm(A @ run.x - y)),
        objective_trace=obj_trace, eps_trace=run.eps_trace,
        w_inf_trace=run.w_inf_trace, inner_f_traces=inner_traces,
        final_grad_inf=grad_inf)


def j_closed_form(params: PenaltyParams, x: np.ndarray, eps: float,
                  kappa: float) -> float:
    """Surrogate functional at matched weights:
    (a+1) sum (x_i^2 + eps^kappa)^(p/2) / (a + |x_i|^p)."""
    a, p = params.a, params.p
    return float((a + 1.0) * np.sum(
        (x * x + eps ** kappa) ** (p / 2.0) / (a + np.abs(x) ** p)))


def j_functional(params: PenaltyParams, x: np.ndarray, omega: np.ndarray,
                 eps: float, kappa: float) -> float:
    """Full surrogate functional at arbitrary positive weights omega."""
    a, p = params.a, params.p
    num = (x * x + eps ** kappa) / (a + np.abs(x) ** p) ** (2.0 / p)
    return float(0.5 * p * (a + 1.0) * np.sum(
        num * omega + (2.0 - p) / p * omega ** (-p / (2.0 - p))))


def _constrained_ls(A: np.ndarray, y: np.ndarray, dvec: np.ndarray) -> np.ndarray:
    # min sum x_i^2 / dvec_i  s.t.  Ax = y, via x = D A^T (A D A^T)^{-1} y
    factor = _cho_factor_spd(_scaled_gram(A, dvec))
    return dvec * (A.T @ cho_solve(factor, y))


def _feasible_minimizer(A: np.ndarray, y: np.ndarray, params: PenaltyParams,
                        omega: np.ndarray, eps: float, kappa: float,
                        candidates: list[np.ndarray]) -> np.ndarray:
    # local minimization of the surrogate over {Ax = y}: parameterize the
    # feasible set by the null space, polish each candidate, keep the best
    a, p = params.a, params.p
    epspow = eps ** kappa
    Z = null_space(A)
    x_part, *_ = np.linalg.lstsq(A, y, rcond=None)
    if Z.shape[1] == 0:
        return x_part

    def value_grad(t: np.ndarray):
        xv = x_part + Z @ t
        ax = np.abs(xv)
        axp = ax ** p
        denom = (a + axp) ** (2.0 / p)
        u = xv * xv + epspow
        val = 0.5 * p * (a + 1.0) * float(np.sum(u / denom * omega))
        # d/dx of u/denom; the |x|^(p-1) factor is taken as 0 at x = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            axpm1 = np.where(ax > 0, ax ** (p - 1.0), 0.0)
        gx = 2.0 * xv / denom - 2.0 * u * axpm1 * np.sign(xv) / (
            (a + axp) * denom)
        gx *= 0.5 * p * (a + 1.0) * omega
        return val, Z.T @ gx

    best_x, best_val = None, np.inf
    for cand in candidates:
        t0 = Z.T @ (cand - x_part)
        out = minimize(value_grad, t0, jac=True, method="L-BFGS-B",
                       options={"maxiter": 200})
        for t in (out.x, t0):
            val = value_grad(t)[0]
            if val < best_val:
                best_val = val
                best_x = x_part + Z @ t
    return best_x


def irls_constrained(A, y, params: PenaltyParams, cfg: SolverConfig,
                     exact_update: bool = False) -> SolveResult:
    """Reweighted least squares for  min P(x)  s.t.  Ax = y.

    Runs the shared outer schedule (``_reweight``), stopping on an absolute
    step.  The default x-update freezes all weight denominators at the
    previous iterate and solves the resulting weighted least squares in
    closed form.  ``exact_update=True`` instead locally minimizes the
    surrogate functional over {Ax = y} (null-space parameterization,
    warm-started at the previous iterate and at the frozen-weight
    candidate, best kept), which guarantees the recorded surrogate values
    never increase.

    ``objective_trace`` records the penalty value per outer iterate and
    ``j_trace`` the matched surrogate value; both include the final point.
    """
    A, y = _problem(A, y, cfg)
    a, p = params.a, params.p
    j_trace: list[float] = []
    pen_trace: list[float] = []

    def ls_step(x, w, eps):
        j_trace.append(j_closed_form(params, x, eps, cfg.kappa))
        pen_trace.append(penalty_tlp(params, x))
        # hat-w = (a+1) w / (a + |x|^p), frozen at the current iterate
        frozen = _constrained_ls(A, y, (a + np.abs(x) ** p) / ((a + 1.0) * w))
        if not exact_update:
            return frozen
        # the minimizing weights of the surrogate at x; w is the driver's
        # (x^2 + eps^kappa)^((p-2)/2)
        omega = w * (a + np.abs(x) ** p) ** (2.0 / p - 1.0)
        # the zero start is not a candidate on the first step
        cands = [frozen] if len(j_trace) == 1 else [frozen, x]
        return _feasible_minimizer(A, y, params, omega, eps, cfg.kappa, cands)

    run = _reweight(A.shape[1], p, cfg, ls_step, stop_on_step=True)
    j_trace.append(j_closed_form(params, run.x, run.eps, cfg.kappa))
    pen_trace.append(penalty_tlp(params, run.x))
    return SolveResult(
        solver=f"constrained(a={a:g},p={p:g})",
        x=run.x, outer_iters=run.outer, total_inner_iters=0,
        final_eps=run.eps, converged=run.status,
        residual=float(np.linalg.norm(A @ run.x - y)),
        objective_trace=pen_trace, j_trace=j_trace,
        eps_trace=run.eps_trace + [run.eps])


def irls_lq_baseline(A, y, q: float, cfg: SolverConfig) -> SolveResult:
    """IRLS for  lam ||x||_q^q + 1/2 ||Ax - y||^2  with the same schedule.

    One ridge-regularized normal-equation solve per outer iteration with
    weights (x_i^2 + eps^kappa)^((q-2)/2); the eps update and stopping are
    the transformed-lp solver's (``_reweight``), which makes success-rate
    comparisons schedule-for-schedule fair.
    """
    if not (0 < q <= 1):
        raise ValueError("q must lie in (0, 1]")
    A, y = _problem(A, y, cfg)
    zero = np.zeros(A.shape[1])
    obj_trace: list[float] = []

    def ridge_step(x, w, eps):
        spd = _SpdSolver(A, 2.0 * cfg.lam * w, y=y)
        x = spd.solve(zero)
        res = spd.residual
        obj_trace.append(float(cfg.lam * penalty_lp(q, x) + 0.5 * (res @ res)))
        return x

    run = _reweight(A.shape[1], q, cfg, ridge_step)
    return SolveResult(
        solver=f"lq(q={q:g})",
        x=run.x, outer_iters=run.outer, total_inner_iters=run.outer,
        final_eps=run.eps, converged=run.status,
        residual=float(np.linalg.norm(A @ run.x - y)),
        objective_trace=obj_trace, eps_trace=run.eps_trace,
        w_inf_trace=run.w_inf_trace)
