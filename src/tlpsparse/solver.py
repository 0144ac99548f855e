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
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError, null_space
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpotrs

from .penalty import (PenaltyParams, _check_exponent, _finite_number,
                      penalty_lp, penalty_tlp)
from .sensing import SensingMatrix, _as_matrix


def _check_number(name: str, value, integral: bool) -> None:
    """Integers only if ``integral``, else any real number; bools are
    neither."""
    kind, what = (Integral, "an integer") if integral else (Real, "a number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {what}, got {value!r}")


def _check_positive(name: str, value, integral: bool) -> None:
    _check_number(name, value, integral)
    if not (value > 0 and _finite_number(value)):
        raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True, kw_only=True)
class Schedule:
    """The solver knobs, declared once: ``bench.SolverSpec`` inherits
    them, and the CLI derives its flags and plan keys from them.  The
    target sparsity s is not a knob but part of the problem, so the
    solvers take it as an argument.

    ``c`` is the strong-convexity constant added to both halves of the DC
    split; it must stay well below lam * (a+1)/a * w for typical weights or
    the inner iteration contracts too slowly to be useful.

    ``inner_tol_eps`` ties the inner tolerance to eps: ``irls_tlp`` solves
    each outer step's subproblem to max(inner_tol, inner_tol_eps *
    min(eps, 1)), with eps the value the step's weights were frozen at.
    While eps is large the weights are about to move anyway, so the inner
    solve stops early; once eps <= inner_tol / inner_tol_eps the tolerance
    is inner_tol again (Fornasier, Peter, Rauhut and Worm, Comput. Optim.
    Appl. 2016, analyse such inexact IRLS inner solves).  Any value
    <= inner_tol gives the fixed tolerance inner_tol.

    Every knob must be positive and finite; ``int`` knobs take integers
    only.  eps0 ** kappa, the largest eps^kappa a weight update adds to
    x^2, must be a finite float too.
    """

    lam: float = 1e-6
    kappa: float = 3.0
    delta_scale: float = 2.0
    c: float = 1e-6
    eps0: float = 1.0
    inner_tol: float = 1e-8
    inner_tol_eps: float = 1e-3
    inner_max: int = 20
    outer_tol_step: float = 1e-8
    outer_tol_mag: float = 1e-8
    outer_max: int = 2000

    def __post_init__(self) -> None:
        for f in fields(Schedule):
            _check_positive(f.name, getattr(self, f.name), f.type == "int")
        try:
            floor = float(self.eps0) ** self.kappa
        except OverflowError:
            floor = math.inf
        if not math.isfinite(floor):
            raise ValueError(f"eps0 ** kappa must be a finite float, got "
                             f"eps0={self.eps0!r}, kappa={self.kappa!r}")


def _weights(x: np.ndarray, eps: float, kappa: float,
             exponent: float) -> np.ndarray:
    """IRLS weights (x_i^2 + eps^kappa)^((exponent-2)/2)."""
    return (x * x + eps ** kappa) ** ((exponent - 2.0) / 2.0)


@dataclass(eq=False)
class SolveResult:
    """Outcome of one solver run, with enough traces to audit it.

    ``objective_trace`` holds the solver's own objective per outer
    iteration (Q for the regularized solvers, the penalty value for the
    constrained one); ``j_trace`` is only filled by the constrained
    solver and holds the surrogate functional at matched weights.
    ``status`` is one of ``sparsity_reached``, ``step_converged``,
    ``max_iters``, or ``not_finite`` when the run stopped at the first
    iterate holding a NaN or an infinity (x is that iterate).

    ``total_inner_iters`` counts the work of the outer steps, in a unit
    per solver: tlp its DCA steps (one SPD solve each), lq one ridge
    solve per outer step, and constrained one weighted least-squares
    solve per outer step plus, under ``exact_update``, the L-BFGS
    iterations of its polishes.  Results, like ``DcaResult``, compare and
    hash by identity.
    """

    solver: str
    x: np.ndarray
    outer_iters: int
    total_inner_iters: int
    final_eps: float
    status: str
    residual: float
    objective_trace: list[float] = field(default_factory=list)
    j_trace: list[float] | None = None
    eps_trace: list[float] = field(default_factory=list)
    w_inf_trace: list[float] = field(default_factory=list)
    inner_f_traces: list[list[float]] | None = None
    final_grad_inf: float | None = None

    def to_dict(self) -> dict:
        """The fields in order, as JSON values: x a list of floats, the
        traces fresh lists of the same values."""
        d = {f.name: _fresh(getattr(self, f.name)) for f in fields(self)}
        d["x"] = self.x.tolist()
        return d


def _fresh(value):
    """A (nested) list copied list by list, any other value as it is."""
    if not isinstance(value, list):
        return value
    return [_fresh(v) if isinstance(v, list) else v for v in value]


@dataclass(eq=False)
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


def _f_w_res(params: PenaltyParams, lam: float, w: np.ndarray, x: np.ndarray,
             res: np.ndarray) -> float:
    """f_w at x given its residual res = +-(A x - y)."""
    pen = np.sum(w * x * x / (params.a + np.abs(x) ** params.p))
    return float(lam * (params.a + 1.0) * pen + 0.5 * (res @ res))


def f_w_value(A, y, params: PenaltyParams, lam: float, w: np.ndarray,
              x: np.ndarray) -> float:
    """Weighted subproblem objective lam(a+1) sum w x^2/(a+|x|^p) + 1/2 res^2."""
    return _f_w_res(params, lam, w, x, _as_matrix(A).entries @ x - y)


def grad_f_w(A, y, params: PenaltyParams, lam: float, w: np.ndarray,
             x: np.ndarray) -> np.ndarray:
    """Gradient of the weighted subproblem objective.

    Assembled from the DC split: (2 lam (a+1)/a) W x - lam (a+1) grad_phi_w
    plus the least-squares part.
    """
    A = _as_matrix(A).entries
    a = params.a
    lin = A.T @ (A @ x - y)
    return (2.0 * lam * (a + 1.0) / a) * w * x \
        - lam * (a + 1.0) * grad_phi_w(params, w, x) + lin


def _scaled_gram(A: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Upper triangle of (A * scale) @ A.T for scale >= 0; zeros below.

    One symmetric rank-N update on B = A * sqrt(scale): half the flops of
    the general product.  B^T goes to BLAS with trans=1 because A, a
    SensingMatrix's entries, is C-ordered, so B^T is already in Fortran
    order and f2py makes no copy.
    """
    B = A * np.sqrt(scale)
    return dsyrk(1.0, B.T, trans=1)


def _cho_factor_spd(B: np.ndarray):
    """Cholesky factor of the SPD matrix B, read from its upper triangle.

    If B is numerically singular, a ridge of 1e-12 trace(B), or 1e-12 if
    that is 0 (B = 0, as for A = 0), is added to its diagonal in place,
    with a RuntimeWarning, and B is factored again.
    """
    try:
        return cho_factor(B, check_finite=False)
    except LinAlgError:
        warnings.warn("SPD system is numerically singular; adding a tiny "
                      "ridge", RuntimeWarning, stacklevel=3)
        B[np.diag_indices_from(B)] += 1e-12 * float(np.trace(B)) or 1e-12
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
    when M >= N.  ``solve`` returns x and the dual's r = y - A x.
    """

    def __init__(self, A: np.ndarray, d: np.ndarray,
                 y: np.ndarray | None = None):
        self._A = A
        self._y = np.zeros(A.shape[0]) if y is None else y
        self._dinv = 1.0 / d
        G = _scaled_gram(A, self._dinv)
        G[np.diag_indices_from(G)] += 1.0
        self._factor = _cho_factor_spd(G)

    def solve(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # LAPACK's potrs on the stored factor, as cho_solve would call it,
        # without the wrapper's per-call checks
        c, lower = self._factor
        r, info = dpotrs(c, self._y - self._A @ (self._dinv * v),
                         lower=lower, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrs")
        return self._dinv * (v + self._A.T @ r), r


def dca_subproblem(A, y, params: PenaltyParams, w: np.ndarray,
                   cfg: Schedule = Schedule(),
                   tol: float | None = None) -> DcaResult:
    """Difference-of-convex iteration for the weighted subproblem, started
    at x = 0.

    Each step linearizes the concave part at the current iterate and
    solves one SPD system

        [A^T A + 2 c I + (2 lam (a+1)/a) W] x = A^T y + v,
        v = lam (a+1) grad_phi_w(x) + 2 c x.

    All steps share one factor of the m x m dual (``_SpdSolver``).
    Stops when the sup-norm step falls below ``tol`` relative to the
    iterate scale, ||x_new - x||_inf < tol max(||x_new||_inf, 1), or at
    inner_max.  Only lam, c, inner_tol and inner_max of ``cfg`` are read;
    the subproblem has no target sparsity.  ``tol`` defaults to
    cfg.inner_tol; ``irls_tlp`` passes the eps-tied tolerance of
    ``Schedule``.  The recorded f_w values are nonincreasing (both split
    halves are strongly convex with modulus >= 2c).  ``y`` must be a
    finite vector of length M and ``w`` one of length N with finite
    entries > 0; a ValueError names the one that is not.
    """
    A = _as_matrix(A).entries
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    for name, vec, n in (("y", y, A.shape[0]), ("w", w, A.shape[1])):
        if vec.shape != (n,):
            raise ValueError(f"{name} has shape {vec.shape}, expected ({n},)")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite")
    if not (w > 0).all() or not np.isfinite(w).all():  # a NaN fails w > 0
        raise ValueError("weights w must be strictly positive and finite")
    if tol is None:
        tol = cfg.inner_tol
    a, p = params.a, params.p
    lam, c = cfg.lam, cfg.c
    coef = 2.0 * lam * (a + 1.0) / a
    solver = _SpdSolver(A, 2.0 * c + coef * w, y=y)
    # grad_phi_w and _f_w_res written out, so that each iterate's |x| and
    # |x|^p serve both its f_w value and the next step's gradient; the
    # expressions and their order are theirs, so the bits are too
    lam_a1, two_c, p2_a, p1 = lam * (a + 1.0), 2.0 * c, (p + 2.0) * a, p + 1
    x, res = np.zeros(A.shape[1]), y
    ax = np.abs(x)
    axp = ax ** p
    trace = [float(lam_a1 * np.sum(w * x * x / (a + axp)) + 0.5 * (res @ res))]
    iters = 0
    converged = False
    for _ in range(cfg.inner_max):
        grad = w * np.sign(x) * ax ** p1 * (p2_a + 2.0 * axp) \
            / (a * (a + axp) ** 2)
        x_new, res = solver.solve(lam_a1 * grad + two_c * x)
        step = float(np.max(np.abs(x_new - x)))
        x = x_new
        iters += 1
        ax = np.abs(x)
        axp = ax ** p
        trace.append(float(lam_a1 * np.sum(w * x * x / (a + axp))
                           + 0.5 * (res @ res)))
        if step < tol * max(float(np.max(ax)), 1.0):
            converged = True
            break
    return DcaResult(x=x, residual=res, f_trace=np.asarray(trace),
                     iters=iters, converged=converged)


def _problem(A, y, s: int) -> tuple[SensingMatrix, np.ndarray]:
    """A as a SensingMatrix, y as floats, checked against each other and s."""
    _check_positive("s", s, integral=True)
    A = _as_matrix(A)
    y = np.asarray(y, dtype=float)
    M, N = A.shape
    if y.ndim != 1 or y.size != M:
        raise ValueError(f"y has length {y.size}, expected {M}")
    if s >= N:
        raise ValueError(f"target sparsity s={s} must be below N={N}")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite")
    return A, y


def _reweight(A: np.ndarray, y: np.ndarray, s: int, cfg: Schedule,
              exponent: float, name: str,
              step: Callable[[np.ndarray, np.ndarray, float],
                             tuple[np.ndarray, float, int]],
              stop_on_step: bool = False
              ) -> tuple[SolveResult, np.ndarray | None]:
    """The outer reweighting schedule that all three solvers share, on
    the problem (A, y) at target sparsity s with the knobs of ``cfg``.

    Starts from x = 0 with eps = eps0.  Each outer iteration freezes the
    weights w = (x^2 + eps^kappa)^((exponent-2)/2), moves to
    ``step(x, w, eps)``, and pulls eps down to r(x)_{s+1} / delta_scale,
    the (s+1)-th largest magnitude over delta_scale (Daubechies, DeVore,
    Fornasier and Güntürk, CPAM 2010; Lai, Xu and Yin, SINUM 2013).  This
    caps the weights (||w||_inf <= eps^(-kappa(2-exponent)/2)) and anneals
    the surrogate toward the true penalty.  If eps^kappa underflows to
    zero the iterate is frozen and the run stops.  A step returns
    ``(x_new, objective, inner_iters)``: the new iterate, the solver's
    objective at a point of its choosing, and the inner iterations it ran.

    Statuses: ``not_finite`` as soon as a step returns an x holding a NaN
    or an infinity, ``sparsity_reached`` when r(x)_{s+1} < outer_tol_mag
    (or when eps^kappa is zero at the start, where x = 0),
    ``step_converged`` when the iteration stalls (or when eps^kappa
    underflows after a step), ``max_iters`` at outer_max.  The stall test
    is the one deliberate difference between the solvers.  By default the
    tail magnitude stagnates, |r - r_old| < outer_tol_step max(r_old, 1),
    tested after the sparsity test.  With
    ``stop_on_step`` the sup-norm step falls below outer_tol_step, tested
    first.

    Returns the ``SolveResult`` named ``name`` with the fields every
    solver shares filled in: x, outer_iters, final_eps, status, the
    residual ||A x - y||, total_inner_iters (the steps' counts summed),
    and objective_trace, eps_trace and w_inf_trace (one entry per outer
    iteration; the last two at the eps its weights were frozen at).  The
    caller sets its own fields.  Also returns the weights of the last
    step, None if none was taken.
    """
    x = np.zeros(A.shape[1])
    w = None
    eps = cfg.eps0
    tail_old = 0.0
    status = "max_iters"
    inner = 0
    obj_trace: list[float] = []
    eps_trace: list[float] = []
    w_inf_trace: list[float] = []
    for _ in range(cfg.outer_max):
        if eps ** cfg.kappa == 0.0:
            # eps froze: x = 0 at the start is that sparse, while a step
            # whose tail failed the sparsity test has stalled
            status = "step_converged" if eps_trace else "sparsity_reached"
            break
        eps_trace.append(eps)
        w = _weights(x, eps, cfg.kappa, exponent)
        w_inf_trace.append(float(np.max(w)))
        x_old = x
        x, obj, n = step(x, w, eps)
        obj_trace.append(obj)
        inner += n
        if not np.isfinite(x).all():
            status = "not_finite"
            break
        tail = tail_magnitude(x, s)
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
    return SolveResult(
        solver=name, x=x, outer_iters=len(eps_trace),
        total_inner_iters=inner, final_eps=eps, status=status,
        residual=float(np.linalg.norm(A @ x - y)), objective_trace=obj_trace,
        eps_trace=eps_trace, w_inf_trace=w_inf_trace), w


# Each solve runs under this error state: a run that overflows or goes NaN
# stops with status not_finite, so numpy's floating-point warnings would
# only repeat that on stderr.  Warnings the solvers issue themselves (the
# ridge of _cho_factor_spd) still fire.
_QUIET = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@_QUIET
def irls_tlp(A, y, params: PenaltyParams, s: int,
             cfg: Schedule = Schedule()) -> SolveResult:
    """Outer reweighting loop (``_reweight``) around the DC inner solver.

    Each outer step is one ``dca_subproblem`` solve at the frozen weights,
    to the eps-tied tolerance max(inner_tol, inner_tol_eps * min(eps, 1)).
    It and ``grad_f_w`` get the SensingMatrix itself, so no step copies A.
    """
    A, y = _problem(A, y, s)
    inner_traces: list[list[float]] = []

    def dca_step(x, w, eps):
        tol = max(cfg.inner_tol, cfg.inner_tol_eps * min(eps, 1.0))
        inner = dca_subproblem(A, y, params, w, cfg, tol=tol)
        inner_traces.append(inner.f_trace.tolist())
        res = inner.residual
        return inner.x, float(cfg.lam * penalty_tlp(params, inner.x)
                              + 0.5 * (res @ res)), inner.iters

    result, w = _reweight(A.entries, y, s, cfg, params.p,
                          f"tlp(a={params.a:g},p={params.p:g})", dca_step)
    result.inner_f_traces = inner_traces
    result.final_grad_inf = 0.0 if w is None else float(np.max(np.abs(
        grad_f_w(A, y, params, cfg.lam, w, result.x))))
    return result


def j_closed_form(params: PenaltyParams, x: np.ndarray, eps: float,
                  kappa: float) -> float:
    """Surrogate functional at matched weights:
    (a+1) sum (x_i^2 + eps^kappa)^(p/2) / (a + |x_i|^p)."""
    a, p = params.a, params.p
    return float((a + 1.0) * np.sum(
        (x * x + eps ** kappa) ** (p / 2.0) / (a + np.abs(x) ** p)))


def _constrained_ls(A: np.ndarray, y: np.ndarray, dvec: np.ndarray) -> np.ndarray:
    # min sum x_i^2 / dvec_i  s.t.  Ax = y, via x = D A^T (A D A^T)^{-1} y
    factor = _cho_factor_spd(_scaled_gram(A, dvec))
    return dvec * (A.T @ cho_solve(factor, y))


def _feasible_minimizer(A: np.ndarray, y: np.ndarray, params: PenaltyParams,
                        omega: np.ndarray, eps: float, kappa: float,
                        candidates: list[np.ndarray]
                        ) -> tuple[np.ndarray, int]:
    # local minimization of the surrogate over {Ax = y}: parameterize the
    # feasible set by the null space, polish each candidate, keep the best;
    # also returns the L-BFGS iterations the polishes ran
    # imported here: scipy.optimize costs every process ~0.2 s and ~20 MB
    from scipy.optimize import minimize

    a, p = params.a, params.p
    epspow = eps ** kappa
    Z = null_space(A)
    x_part, *_ = np.linalg.lstsq(A, y, rcond=None)
    if Z.shape[1] == 0:
        return x_part, 0

    def value_grad(t: np.ndarray):
        xv = x_part + Z @ t
        ax = np.abs(xv)
        axp = ax ** p
        denom = (a + axp) ** (2.0 / p)
        u = xv * xv + epspow
        val = 0.5 * p * (a + 1.0) * float(np.sum(u / denom * omega))
        # d/dx of u/denom; the |x|^(p-1) factor is taken as 0 at x = 0,
        # where 0 ** (p-1) divides by zero silently under irls_constrained
        axpm1 = np.where(ax > 0, ax ** (p - 1.0), 0.0)
        gx = 2.0 * xv / denom - 2.0 * u * axpm1 * np.sign(xv) / (
            (a + axp) * denom)
        gx *= 0.5 * p * (a + 1.0) * omega
        return val, Z.T @ gx

    best_x, best_val, nit = None, np.inf, 0
    for cand in candidates:
        t0 = Z.T @ (cand - x_part)
        out = minimize(value_grad, t0, jac=True, method="L-BFGS-B",
                       options={"maxiter": 200})
        nit += out.nit
        for t in (out.x, t0):
            val = value_grad(t)[0]
            if val < best_val:
                best_val = val
                best_x = x_part + Z @ t
    return best_x, nit


@_QUIET
def irls_constrained(A, y, params: PenaltyParams, s: int,
                     cfg: Schedule = Schedule(),
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
    ``j_trace`` the matched surrogate value; both include the final point,
    and so does ``eps_trace``, which holds one entry more than
    ``w_inf_trace``.  A step whose weights overflow (a huge ``a``, or a
    huge y) ends the run with status ``not_finite``.
    """
    A, y = _problem(A, y, s)
    A = A.entries
    a, p = params.a, params.p
    j_trace: list[float] = []

    def ls_step(x, w, eps):
        j_trace.append(j_closed_form(params, x, eps, cfg.kappa))
        # hat-w = (a+1) w / (a + |x|^p), frozen at the current iterate; if
        # (a+1) w, or x^2 inside w, overflowed, an entry of 1 / hat-w is 0
        # or inf and the step has broken down: an all-NaN x stops the
        # driver there
        dvec = (a + np.abs(x) ** p) / ((a + 1.0) * w)
        if not (np.isfinite(dvec).all() and (dvec > 0).all()):
            return np.full_like(x, np.nan), penalty_tlp(params, x), 0
        x_new = _constrained_ls(A, y, dvec)
        nit = 0
        if exact_update:
            # the minimizing weights of the surrogate at x; w is the
            # driver's (x^2 + eps^kappa)^((p-2)/2)
            omega = w * (a + np.abs(x) ** p) ** (2.0 / p - 1.0)
            # the zero start is not a candidate on the first step
            cands = [x_new] if len(j_trace) == 1 else [x_new, x]
            x_new, nit = _feasible_minimizer(A, y, params, omega, eps,
                                             cfg.kappa, cands)
        # the penalty of the iterate the step starts from; one weighted
        # least-squares solve plus the polishes' L-BFGS iterations
        return x_new, penalty_tlp(params, x), 1 + nit

    result, _ = _reweight(A, y, s, cfg, p, f"constrained(a={a:g},p={p:g})",
                          ls_step, stop_on_step=True)
    j_trace.append(j_closed_form(params, result.x, result.final_eps,
                                 cfg.kappa))
    result.objective_trace.append(penalty_tlp(params, result.x))
    result.j_trace = j_trace
    result.eps_trace.append(result.final_eps)
    return result


@_QUIET
def irls_lq_baseline(A, y, q: float, s: int,
                     cfg: Schedule = Schedule()) -> SolveResult:
    """IRLS for  lam ||x||_q^q + 1/2 ||Ax - y||^2  with the same schedule.

    One ridge-regularized normal-equation solve per outer iteration with
    weights (x_i^2 + eps^kappa)^((q-2)/2); the eps update and stopping are
    the transformed-lp solver's (``_reweight``), which makes success-rate
    comparisons schedule-for-schedule fair.
    """
    _check_exponent("q", q)
    A, y = _problem(A, y, s)
    A = A.entries
    zero = np.zeros(A.shape[1])

    def ridge_step(x, w, eps):
        x, res = _SpdSolver(A, 2.0 * cfg.lam * w, y=y).solve(zero)
        return x, float(cfg.lam * penalty_lp(q, x) + 0.5 * (res @ res)), 1

    return _reweight(A, y, s, cfg, q, f"lq(q={q:g})", ridge_step)[0]
