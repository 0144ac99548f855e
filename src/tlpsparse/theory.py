"""Recovery-theory quantities for the transformed-lp minimization model.

Everything here is a deterministic function of the penalty parameters
(a, p), the cone-constraint parameter gamma >= 1, and an assumed restricted
isometry constant of order 2s.  Nothing in this module touches a concrete
matrix: certifying that a given matrix satisfies a RIP level is NP-hard and
out of scope — callers supply delta_2s as a hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .penalty import PenaltyParams, _pow, penalty_tlp

#: residual target for the scalar root solve
_ROOT_RESIDUAL = 1e-12


@dataclass(frozen=True)
class RipBound:
    """Root eta0, derived mu0, and the admissible RIC upper bound.

    ``delta_bound`` is the largest delta_2s for which exact/stable recovery
    is guaranteed at these (a, p, gamma); at gamma = 1 it is the bound that
    appears in the exact-recovery statement.
    """

    params: PenaltyParams
    gamma: float
    eta0: float
    mu0: float
    delta_bound: float


@dataclass(frozen=True)
class StabilityConstants:
    """Error-amplification constants under an assumed RIC delta_2s.

    c1 is the noisy-recovery constant at gamma = 1, c2 = 2 * c1 is its
    counterpart when the l0 reference point is itself only feasible within
    the noise ball, and c0 is the general-gamma constant.
    """

    delta2s: float
    c0: float
    c1: float
    c2: float


def _at(params: PenaltyParams, gamma: float, **more: float) -> str:
    """The inputs, as an error message names them."""
    at = {"a": params.a, "p": params.p, "gamma": gamma, **more}
    return "at " + ", ".join(f"{k}={v!r}" for k, v in at.items())


def _finite(name: str, value: float, params: PenaltyParams, gamma: float,
            **more: float) -> float:
    """value, or a ValueError naming the inputs it overflows at."""
    if not math.isfinite(value):
        raise ValueError(f"{name} does not fit in a float "
                         f"{_at(params, gamma, **more)}")
    return value


def _root_rhs(params: PenaltyParams, gamma: float) -> float:
    # K = ((a+1)/a * gamma)^(p/(2-p)), the constant the root equation is
    # calibrated against; the exponent is at most 1, so K is finite
    # whenever the base is
    a, p = params.a, params.p
    return _finite("K", ((a + 1.0) / a * gamma) ** (p / (2.0 - p)),
                   params, gamma)


def solve_eta0(params: PenaltyParams, gamma: float = 1.0) -> float:
    """Unique positive root of p*eta^(2/p) + 2*eta - (2-p)*K = 0.

    K = ((a+1)/a * gamma)^(p/(2-p)).  The function is strictly increasing
    with a sign change on (0, (1 - p/2) K), so bisection always brackets;
    a few Newton steps polish the root below the 1e-12 residual target.
    Where eta^(2/p) overflows, f counts as +inf.  A gamma that is not
    finite, a K that does not fit in a float, or a root that floats cannot
    resolve to the residual target (for tiny p, eta^(2/p) jumps by orders
    of magnitude between adjacent floats near eta = 1) raises ValueError.
    """
    if not 1.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and >= 1, got {gamma!r}")
    p = params.p
    K = _root_rhs(params, gamma)
    rhs = (2.0 - p) * K

    def f(eta: float) -> float:
        return p * _pow(eta, 2.0 / p) + 2.0 * eta - rhs

    def fprime(eta: float) -> float:
        return 2.0 * _pow(eta, 2.0 / p - 1.0) + 2.0

    lo, hi = 0.0, (1.0 - p / 2.0) * K
    while hi - lo > 1e-14 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    eta = 0.5 * (lo + hi)
    for _ in range(3):
        eta -= f(eta) / fprime(eta)
    if not (0.0 < eta and abs(f(eta)) < _ROOT_RESIDUAL * max(1.0, rhs)):
        raise ValueError(f"eta0 does not reach the residual target "
                         f"{_at(params, gamma)}: eta={eta}, "
                         f"residual={f(eta)}")
    return eta


def rip_bound(params: PenaltyParams, gamma: float = 1.0) -> RipBound:
    """RIC upper bound delta(p, a, gamma) = mu0 / (2 - p - mu0).

    mu0 = eta0 / K always lies in (0, 1 - p/2), which keeps the bound
    inside (0, 1).  At p = 1 and gamma = 1 the bound is
    1 / sqrt(1 + (a+1)/a), approaching sqrt(2)/2 as a grows.
    """
    eta0 = solve_eta0(params, gamma)
    K = _root_rhs(params, gamma)
    mu0 = eta0 / K
    delta = mu0 / (2.0 - params.p - mu0)
    return RipBound(params=params, gamma=gamma, eta0=eta0, mu0=mu0,
                    delta_bound=delta)


def _c0_at(bound: RipBound, delta2s: float) -> float:
    a, p = bound.params.a, bound.params.p
    gamma, mu0, dlt = bound.gamma, bound.mu0, bound.delta_bound
    gap = dlt - delta2s
    front = mu0 * math.sqrt(1.0 + _pow((a + 1.0) / a * gamma, 2.0 / p))
    num = (math.sqrt(1.0 + delta2s) * (1.0 - mu0) * (2.0 - p)
           + (2.0 - p - mu0) * math.sqrt((1.0 - p) * gap))
    return _finite("C0", front * num / ((2.0 - p - mu0) ** 2 * gap),
                   bound.params, gamma, delta2s=delta2s)


def stability_constants(bound: RipBound, delta2s: float) -> StabilityConstants:
    """Evaluate the recovery constants under an assumed delta_2s.

    Requires delta2s < bound.delta_bound; the constants blow up as the gap
    closes and the theory gives nothing beyond it.  c0 uses the bound's own
    gamma; c1 is the gamma = 1 specialization and c2 = 2 * c1.  A constant
    that does not fit in a float raises ValueError.
    """
    if not (0.0 <= delta2s < bound.delta_bound):
        raise ValueError(
            f"delta2s must lie in [0, {bound.delta_bound:.6g}), got {delta2s}")
    c0 = _c0_at(bound, delta2s)
    bound1 = bound if bound.gamma == 1.0 else rip_bound(bound.params, 1.0)
    c1 = _c0_at(bound1, delta2s)
    c2 = _finite("C2", 2.0 * c1, bound.params, 1.0, delta2s=delta2s)
    return StabilityConstants(delta2s=delta2s, c0=c0, c1=c1, c2=c2)


def normalization_beta(params: PenaltyParams, x) -> float:
    """Smallest admissible rescaling beta >= 1 with penalty(x / beta) <= 1.

    beta = max(1, a^(-1/p) * ||x||_inf * ((a+1) |supp(x)| - 1)^(1/p)).
    The transformed-lp penalty has no scaling identity, so recovery
    statements normalize the problem by this constant first.
    """
    x = np.asarray(x, dtype=float)
    nnz = int(np.count_nonzero(x))
    if nnz == 0:
        raise ValueError("beta is undefined for the zero vector")
    a, p = params.a, params.p
    beta = max(1.0, a ** (-1.0 / p) * float(np.max(np.abs(x)))
               * ((a + 1.0) * nnz - 1.0) ** (1.0 / p))
    scaled = penalty_tlp(params, x / beta)
    if scaled > 1.0 + 1e-12:
        raise AssertionError(
            f"normalization postcondition violated: penalty(x/beta)={scaled}")
    return beta
