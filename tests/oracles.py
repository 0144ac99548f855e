"""Reference formulas and code that the tests check the package against.

No package code calls these: the solvers use only their gradients or
closed forms, and ``SolveResult.to_dict`` builds its dict without the
deep copy of ``solve_result_dict``, so the references live here, next to
the tests that compare those against them.  The l1 statistical dimension
is theory that no solver uses; it places the convex transition that the
harness is checked against.
"""

import math
from dataclasses import asdict

import numpy as np
from scipy.optimize import brentq, minimize_scalar
from scipy.special import erfc


def phi_w(params, w: np.ndarray, x: np.ndarray) -> float:
    """phi_w(x) = sum_i w_i |x_i|^(p+2) / (a (a + |x_i|^p)), the concave
    part of the DC split whose gradient is ``solver.grad_phi_w``."""
    a, p = params.a, params.p
    ax = np.abs(x)
    return float(np.sum(w * ax ** (p + 2) / (a * (a + ax ** p))))


def j_functional(params, x: np.ndarray, omega: np.ndarray, eps: float,
                 kappa: float) -> float:
    """Full surrogate functional at arbitrary positive weights omega;
    ``solver.j_closed_form`` is its value at the minimizing weights."""
    a, p = params.a, params.p
    num = (x * x + eps ** kappa) / (a + np.abs(x) ** p) ** (2.0 / p)
    return float(0.5 * p * (a + 1.0) * np.sum(
        num * omega + (2.0 - p) / p * omega ** (-p / (2.0 - p))))


def solve_result_dict(result) -> dict:
    """``SolveResult.to_dict`` by ``dataclasses.asdict``, a deep copy of
    every field, with x as a list of floats."""
    d = asdict(result)
    d["x"] = [float(v) for v in result.x]
    return d


def gauss_tail2(tau: float) -> float:
    """sqrt(2/pi) int_tau^inf (u - tau)^2 exp(-u^2/2) du, in closed form:
    (1 + tau^2) erfc(tau / sqrt 2) - tau sqrt(2/pi) exp(-tau^2 / 2)."""
    return ((1.0 + tau * tau) * erfc(tau / math.sqrt(2.0))
            - tau * math.sqrt(2.0 / math.pi) * math.exp(-tau * tau / 2.0))


def l1_statistical_dimension(s: float, N: int, tail2=gauss_tail2) -> float:
    """Statistical dimension of the l1 descent cone at an s-sparse point
    of R^N: N inf over tau >= 0 of rho (1 + tau^2) + (1 - rho)
    tail2(tau), rho = s / N (Amelunxen, Lotz, McCoy and Tropp, Inf.
    Inference 2014, Prop. 4.5).  Gaussian l1 recovery from M measurements
    succeeds with high probability when M exceeds it and fails when M
    falls short.  The bracket holds the minimizer for every rho >= 1e-9."""
    rho = s / N
    best = minimize_scalar(lambda t: rho * (1.0 + t * t)
                           + (1.0 - rho) * tail2(t), bounds=(0.0, 10.0),
                           method="bounded", options={"xatol": 1e-10})
    return N * float(best.fun)


def l1_transition(M: int, N: int, tail2=gauss_tail2) -> float:
    """The sparsity s, a real number in (0, M), at which the l1
    statistical dimension in R^N equals M."""
    return brentq(lambda s: l1_statistical_dimension(s, N, tail2) - M,
                  1e-9 * N, M, xtol=1e-12)
