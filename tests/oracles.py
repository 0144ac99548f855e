"""Reference formulas that the tests check the package against.

No package code calls these: the solvers use only their gradients or
closed forms, so the formulas live here, next to the tests that compare
those against them.
"""

import numpy as np


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
