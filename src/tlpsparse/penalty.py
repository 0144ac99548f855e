"""Transformed-lp penalty, companion pseudo-norms, and relaxation degrees.

The scalar kernel is ``rho(t) = (a+1)|t|^p / (a + |t|^p)``, a bounded,
concave, sparsity-promoting surrogate for the counting function.  Summed over
the entries of a vector it interpolates between the l0 count (a -> 0 or
p -> 0) and the lp quasi-norm ``sum |x_i|^p`` (a -> infinity).

The relaxation degree of a separable penalty is the l2 distance from the
origin to the point where its unit level set crosses the all-equal diagonal;
smaller values mean the level set hugs the axes more tightly, i.e. the
penalty sits closer to l0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np


def _finite_number(value) -> bool:
    """math.isfinite, with an integer too large for a float not finite
    rather than an OverflowError."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_number(value, integral: bool) -> bool:
    """An integer if ``integral``, else any real number; a bool is neither."""
    return (isinstance(value, Integral if integral else Real)
            and not isinstance(value, bool))


def _check_number(name: str, value, integral: bool) -> None:
    if not _is_number(value, integral):
        what = "an integer" if integral else "a number"
        raise ValueError(f"{name} must be {what}, got {value!r}")


def _check_positive(name: str, value, integral: bool) -> None:
    _check_number(name, value, integral)
    if not (value > 0 and _finite_number(value)):
        raise ValueError(f"{name} must be positive and finite")


def _check_exponent(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless 0 < value <= 1."""
    _check_number(name, value, integral=False)
    if not 0 < value <= 1:
        raise ValueError(f"{name} must lie in (0, 1]")


@dataclass(frozen=True)
class PenaltyParams:
    """Shape parameters of the transformed-lp kernel.

    a > 0 controls how sharply the kernel saturates; 0 < p <= 1 is the
    power applied to the magnitude.
    """

    a: float
    p: float

    def __post_init__(self) -> None:
        _check_positive("a", self.a, integral=False)
        _check_exponent("p", self.p)


def rho(params: PenaltyParams, t):
    """Scalar transformed-lp kernel, vectorized over ``t``.

    Even in t, zero at zero, strictly increasing on [0, inf) with
    supremum a + 1.  rho(1) = 1 for every parameter choice.
    """
    tp = np.abs(t) ** params.p
    return (params.a + 1.0) * tp / (params.a + tp)


def penalty_tlp(params: PenaltyParams, x) -> float:
    """Sum of the transformed-lp kernel over the entries of ``x``."""
    return float(np.sum(rho(params, np.asarray(x, dtype=float))))


def penalty_lp(p: float, x) -> float:
    """lp quasi-norm to the p-th power, ``sum |x_i|^p``, for 0 < p <= 1."""
    _check_exponent("p", p)
    return float(np.sum(np.abs(np.asarray(x, dtype=float)) ** p))


def penalty_lap(params: PenaltyParams, x) -> float:
    """Companion pseudo-norm: the p-th power applied outside the ratio.

    Each term is ``[(a+1)|x_i| / (a + |x_i|)]^p`` — the p = 1 kernel raised
    to the p, as opposed to the transformed-lp kernel which raises |x_i|
    inside the ratio.
    """
    ax = np.abs(np.asarray(x, dtype=float))
    ratio = (params.a + 1.0) * ax / (params.a + ax)
    return float(np.sum(ratio ** params.p))


KINDS = ("tlp", "lp", "lap")


def _check_kind(kind: str, N: int) -> None:
    """Raise ValueError unless ``kind`` is in KINDS and N is a count."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    _check_positive("N", N, integral=True)


def _pow(x: float, y: float) -> float:
    """x ** y, or inf where it overflows."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


def relaxation_degree(kind: str, params: PenaltyParams, N: int) -> float:
    """Distance from the origin to the unit level set along the diagonal.

    Closed forms:
      tlp:  [a / ((a+1) N - 1)]^(1/p) * sqrt(N)
      lp:   N^(1/2 - 1/p)
      lap:  a / ((a+1) N^(1/p) - 1) * sqrt(N)

    At N = 1 every kind is exactly 1, since rho(1) = 1; the tlp and lap
    forms would divide by (a+1) - 1 there, which rounds to 0 for tiny a.
    Where N^(1/p) overflows, lap returns its limit 0.0, as tlp and lp do
    when their powers underflow.
    """
    _check_kind(kind, N)
    if N == 1:
        return 1.0
    a, p = params.a, params.p
    if kind == "tlp":
        return (a / ((a + 1.0) * N - 1.0)) ** (1.0 / p) * math.sqrt(N)
    if kind == "lp":
        return float(N) ** (0.5 - 1.0 / p)
    n_p = _pow(float(N), 1.0 / p)
    return a / ((a + 1.0) * n_p - 1.0) * math.sqrt(N)


def _diag_penalty(kind: str, params: PenaltyParams, N: int, t: float) -> float:
    x = np.full(N, t)
    if kind == "tlp":
        return penalty_tlp(params, x)
    if kind == "lp":
        return penalty_lp(params.p, x)
    return penalty_lap(params, x)


def rd_numeric_oracle(kind: str, params: PenaltyParams, N: int) -> float:
    """Relaxation degree found by bisection instead of the closed form.

    Finds t* in (0, 1] with penalty((t*, ..., t*)) = 1 and returns
    sqrt(N) * t*.  The unit root lies in (0, 1] because the all-ones
    diagonal vector has penalty N * rho(1) = N >= 1.
    """
    _check_kind(kind, N)
    lo, hi = 0.0, 1.0
    if _diag_penalty(kind, params, N, hi) < 1.0:
        raise RuntimeError("penalty of the all-ones diagonal vector is below "
                           "1; bisection bracket invalid (non-monotone bug?)")
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _diag_penalty(kind, params, N, mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(N) * hi
