import math
import re

import numpy as np
import pytest

from tlpsparse.penalty import PenaltyParams, penalty_tlp
from tlpsparse.sensing import coherence, gen_gaussian
from tlpsparse.theory import (normalization_beta, rip_bound, solve_eta0,
                              stability_constants)


def root_residual(params, gamma, eta):
    a, p = params.a, params.p
    rhs = (2.0 - p) * ((a + 1.0) / a * gamma) ** (p / (2.0 - p))
    return p * eta ** (2.0 / p) + 2.0 * eta - rhs


class TestEta0:
    def test_tl1_closed_form(self):
        # at p = 1 the root equation is quadratic: eta = sqrt(1 + (a+1)/a) - 1
        for a in (0.1, 1.0, 10.0, 100.0):
            eta = solve_eta0(PenaltyParams(a, 1.0), 1.0)
            assert abs(eta - (math.sqrt(1.0 + (a + 1.0) / a) - 1.0)) < 1e-12

    def test_large_a_tl1(self):
        eta = solve_eta0(PenaltyParams(1e9, 1.0), 1.0)
        assert eta == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-6)

    def test_small_a_tl1(self):
        eta = solve_eta0(PenaltyParams(0.1, 1.0), 1.0)
        assert eta == pytest.approx(math.sqrt(12.0) - 1.0, abs=1e-12)

    def test_residual_on_grid(self):
        for a in (0.1, 1.0, 10.0, 100.0, 1e6):
            for p in np.arange(0.1, 1.01, 0.1):
                for gamma in (1.0, 2.0, 4.0):
                    params = PenaltyParams(a, float(p))
                    eta = solve_eta0(params, gamma)
                    assert abs(root_residual(params, gamma, eta)) < 1e-12
                    upper = (1.0 - p / 2.0) * \
                        ((a + 1.0) / a * gamma) ** (p / (2.0 - p))
                    assert 0.0 < eta < upper

    def test_rejects_gamma_below_one(self):
        with pytest.raises(ValueError):
            solve_eta0(PenaltyParams(1.0, 0.5), 0.5)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_rejects_gamma_that_is_not_finite(self, gamma):
        with pytest.raises(ValueError, match="^gamma must be finite"):
            solve_eta0(PenaltyParams(1.0, 0.7), gamma)

    def test_overflow_in_bisection_counts_as_above_the_root(self):
        # eta^(2/p) = eta^20 overflows over most of the bracket
        params = PenaltyParams(1e-300, 0.1)
        eta = solve_eta0(params)
        assert abs(root_residual(params, 1.0, eta)) < 1e-12 * \
            1.9 * (1e300 + 1.0) ** (0.1 / 1.9)

    @pytest.mark.parametrize("a, p, gamma", [
        (1.0, 0.7, 1e308), (5e-324, 1.0, 1.0)])
    def test_k_that_overflows_names_the_inputs(self, a, p, gamma):
        with pytest.raises(ValueError, match=re.escape(
                f"K does not fit in a float at a={a!r}, p={p!r}, "
                f"gamma={gamma!r}")):
            solve_eta0(PenaltyParams(a, p), gamma)

    def test_root_that_floats_cannot_resolve_names_the_inputs(self):
        # for p near 1e-18, eta^(2/p) jumps past the residual target
        # between adjacent floats at the root
        with pytest.raises(ValueError, match="^eta0 does not reach the "
                           "residual target at a=1e-100, p=1e-18"):
            solve_eta0(PenaltyParams(1e-100, 1e-18))


class TestRipBound:
    def test_rejects_gamma_too_large_for_a_float(self):
        with pytest.raises(ValueError, match="^gamma must be finite"):
            rip_bound(PenaltyParams(1.0, 0.7), 10 ** 400)

    def test_tl1_value(self):
        bound = rip_bound(PenaltyParams(1.0, 1.0))
        assert bound.delta_bound == pytest.approx(1.0 / math.sqrt(3.0),
                                                  rel=1e-12)

    def test_sharp_l1_limit(self):
        bound = rip_bound(PenaltyParams(1e9, 1.0))
        assert bound.delta_bound == pytest.approx(math.sqrt(2.0) / 2.0,
                                                  abs=1e-4)

    def test_lp_limit_by_independent_bisection(self):
        # as a grows the root equation tends to (p/2) eta^(2/p) + eta - 1 + p/2 = 0
        p = 0.5
        def f(eta):
            return 0.5 * p * eta ** (2.0 / p) + eta - 1.0 + 0.5 * p
        lo, hi = 0.0, 1.0 - p / 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        delta_lp = hi / (2.0 - p - hi)
        bound = rip_bound(PenaltyParams(1e9, p))
        assert bound.delta_bound == pytest.approx(delta_lp, rel=1e-6)

    def test_bound_in_unit_interval_and_mu0(self):
        for a in (0.1, 1.0, 10.0, 100.0, 1e6):
            for p in np.arange(0.1, 1.01, 0.1):
                for gamma in (1.0, 2.0, 4.0):
                    bound = rip_bound(PenaltyParams(a, float(p)), gamma)
                    assert 0.0 < bound.delta_bound < 1.0
                    assert 0.0 < bound.mu0 < 1.0 - p / 2.0

    def test_monotone_toward_lp_bound(self):
        p = 0.7
        vals = [rip_bound(PenaltyParams(a, p)).delta_bound
                for a in (0.1, 1.0, 10.0, 100.0, 1e4, 1e8)]
        assert all(x < y for x, y in zip(vals, vals[1:]))


def sampled_ric(A, k, supports, seed):
    """A lower bound on the restricted isometry constant delta_k of A with
    unit-norm columns: the largest |eigenvalue - 1| of the k x k Gram
    matrices of ``supports`` random k-column supports, drawn by PCG64
    from ``seed``.  Certifying delta_k from above is NP-hard."""
    cols = (A / np.linalg.norm(A, axis=0)).T
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(supports // 1000):  # 1000 Gram matrices at a time
        sub = cols[[rng.choice(len(cols), k, replace=False)
                    for _ in range(1000)]]
        ev = np.linalg.eigvalsh(sub @ sub.transpose(0, 2, 1))
        worst = max(worst, 1.0 - ev[:, 0].min(), ev[:, -1].max() - 1.0)
    return float(worst)


class TestBoundOnTheDeskMatrix:
    """The README's table of the bound next to the experiments: on the
    shipped plans' 64 x 256 Gaussian family drawn at their master seed,
    sampled at seed 0 with 20000 supports per size, the (1, 0.7) bound
    certifies at most s = 1."""

    A = gen_gaussian(64, 256, 0.0, 1234).entries

    def test_delta2_is_the_coherence_between_the_bounds(self):
        # two unit columns at |cos| c have Gram eigenvalues 1 +- c
        delta2 = coherence(self.A)
        assert sampled_ric(self.A, 2, 20000, seed=0) <= delta2
        assert (rip_bound(PenaltyParams(0.1, 0.7)).delta_bound < delta2
                < rip_bound(PenaltyParams(1.0, 0.7)).delta_bound)

    def test_sampled_delta4_exceeds_the_a7_bound(self):
        delta4 = sampled_ric(self.A, 4, 20000, seed=0)
        assert delta4 > rip_bound(PenaltyParams(1.0, 0.7)).delta_bound

    def test_sampled_delta8_exceeds_every_bound(self):
        # every bound lies in (0, 1), so no (a, p) certifies s = 4
        assert sampled_ric(self.A, 8, 20000, seed=0) > 1.0


def transcribe_c1(bound, delta2s):
    # independent re-transcription of the noisy-recovery constant
    a, p = bound.params.a, bound.params.p
    mu0, dbar = bound.mu0, bound.delta_bound
    gap = dbar - delta2s
    return (mu0 * math.sqrt(1.0 + ((a + 1.0) / a) ** (2.0 / p))
            * (math.sqrt(1.0 + delta2s) * (1.0 - mu0) * (2.0 - p)
               + (2.0 - p - mu0) * math.sqrt((1.0 - p) * gap))
            / ((2.0 - p - mu0) ** 2 * gap))


class TestStabilityConstants:
    def test_cross_transcription(self):
        for a, p, d2s in [(1.0, 1.0, 0.0), (2.0, 0.5, 0.1), (0.5, 0.8, 0.2)]:
            bound = rip_bound(PenaltyParams(a, p))
            consts = stability_constants(bound, d2s)
            assert consts.c1 == pytest.approx(transcribe_c1(bound, d2s),
                                              rel=1e-12)
            assert consts.c2 == pytest.approx(2.0 * consts.c1, rel=1e-15)
            assert consts.c0 == pytest.approx(consts.c1, rel=1e-15)

    def test_exact_value_at_tl1(self):
        # a = 1, p = 1, delta2s = 0: the display collapses to sqrt(5)
        bound = rip_bound(PenaltyParams(1.0, 1.0))
        consts = stability_constants(bound, 0.0)
        assert consts.c1 == pytest.approx(math.sqrt(5.0), rel=1e-12)

    def test_p1_kills_sqrt_term(self):
        bound = rip_bound(PenaltyParams(3.0, 1.0))
        d2s = 0.2
        mu0, dbar = bound.mu0, bound.delta_bound
        want = (mu0 * math.sqrt(1.0 + (4.0 / 3.0) ** 2)
                * math.sqrt(1.0 + d2s) * (1.0 - mu0)
                / ((1.0 - mu0) ** 2 * (dbar - d2s)))
        consts = stability_constants(bound, d2s)
        assert consts.c1 == pytest.approx(want, rel=1e-12)

    def test_monotone_in_delta2s(self):
        bound = rip_bound(PenaltyParams(1.0, 0.7))
        grid = np.linspace(0.0, bound.delta_bound * 0.999, 40)
        vals = [stability_constants(bound, d).c1 for d in grid]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_blows_up_near_bound(self):
        bound = rip_bound(PenaltyParams(1.0, 0.7))
        small = stability_constants(bound, 0.0).c1
        near = stability_constants(bound, bound.delta_bound * (1 - 1e-9)).c1
        assert near > 1e6 * small / 100

    def test_rejects_delta2s_at_or_above_bound(self):
        bound = rip_bound(PenaltyParams(1.0, 0.7))
        with pytest.raises(ValueError):
            stability_constants(bound, bound.delta_bound)
        with pytest.raises(ValueError):
            stability_constants(bound, 0.99)
        with pytest.raises(ValueError):
            stability_constants(bound, -0.1)

    def test_constant_that_overflows_names_the_inputs(self):
        # ((a+1)/a)^(2/p) = 1e400 at a = 1e-20, p = 0.1
        bound = rip_bound(PenaltyParams(1e-20, 0.1))
        with pytest.raises(ValueError, match=re.escape(
                "C0 does not fit in a float at a=1e-20, p=0.1, gamma=1.0, "
                "delta2s=0.01")):
            stability_constants(bound, 0.01)

    def test_general_gamma_c1_still_at_gamma_one(self):
        params = PenaltyParams(2.0, 0.6)
        bound2 = rip_bound(params, 2.0)
        consts = stability_constants(bound2, bound2.delta_bound / 2.0)
        bound1 = rip_bound(params, 1.0)
        assert consts.c1 == pytest.approx(
            transcribe_c1(bound1, bound2.delta_bound / 2.0), rel=1e-12)
        assert consts.c0 != consts.c1


class TestNormalizationBeta:
    def test_unit_basis_vector(self):
        params = PenaltyParams(1.0, 1.0)
        e = np.zeros(8)
        e[3] = 1.0
        assert normalization_beta(params, e) == 1.0
        assert penalty_tlp(params, e) <= 1.0

    def test_two_ones(self):
        assert normalization_beta(PenaltyParams(1.0, 1.0), [1.0, 1.0]) == \
            pytest.approx(3.0, rel=1e-15)
        # scaled penalty sits exactly on the unit level set
        assert penalty_tlp(PenaltyParams(1.0, 1.0),
                           np.array([1.0, 1.0]) / 3.0) == pytest.approx(1.0)

    def test_single_spike(self):
        beta = normalization_beta(PenaltyParams(2.0, 0.5), [4.0, 0.0, 0.0])
        assert beta == pytest.approx(4.0, rel=1e-14)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            normalization_beta(PenaltyParams(1.0, 0.5), np.zeros(5))

    def test_postcondition_random_sparse(self):
        rng = np.random.default_rng(99)
        for _ in range(10_000):
            params = PenaltyParams(rng.uniform(0.05, 50.0),
                                   rng.uniform(0.1, 1.0))
            n = rng.integers(2, 30)
            s = rng.integers(1, n + 1)
            x = np.zeros(n)
            idx = rng.choice(n, size=s, replace=False)
            x[idx] = rng.standard_normal(s) * 10.0 ** rng.integers(-2, 3)
            x[idx[0]] = max(x[idx[0]], 1e-12)  # keep support size honest
            beta = normalization_beta(params, x)
            assert beta >= 1.0
            assert penalty_tlp(params, x / beta) <= 1.0 + 1e-12
