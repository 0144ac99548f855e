import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tlpsparse.bench import SolverSpec
from tlpsparse.penalty import (PenaltyParams, penalty_lap, penalty_lp,
                               penalty_tlp, rd_numeric_oracle,
                               relaxation_degree, rho)
from tlpsparse.solver import irls_lq_baseline

a_vals = st.floats(min_value=1e-3, max_value=100.0)
p_vals = st.floats(min_value=1e-3, max_value=1.0)
# keep magnitudes out of the range where products underflow to zero
t_vals = st.floats(min_value=-10.0, max_value=10.0).filter(
    lambda v: v == 0.0 or abs(v) > 1e-8)


class TestParams:
    def test_rejects_bad_a(self):
        with pytest.raises(ValueError):
            PenaltyParams(0.0, 0.5)
        with pytest.raises(ValueError):
            PenaltyParams(-1.0, 0.5)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            PenaltyParams(1.0, 0.0)
        with pytest.raises(ValueError):
            PenaltyParams(1.0, 1.5)

    @pytest.mark.parametrize("value", [0.0, 1.5, math.nan])
    @pytest.mark.parametrize("call, name", [
        (lambda v: PenaltyParams(1.0, v), "p"),
        (lambda v: penalty_lp(v, [1.0]), "p"),
        (lambda v: irls_lq_baseline(np.eye(2), np.ones(2), v, 1), "q"),
        (lambda v: SolverSpec(method="lq", q=v), "q")],
        ids=["PenaltyParams", "penalty_lp", "irls_lq_baseline", "SolverSpec"])
    def test_one_exponent_rule_names_each_key(self, call, name, value):
        with pytest.raises(ValueError,
                           match=rf"^{name} must lie in \(0, 1\]$"):
            call(value)


class TestRho:
    def test_unit_point(self):
        assert rho(PenaltyParams(1.0, 0.5), 1.0) == pytest.approx(1.0, abs=0)

    def test_zero(self):
        for a, p in [(0.3, 0.2), (1.0, 1.0), (50.0, 0.9)]:
            assert rho(PenaltyParams(a, p), 0.0) == 0.0

    def test_saturation_limit(self):
        assert rho(PenaltyParams(1.0, 1.0), 1e12) == pytest.approx(2.0, abs=1e-9)

    @given(a_vals, p_vals, t_vals)
    def test_even(self, a, p, t):
        params = PenaltyParams(a, p)
        assert rho(params, t) == rho(params, -t)

    @given(a_vals, p_vals, t_vals)
    def test_inner_power_identity(self, a, p, t):
        # rho_{a,p}(t) = rho_{a,1}(|t|^p)
        lhs = rho(PenaltyParams(a, p), t)
        rhs = rho(PenaltyParams(a, 1.0), abs(t) ** p)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)

    def test_strictly_increasing_and_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.uniform(1e-2, 100.0)
            p = rng.uniform(1e-2, 1.0)
            params = PenaltyParams(a, p)
            t1, t2 = np.sort(rng.uniform(0.0, 10.0, size=2))
            if t1 == t2:
                continue
            v1, v2 = rho(params, t1), rho(params, t2)
            assert v1 < v2 < a + 1


class TestVectorPenalties:
    def test_tlp_two_units(self):
        assert penalty_tlp(PenaltyParams(1.0, 0.5), [1.0, 1.0]) == pytest.approx(2.0)

    def test_tlp_zero_vector(self):
        assert penalty_tlp(PenaltyParams(3.0, 0.4), np.zeros(9)) == 0.0

    def test_tlp_even_separable(self):
        params = PenaltyParams(2.0, 0.7)
        want = 2.0 * float(rho(params, 0.3))
        assert penalty_tlp(params, [0.3, -0.3, 0.0]) == pytest.approx(want, rel=1e-14)

    def test_tlp_permutation_invariant(self):
        params = PenaltyParams(0.8, 0.6)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(20)
        assert penalty_tlp(params, x) == pytest.approx(
            penalty_tlp(params, x[::-1]), rel=1e-13)

    def test_lp_values(self):
        assert penalty_lp(1.0, [1.0, -2.0, 3.0]) == pytest.approx(6.0)
        assert penalty_lp(0.5, [4.0]) == pytest.approx(2.0)
        assert penalty_lp(0.5, np.ones(4)) == pytest.approx(4.0)

    def test_lp_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            penalty_lp(1.2, [1.0])

    def test_lap_unit(self):
        assert penalty_lap(PenaltyParams(1.0, 0.7), [1.0]) == pytest.approx(1.0)
        assert penalty_lap(PenaltyParams(9.0, 0.2), np.zeros(4)) == 0.0

    def test_lap_direct_formula(self):
        want = 2.0 * ((6.0 * 2.0) / (5.0 + 2.0)) ** 0.7
        assert penalty_lap(PenaltyParams(5.0, 0.7), [2.0, 2.0]) == pytest.approx(
            want, rel=1e-14)


class TestSandwichAndScaling:
    def test_upper_envelope(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(1e-2, 100.0, size=500)
        p = rng.uniform(1e-2, 1.0, size=500)
        t = rng.uniform(-10.0, 10.0, size=500)
        for ai, pi, ti in zip(a, p, t):
            params = PenaltyParams(ai, pi)
            assert rho(params, ti) <= (ai + 1) / ai * abs(ti) ** pi + 1e-12

    def test_unit_ball_sandwich(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            params = PenaltyParams(rng.uniform(1e-2, 100.0),
                                   rng.uniform(1e-2, 1.0))
            t = rng.uniform(-1.0, 1.0)
            v = rho(params, t)
            assert abs(t) ** params.p - 1e-12 <= v <= 1.0 + 1e-12

    @given(a_vals, p_vals, t_vals, t_vals)
    def test_scaling_inequality(self, a, p, t, c):
        params = PenaltyParams(a, p)
        lhs = rho(params, c * t)
        rhs = abs(c) ** p * rho(params, t)
        if abs(c) <= 1.0:
            assert lhs >= rhs - 1e-12
        else:
            assert lhs <= rhs + 1e-12

    @given(a_vals, p_vals, t_vals, t_vals)
    def test_quasi_triangle_chain(self, a, p, t1, t2):
        params = PenaltyParams(a, p)
        tol = 1e-12
        r1, r2 = rho(params, t1), rho(params, t2)
        mid = rho(params, abs(t1) + abs(t2))
        assert abs(r1 - r2) <= rho(params, t1 + t2) + tol
        assert rho(params, t1 + t2) <= mid + tol
        assert mid <= r1 + r2 + tol
        assert r1 + r2 <= 2.0 * rho(params, (abs(t1) + abs(t2)) / 2.0) + tol


class TestRelaxationDegree:
    def test_l1_critical_value(self):
        assert relaxation_degree("lp", PenaltyParams(1.0, 1.0), 100) == \
            pytest.approx(0.1, rel=1e-14)

    def test_known_values_at_512(self):
        # expected values carry two significant figures, hence the loose abs
        assert relaxation_degree("tlp", PenaltyParams(5.0, 0.7), 512) == \
            pytest.approx(2.4e-3, abs=0.05e-3)
        assert relaxation_degree("lap", PenaltyParams(5.0, 0.7), 512) == \
            pytest.approx(2.5e-3, abs=0.05e-3)
        assert relaxation_degree("tlp", PenaltyParams(1.0, 0.7), 512) == \
            pytest.approx(1.1e-3, abs=0.05e-3)

    def test_ieee_limits(self):
        # lap's N^(1/p) overflows: the limit 0.0, as tlp and lp underflow
        for kind in ("tlp", "lp", "lap"):
            assert relaxation_degree(kind, PenaltyParams(1.0, 1e-3), 512) \
                == 0.0
        # at N = 1 the level set crosses the diagonal at t = 1, also where
        # (a+1) - 1 rounds to 0
        for kind in ("tlp", "lp", "lap"):
            for a in (1e-300, 1e-17, 0.1, 1e300):
                assert relaxation_degree(kind, PenaltyParams(a, 0.5), 1) \
                    == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            relaxation_degree("tlp", PenaltyParams(1.0, 0.5), 0)
        with pytest.raises(ValueError):
            relaxation_degree("l2", PenaltyParams(1.0, 0.5), 4)

    def test_monotone_in_a_and_p(self):
        for p in (0.3, 0.7, 1.0):
            vals = [relaxation_degree("tlp", PenaltyParams(a, p), 64)
                    for a in (0.1, 0.5, 1.0, 5.0, 50.0)]
            assert all(x < y for x, y in zip(vals, vals[1:]))
        for a in (0.2, 1.0, 10.0):
            vals = [relaxation_degree("tlp", PenaltyParams(a, p), 64)
                    for p in (0.2, 0.4, 0.6, 0.8, 1.0)]
            assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_large_a_limit_is_lp(self):
        for p in (0.3, 0.5, 0.9, 1.0):
            tlp = relaxation_degree("tlp", PenaltyParams(1e9, p), 128)
            lp = relaxation_degree("lp", PenaltyParams(1.0, p), 128)
            assert tlp == pytest.approx(lp, rel=1e-6)


class TestNumericOracle:
    def test_lp_hand_value(self):
        assert rd_numeric_oracle("lp", PenaltyParams(1.0, 1.0), 4) == \
            pytest.approx(0.5, rel=1e-12)

    def test_matches_closed_forms(self):
        cases = [("tlp", 1.0, 1.0, 2), ("lap", 2.0, 0.5, 3),
                 ("tlp", 5.0, 0.7, 32), ("lp", 1.0, 0.4, 16),
                 ("lap", 0.3, 0.9, 8), ("tlp", 0.2, 0.3, 5)]
        for kind, a, p, N in cases:
            params = PenaltyParams(a, p)
            closed = relaxation_degree(kind, params, N)
            numeric = rd_numeric_oracle(kind, params, N)
            assert numeric == pytest.approx(closed, rel=1e-10)

    def test_tl1_small_case(self):
        want = (1.0 / 3.0) * math.sqrt(2.0)
        assert rd_numeric_oracle("tlp", PenaltyParams(1.0, 1.0), 2) == \
            pytest.approx(want, rel=1e-12)
