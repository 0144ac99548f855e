import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tlpsparse.penalty import PenaltyParams, penalty_tlp
from tlpsparse.sensing import gen_gaussian, gen_signal
from tlpsparse.solver import (SolverConfig, _constrained_ls,
                              _reweight, _scaled_gram, _SpdSolver,
                              dca_subproblem, f_w_value,
                              grad_f_w, grad_phi_w, irls_constrained,
                              irls_lq_baseline, irls_tlp, j_closed_form,
                              j_functional, phi_w, tail_magnitude)


class TestTailMagnitude:
    def test_tail_magnitude(self):
        assert tail_magnitude([5.0, 1.0, 3.0, 0.5], 2) == 1.0

    @given(st.data())
    def test_matches_sort_definition(self, data):
        # ties and signed zeros come from the sampled values; s spans 0..N-1
        x = data.draw(arrays(np.float64, st.integers(1, 12), elements=(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5])
            | st.floats(-100, 100))))
        s = data.draw(st.integers(0, x.size - 1))
        want = np.sort(np.abs(x))[-(s + 1)]
        assert tail_magnitude(x, s) == want
        assert tail_magnitude(x, x.size - 1) == np.min(np.abs(x))

    def test_rejects_s_at_length(self):
        with pytest.raises(IndexError):
            tail_magnitude([1.0, 2.0], 2)


class TestGradPhi:
    def test_zero_point(self):
        params = PenaltyParams(1.0, 0.5)
        g = grad_phi_w(params, np.ones(4), np.zeros(4))
        assert np.all(g == 0.0)

    def test_hand_value(self):
        params = PenaltyParams(1.0, 1.0)
        g = grad_phi_w(params, np.ones(1), np.array([1.0]))
        assert g[0] == pytest.approx(1.25, rel=1e-14)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(5)
        h = 1e-6
        worst = 0.0
        for _ in range(100):
            params = PenaltyParams(rng.uniform(0.5, 5.0),
                                   rng.uniform(0.3, 1.0))
            n = 6
            w = rng.uniform(0.5, 2.0, n)
            x = rng.uniform(0.1, 3.0, n) * rng.choice([-1.0, 1.0], n)
            g = grad_phi_w(params, w, x)
            for i in range(n):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd = (phi_w(params, w, xp) - phi_w(params, w, xm)) / (2 * h)
                worst = max(worst, abs(fd - g[i]) / abs(g[i]))
        assert worst < 1e-6


class TestGradF:
    def test_matches_finite_differences(self):
        # pins the DC assembly of grad f_w, including the a-dependent factor
        rng = np.random.default_rng(8)
        h = 1e-7
        for a in (0.3, 1.0, 4.0):
            params = PenaltyParams(a, 0.6)
            A = rng.standard_normal((5, 9))
            y = rng.standard_normal(5)
            w = rng.uniform(0.5, 2.0, 9)
            x = rng.uniform(0.2, 2.0, 9) * rng.choice([-1.0, 1.0], 9)
            lam = 0.1
            g = grad_f_w(A, y, params, lam, w, x)
            for i in range(9):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd = (f_w_value(A, y, params, lam, w, xp)
                      - f_w_value(A, y, params, lam, w, xm)) / (2 * h)
                assert fd == pytest.approx(g[i], rel=2e-5, abs=1e-8)


def coordinate_oracle(params, lam, w, y, grid=None):
    """Brute-force minimizer of lam(a+1) w t^2/(a+|t|^p) + (t-y)^2/2 per coordinate."""
    if grid is None:
        grid = np.linspace(-5.0, 5.0, 2_000_001)
    out = np.empty_like(y)
    for i, yi in enumerate(y):
        vals = (lam * (params.a + 1.0) * w[i] * grid ** 2
                / (params.a + np.abs(grid) ** params.p)
                + 0.5 * (grid - yi) ** 2)
        out[i] = grid[np.argmin(vals)]
    return out


class TestDcaSubproblem:
    def test_zero_data_fixed_point(self):
        params = PenaltyParams(1.0, 0.7)
        cfg = SolverConfig(s=1)
        res = dca_subproblem(np.eye(4), np.zeros(4), params, np.ones(4), cfg)
        assert np.all(res.x == 0.0)
        assert res.converged

    def test_identity_matrix_against_grid_oracle(self):
        params = PenaltyParams(1.0, 0.7)
        cfg = SolverConfig(s=1, lam=1e-6, inner_max=50)
        y = np.array([3.0, 0.0, 0.0, 0.0])
        w = np.ones(4)
        res = dca_subproblem(np.eye(4), y, params, w, cfg)
        want = coordinate_oracle(params, cfg.lam, w, y)
        assert np.max(np.abs(res.x - want)) < 1e-3
        assert np.max(np.abs(res.x - y)) < 1e-3

    def test_descent_random_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            A = rng.standard_normal((8, 16))
            y = rng.standard_normal(8)
            w = np.exp(rng.uniform(-2, 2, 16))
            params = PenaltyParams(rng.uniform(0.5, 4.0),
                                   rng.uniform(0.3, 1.0))
            cfg = SolverConfig(s=1, lam=1e-3, inner_max=40)
            res = dca_subproblem(A, y, params, w, cfg)
            f = res.f_trace
            assert np.all(np.diff(f) <= 1e-10 * np.abs(f[:-1]) + 1e-300)

    def test_rejects_nonpositive_weights(self):
        cfg = SolverConfig(s=1)
        with pytest.raises(ValueError):
            dca_subproblem(np.eye(3), np.zeros(3), PenaltyParams(1, 0.5),
                           np.array([1.0, 0.0, 1.0]), cfg)


class TestSpdSystem:
    def test_eigenvalues_at_least_2c(self):
        rng = np.random.default_rng(17)
        params = PenaltyParams(1.0, 0.7)
        cfg = SolverConfig(s=1, c=1e-2)
        for _ in range(5):
            A = rng.standard_normal((6, 12))
            w = np.exp(rng.uniform(-3, 3, 12))
            B = A.T @ A + np.diag(2 * cfg.c + 2 * cfg.lam
                                  * (params.a + 1) / params.a * w)
            assert np.linalg.eigvalsh(B).min() >= 2 * cfg.c * (1 - 1e-12)

    def test_woodbury_matches_direct(self):
        rng = np.random.default_rng(19)
        A = rng.standard_normal((10, 50))
        d = np.exp(rng.uniform(-1, 1, 50))
        rhs = rng.standard_normal(50)
        x_ref = np.linalg.solve(A.T @ A + np.diag(d), rhs)
        x = _SpdSolver(A, d).solve(rhs)
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def _dca_like_system(rng, M, N, s):
    """d tiny (1e-6..1e-4) on a support of size s and huge (1e4..1e14)
    elsewhere, y in the range of the support columns and v small: the
    shape of a late reweighting step."""
    A = rng.standard_normal((M, N)) / np.sqrt(M)
    S = rng.choice(N, s, replace=False)
    d = 10.0 ** rng.uniform(4, 14, N)
    d[S] = 10.0 ** rng.uniform(-6, -4, s)
    x = np.zeros(N)
    x[S] = rng.standard_normal(s)
    v = np.zeros(N)
    v[S] = 1e-6 * rng.standard_normal(s)
    return A, d, A @ x, v


class TestSpdRoutes:
    def test_backward_residual_both_routes(self):
        rng = np.random.default_rng(41)
        for s in (8, 63, 100):
            for _ in range(3):
                A, d, y, v = _dca_like_system(rng, 64, 256, s)
                b = A.T @ y + v
                x = _SpdSolver(A, d, y=y).solve(v)
                res = A.T @ (A @ x) + d * x - b
                scale = (np.linalg.norm(A, 2) ** 2 * np.linalg.norm(x)
                         + np.linalg.norm(d * x) + np.linalg.norm(b))
                assert np.linalg.norm(res) <= 1e-13 * scale, s

    def test_backward_residual_both_routes_256x1024(self):
        rng = np.random.default_rng(43)
        for s in (40, 128):
            A, d, y, v = _dca_like_system(rng, 256, 1024, s)
            b = A.T @ y + v
            x = _SpdSolver(A, d, y=y).solve(v)
            res = A.T @ (A @ x) + d * x - b
            scale = (np.linalg.norm(A, 2) ** 2 * np.linalg.norm(x)
                     + np.linalg.norm(d * x) + np.linalg.norm(b))
            assert np.linalg.norm(res) <= 1e-13 * scale, s

    def test_dca_trace_ends_at_f_w_value(self):
        # the trace is recorded from the solve's own residual; its last
        # entry must agree with a fresh f_w_value at the returned x
        rng = np.random.default_rng(53)
        params = PenaltyParams(1.0, 0.7)
        cfg = SolverConfig(s=5)
        for _ in range(5):
            A, d, y, _ = _dca_like_system(rng, 32, 128, 5)
            w = d / d.max() * 1e6
            res = dca_subproblem(A, y, params, w, cfg)
            want = f_w_value(A, y, params, cfg.lam, w, res.x)
            assert res.f_trace[-1] == pytest.approx(want, rel=1e-12)
            assert np.allclose(res.residual, y - A @ res.x,
                               rtol=0, atol=1e-12 * np.linalg.norm(y))

    def test_singular_system_gets_ridge_and_warns(self):
        # a zero row makes A D A^T exactly singular, so the Cholesky
        # factorization in the constrained step fails and the ridge
        # fallback takes over; y = A x0 keeps the system consistent
        rng = np.random.default_rng(47)
        A = rng.standard_normal((6, 12))
        A[3] = 0.0
        y = A @ rng.standard_normal(12)
        with pytest.warns(RuntimeWarning, match="ridge"):
            x = _constrained_ls(A, y, np.ones(12))
        assert np.all(np.isfinite(x))
        assert np.linalg.norm(A @ x - y) <= 2e-11 * np.linalg.norm(y)


class TestScaledGram:
    @pytest.mark.parametrize("shape,order", [((64, 256), "C"),
                                             ((256, 1024), "C"),
                                             ((20, 70), "F")])
    def test_upper_triangle_matches_product(self, shape, order):
        rng = np.random.default_rng(59)
        A = np.asarray(rng.standard_normal(shape), order=order)
        dinv = 10.0 ** rng.uniform(-14, 6, shape[1])
        want = np.triu((A * dinv) @ A.T)
        got = np.triu(_scaled_gram(A, dinv))
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_constrained_ls_is_feasible(self):
        rng = np.random.default_rng(67)
        for M, N in ((16, 64), (64, 256)):
            A = rng.standard_normal((M, N))
            y = rng.standard_normal(M)
            x = _constrained_ls(A, y, 10.0 ** rng.uniform(-6, 2, N))
            assert np.linalg.norm(A @ x - y) <= 1e-10 * np.linalg.norm(y)


SOLVERS = {
    "tlp": lambda A, y: irls_tlp(A, y, PenaltyParams(1, 0.7),
                                 SolverConfig(s=1)),
    "lq": lambda A, y: irls_lq_baseline(A, y, 0.5, SolverConfig(s=1)),
    "constrained": lambda A, y: irls_constrained(A, y, PenaltyParams(1, 0.7),
                                                 SolverConfig(s=1)),
}


@pytest.mark.parametrize("solve", SOLVERS.values(), ids=SOLVERS.keys())
def test_raw_arrays_must_be_finite(solve):
    A, y = np.eye(3), np.ones(3)
    for bad in (np.nan, np.inf):
        A_bad = A.copy()
        A_bad[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            solve(A_bad, y)
        with pytest.raises(ValueError, match="finite"):
            solve(A, np.array([1.0, bad, 1.0]))


class TestIrlsTlp:
    def test_zero_measurements(self):
        res = irls_tlp(np.eye(8), np.zeros(8), PenaltyParams(1, 0.7),
                       SolverConfig(s=2))
        assert np.all(res.x == 0.0)
        assert res.converged == "sparsity_reached"
        assert res.outer_iters == 1

    def test_recovers_sparse_signal(self):
        A = gen_gaussian(64, 256, 0.0, seed=42)
        truth = gen_signal(256, 10, seed=43)
        y = A.entries @ truth.vector
        cfg = SolverConfig(s=10)
        res = irls_tlp(A, y, PenaltyParams(1.0, 0.7), cfg)
        rel = np.linalg.norm(res.x - truth.vector) / np.linalg.norm(truth.vector)
        assert rel < 1e-3
        assert res.residual < 1e-6 * np.linalg.norm(y)
        if res.converged == "sparsity_reached":
            assert tail_magnitude(res.x, cfg.s) < cfg.outer_tol_mag

    def test_eps_monotone_and_weight_bound(self):
        A = gen_gaussian(32, 64, 0.0, seed=3)
        truth = gen_signal(64, 5, seed=4)
        y = A.entries @ truth.vector
        params = PenaltyParams(1.0, 0.7)
        cfg = SolverConfig(s=5)
        res = irls_tlp(A, y, params, cfg)
        eps = np.array(res.eps_trace)
        assert np.all(np.diff(eps) <= 0.0)
        assert res.final_eps <= eps[-1]
        w_bound = eps ** (-cfg.kappa * (2.0 - params.p) / 2.0)
        assert np.all(np.array(res.w_inf_trace) <= w_bound * (1 + 1e-12))

    def test_inner_descent_recorded(self):
        A = gen_gaussian(32, 64, 0.0, seed=31)
        truth = gen_signal(64, 5, seed=32)
        y = A.entries @ truth.vector
        res = irls_tlp(A, y, PenaltyParams(1.0, 0.7), SolverConfig(s=5))
        for trace in res.inner_f_traces:
            f = np.asarray(trace)
            assert np.all(np.diff(f) <= 1e-10 * np.abs(f[:-1]) + 1e-300)

    def test_deterministic(self):
        A = gen_gaussian(24, 48, 0.0, seed=55)
        truth = gen_signal(48, 4, seed=56)
        y = A.entries @ truth.vector
        r1 = irls_tlp(A, y, PenaltyParams(1, 0.7), SolverConfig(s=4))
        r2 = irls_tlp(A, y, PenaltyParams(1, 0.7), SolverConfig(s=4))
        assert np.array_equal(r1.x, r2.x)
        assert r1.outer_iters == r2.outer_iters
        assert r1.objective_trace == r2.objective_trace

    def test_dimension_errors(self):
        with pytest.raises(ValueError):
            irls_tlp(np.eye(4), np.zeros(3), PenaltyParams(1, 0.7),
                     SolverConfig(s=1))
        with pytest.raises(ValueError):
            irls_tlp(np.eye(4), np.zeros(4), PenaltyParams(1, 0.7),
                     SolverConfig(s=4))

    def test_result_serializes(self):
        import json
        res = irls_tlp(np.eye(4), np.zeros(4), PenaltyParams(1, 0.7),
                       SolverConfig(s=1))
        blob = json.dumps(res.to_dict())
        assert "objective_trace" in blob

    def test_wide_matrix_uses_dual_solve_and_recovers(self):
        # every SPD step of this solve factors the 20 x 20 dual
        from tlpsparse.sensing import gen_dct
        A = gen_dct(20, 120, 2.0, seed=303)
        truth = gen_signal(120, 2, seed=703)
        y = A.entries @ truth.vector
        res = irls_tlp(A, y, PenaltyParams(1.0, 1.0), SolverConfig(s=2))
        rel = np.linalg.norm(res.x - truth.vector) / np.linalg.norm(truth.vector)
        assert rel < 1e-3


class TestIrlsConstrained:
    def test_identity_matrix_returns_y(self):
        y = np.array([0.5, -1.5, 2.0, 0.0])
        res = irls_constrained(np.eye(4), y, PenaltyParams(1.0, 0.7),
                               SolverConfig(s=3))
        assert np.allclose(res.x, y, atol=1e-10)
        assert res.outer_iters <= 2

    def test_j_closed_form_matches_full_functional(self):
        # dual route: the closed form must equal the functional at the
        # minimizing weights
        rng = np.random.default_rng(29)
        params = PenaltyParams(1.5, 0.8)
        for _ in range(20):
            x = rng.standard_normal(10) * rng.uniform(0.1, 3.0)
            eps = rng.uniform(1e-3, 1.0)
            kappa = rng.uniform(1.0, 4.0)
            # omega_i = (a + |x_i|^p)^(2/p - 1) (x_i^2 + eps^kappa)^((p-2)/2)
            omega = (params.a + np.abs(x) ** params.p) ** (
                2.0 / params.p - 1.0) * (x * x + eps ** kappa) ** (
                (params.p - 2.0) / 2.0)
            full = j_functional(params, x, omega, eps, kappa)
            closed = j_closed_form(params, x, eps, kappa)
            assert full == pytest.approx(closed, rel=1e-10)

    def test_exact_update_monotone_surrogate(self):
        A = gen_gaussian(16, 32, 0.0, seed=61)
        truth = gen_signal(32, 3, seed=62)
        y = A.entries @ truth.vector
        cfg = SolverConfig(s=3, outer_max=40)
        res = irls_constrained(A, y, PenaltyParams(1.0, 0.7), cfg,
                               exact_update=True)
        j = np.asarray(res.j_trace)
        assert np.all(np.diff(j) <= 1e-10 * np.abs(j[:-1]) + 1e-300)

    def test_sandwich_bound_each_iteration(self):
        A = gen_gaussian(16, 32, 0.0, seed=63)
        truth = gen_signal(32, 3, seed=64)
        y = A.entries @ truth.vector
        params = PenaltyParams(1.0, 0.7)
        cfg = SolverConfig(s=3, outer_max=40)
        res = irls_constrained(A, y, params, cfg)
        N = 32
        a, p = params.a, params.p
        for jv, pv, ev in zip(res.j_trace, res.objective_trace,
                              res.eps_trace):
            slack = N * (a + 1.0) / a * ev ** (cfg.kappa * p / 2.0)
            assert jv - slack <= pv + 1e-10
            assert pv <= jv + 1e-10

    def test_penalty_bounded_by_initial_surrogate(self):
        A = gen_gaussian(16, 32, 0.0, seed=65)
        truth = gen_signal(32, 4, seed=66)
        y = A.entries @ truth.vector
        cfg = SolverConfig(s=4, outer_max=40)
        res = irls_constrained(A, y, PenaltyParams(1.0, 0.7), cfg,
                               exact_update=True)
        assert max(res.objective_trace) <= res.j_trace[0] + 1e-10

    def test_feasible_iterates(self):
        A = gen_gaussian(12, 30, 0.0, seed=67)
        truth = gen_signal(30, 3, seed=68)
        y = A.entries @ truth.vector
        res = irls_constrained(A, y, PenaltyParams(1.0, 0.7),
                               SolverConfig(s=3))
        assert res.residual < 1e-8 * np.linalg.norm(y)

    def test_recovers_sparse_signal(self):
        A = gen_gaussian(16, 32, 0.0, seed=501)
        truth = gen_signal(32, 3, seed=901)
        y = A.entries @ truth.vector
        res = irls_constrained(A, y, PenaltyParams(1.0, 0.7),
                               SolverConfig(s=3))
        rel = np.linalg.norm(res.x - truth.vector) / np.linalg.norm(truth.vector)
        assert rel < 1e-3

    def test_exact_update_square_invertible(self):
        # feasible set is a single point; the polish must short-circuit
        y = np.array([1.0, -2.0, 0.5])
        res = irls_constrained(np.eye(3), y, PenaltyParams(1.0, 0.7),
                               SolverConfig(s=2), exact_update=True)
        assert np.allclose(res.x, y, atol=1e-8)


class TestIrlsLq:
    def test_zero_measurements(self):
        res = irls_lq_baseline(np.eye(6), np.zeros(6), 0.5, SolverConfig(s=2))
        assert np.all(res.x == 0.0)

    def test_identity_against_prox_oracle(self):
        y = np.array([2.0, -1.0, 0.0, 3.0])
        cfg = SolverConfig(s=2, lam=1e-6, outer_max=200)
        res = irls_lq_baseline(np.eye(4), y, 1.0, cfg)
        grid = np.linspace(-5.0, 5.0, 2_000_001)
        want = np.empty(4)
        for i, yi in enumerate(y):
            vals = cfg.lam * np.abs(grid) + 0.5 * (grid - yi) ** 2
            want[i] = grid[np.argmin(vals)]
        assert np.max(np.abs(res.x - want)) < 1e-3

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            irls_lq_baseline(np.eye(3), np.zeros(3), 1.5, SolverConfig(s=1))


class TestConfigValidation:
    def test_positive_fields(self):
        with pytest.raises(ValueError):
            SolverConfig(s=0)
        with pytest.raises(ValueError):
            SolverConfig(s=1, lam=0.0)
        with pytest.raises(ValueError):
            SolverConfig(s=1, inner_max=0)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(s=1.0), "s"), (dict(s=1, inner_max=20.0), "inner_max"),
        (dict(s=1, outer_max=True), "outer_max"), (dict(s=1, lam="1"), "lam")])
    def test_knob_types(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be an? "):
            SolverConfig(**kwargs)

    def test_float_knobs_take_any_real_number(self):
        assert SolverConfig(s=1, lam=1, kappa=np.float64(3.0)).lam == 1


class TestReweight:
    """The shared outer driver, with fake steps, under both stall rules."""

    U = np.array([3.0, 1.0, 0.0, 0.0])
    V = np.array([1.0, 3.0, 0.0, 0.0])  # same tail magnitude at s = 1

    def alternate(self, x, w, eps):
        return self.V if np.array_equal(x, self.U) else self.U

    def test_alternating_step_with_equal_tails(self):
        cfg = SolverConfig(s=1, outer_max=7)
        run = _reweight(4, 0.7, cfg, self.alternate)
        assert (run.outer, run.status) == (2, "step_converged")
        assert run.eps_trace == [1.0, 0.5]
        run = _reweight(4, 0.7, cfg, self.alternate, stop_on_step=True)
        assert (run.outer, run.status) == (7, "max_iters")

    def test_step_that_stays_at_zero(self):
        def stay(x, w, eps):
            assert np.array_equal(w, np.ones(4))  # (0 + 1^kappa)^((p-2)/2)
            return x.copy()

        cfg = SolverConfig(s=1)
        run = _reweight(4, 0.7, cfg, stay)
        assert (run.outer, run.status) == (1, "sparsity_reached")
        run = _reweight(4, 0.7, cfg, stay, stop_on_step=True)
        assert (run.outer, run.status) == (1, "step_converged")

    def test_eps_underflow_freezes_at_start(self):
        cfg = SolverConfig(s=1, eps0=1e-120)  # eps0^3 underflows to 0
        run = _reweight(4, 0.7, cfg, self.alternate)
        assert (run.outer, run.status) == (0, "sparsity_reached")
        assert np.array_equal(run.x, np.zeros(4)) and run.eps_trace == []
