import functools
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import cho_solve

from tlpsparse.penalty import PenaltyParams, penalty_tlp
from tlpsparse.sensing import (SensingMatrix, gen_dct, gen_gaussian,
                               gen_signal)
from tlpsparse.solver import (Schedule, _constrained_ls, _f_w_res, _reweight,
                              _scaled_gram, _SpdSolver, _weights,
                              dca_subproblem, f_w_value,
                              grad_f_w, grad_phi_w, irls_constrained,
                              irls_lq_baseline, irls_tlp, j_closed_form,
                              tail_magnitude)

from oracles import j_functional, phi_w, solve_result_dict


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
        cfg = Schedule()
        res = dca_subproblem(np.eye(4), np.zeros(4), params, np.ones(4), cfg)
        assert np.all(res.x == 0.0)
        assert res.converged

    def test_identity_matrix_against_grid_oracle(self):
        params = PenaltyParams(1.0, 0.7)
        cfg = Schedule(lam=1e-6, inner_max=50)
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
            cfg = Schedule(lam=1e-3, inner_max=40)
            res = dca_subproblem(A, y, params, w, cfg)
            f = res.f_trace
            assert np.all(np.diff(f) <= 1e-10 * np.abs(f[:-1]) + 1e-300)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            dca_subproblem(np.eye(3), np.zeros(3), PenaltyParams(1, 0.5),
                           np.array([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("y,w,says", [
        ([1.0, np.nan, 0.0], np.ones(3), "y must be finite"),
        ([1.0, np.inf, 0.0], np.ones(3), "y must be finite"),
        (np.ones(3), [1.0, np.nan, 1.0], "weights w must be"),
        (np.ones(3), [1.0, np.inf, 1.0], "weights w must be"),
        (np.ones(2), np.ones(3), re.escape("y has shape (2,), expected (3,)")),
        (np.ones((3, 1)), np.ones(3),
         re.escape("y has shape (3, 1), expected (3,)")),
        (np.ones(3), np.ones(4), re.escape("w has shape (4,), expected (3,)")),
        (np.ones(3), 1.0, re.escape("w has shape (), expected (3,)")),
    ], ids=["y_nan", "y_inf", "w_nan", "w_inf", "y_short", "y_column",
            "w_long", "w_scalar"])
    def test_bad_y_or_w_is_named(self, y, w, says):
        # a NaN used to run every inner step and return an all-NaN x, and
        # a wrong length to fail with numpy's broadcast error
        with pytest.raises(ValueError, match=says):
            dca_subproblem(np.eye(3), np.asarray(y), PenaltyParams(1, 0.7),
                           np.asarray(w))

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf, "a", True])
    def test_bad_tol_is_named(self, tol):
        # a negative or NaN tol used to run every inner step unconverged
        with pytest.raises(ValueError, match="^tol must be "):
            dca_subproblem(np.eye(3), np.ones(3), PenaltyParams(1, 0.7),
                           np.ones(3), tol=tol)

    @pytest.mark.parametrize("family", ["gaussian", "dct"])
    def test_bit_identical_to_unfused_loop(self, family):
        # the fused step must reproduce, bit for bit, the loop built from
        # the public gradient, scipy's cho_solve and the f_w formula
        if family == "gaussian":
            A, s = gen_gaussian(64, 256, 0.0, seed=61).entries, 10
        else:
            A, s = gen_dct(100, 1500, 10.0, seed=62).entries, 5
        N = A.shape[1]
        x0 = gen_signal(N, s, seed=63).vector
        y = A @ x0
        near = x0 + 1e-2 * np.random.default_rng(64).standard_normal(N)
        cfg = Schedule()
        stops = set()
        for a in (0.1, 1.0, 5.0):
            for p in (0.5, 0.7, 1.0):
                params = PenaltyParams(a, p)
                w = _weights(near, 0.1, cfg.kappa, p)
                got = dca_subproblem(A, y, params, w, cfg)
                x, res, trace, n, conv = unfused_dca(A, y, params, w, cfg)
                assert np.array_equal(got.x, x), (a, p)
                assert np.array_equal(got.residual, res), (a, p)
                assert np.array_equal(got.f_trace, trace), (a, p)
                assert (got.iters, got.converged) == (n, conv), (a, p)
                stops.add(conv)
        assert stops == {True, False}  # both stopping rules were reached


def unfused_dca(A, y, params, w, cfg):
    """The DCA inner loop step by step: grad_phi_w, a scipy cho_solve on
    _SpdSolver's factor in residual form, and _f_w_res per iterate."""
    a, lam, c = params.a, cfg.lam, cfg.c
    coef = 2.0 * lam * (a + 1.0) / a
    spd = _SpdSolver(A, 2.0 * c + coef * w, y=y)
    x, res = np.zeros(A.shape[1]), y
    trace = [_f_w_res(params, lam, w, x, res)]
    iters, converged = 0, False
    for _ in range(cfg.inner_max):
        v = lam * (a + 1.0) * grad_phi_w(params, w, x) + 2.0 * c * x
        r = cho_solve(spd._factor, y - A @ (spd._dinv * v),
                      check_finite=False)
        x_new = spd._dinv * (v + A.T @ r)
        step = float(np.max(np.abs(x_new - x)))
        x, res = x_new, r
        iters += 1
        trace.append(_f_w_res(params, lam, w, x, res))
        if step < cfg.inner_tol * max(float(np.max(np.abs(x))), 1.0):
            converged = True
            break
    return x, res, np.asarray(trace), iters, converged


class TestSpdSystem:
    def test_eigenvalues_at_least_2c(self):
        rng = np.random.default_rng(17)
        params = PenaltyParams(1.0, 0.7)
        cfg = Schedule(c=1e-2)
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
        x, _ = _SpdSolver(A, d, np.zeros(10)).solve(rhs)
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
                x, _ = _SpdSolver(A, d, y=y).solve(v)
                res = A.T @ (A @ x) + d * x - b
                scale = (np.linalg.norm(A, 2) ** 2 * np.linalg.norm(x)
                         + np.linalg.norm(d * x) + np.linalg.norm(b))
                assert np.linalg.norm(res) <= 1e-13 * scale, s

    def test_backward_residual_both_routes_256x1024(self):
        rng = np.random.default_rng(43)
        for s in (40, 128):
            A, d, y, v = _dca_like_system(rng, 256, 1024, s)
            b = A.T @ y + v
            x, _ = _SpdSolver(A, d, y=y).solve(v)
            res = A.T @ (A @ x) + d * x - b
            scale = (np.linalg.norm(A, 2) ** 2 * np.linalg.norm(x)
                     + np.linalg.norm(d * x) + np.linalg.norm(b))
            assert np.linalg.norm(res) <= 1e-13 * scale, s

    def test_solvers_own_steps_keep_backward_error_small(self, monkeypatch):
        # adversarial right-hand sides reach about 3e-12 (the test above
        # allows 1e-13); the steps tlp and lq actually take on a desk
        # matrix measured at most 2.9e-16 (tlp) and 1.7e-15 (lq), relative
        # to ||A||^2 ||x|| + ||D x|| + ||b||
        A = gen_gaussian(64, 256, 0.0, seed=71)
        norm2 = np.linalg.norm(A.entries, 2) ** 2
        errs = []
        init, solve = _SpdSolver.__init__, _SpdSolver.solve

        def keep_d(self, A, d, y=None):
            init(self, A, d, y)
            self.d = d

        def checked(self, v):
            x, r = solve(self, v)
            b = self._A.T @ self._y + v
            res = self._A.T @ (self._A @ x) + self.d * x - b
            errs.append(np.linalg.norm(res) / (
                norm2 * np.linalg.norm(x) + np.linalg.norm(self.d * x)
                + np.linalg.norm(b)))
            return x, r

        monkeypatch.setattr(_SpdSolver, "__init__", keep_d)
        monkeypatch.setattr(_SpdSolver, "solve", checked)
        statuses = set()
        for s in (14, 24, 32):
            y = A.entries @ gen_signal(256, s, seed=72 + s).vector
            for res in (irls_tlp(A, y, PenaltyParams(1, 0.7), s),
                        irls_lq_baseline(A, y, 0.5, s)):
                statuses.add(res.status)
        assert statuses == {"sparsity_reached", "step_converged"}
        assert len(errs) > 2000
        assert max(errs) <= 1e-14

    def test_dca_trace_ends_at_f_w_value(self):
        # the trace is recorded from the solve's own residual; its last
        # entry must agree with a fresh f_w_value at the returned x
        rng = np.random.default_rng(53)
        params = PenaltyParams(1.0, 0.7)
        cfg = Schedule()
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
    "tlp": lambda A, y, s=1, cfg=Schedule(): irls_tlp(
        A, y, PenaltyParams(1, 0.7), s, cfg),
    "lq": lambda A, y, s=1, cfg=Schedule(): irls_lq_baseline(
        A, y, 0.5, s, cfg),
    "constrained": lambda A, y, s=1, cfg=Schedule(): irls_constrained(
        A, y, PenaltyParams(1, 0.7), s, cfg),
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


BAD_MATRICES = {"nan": np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0]]),
                "1d": np.ones(3), "no_rows": np.empty((0, 3))}


@pytest.mark.parametrize("A", BAD_MATRICES.values(), ids=BAD_MATRICES.keys())
@pytest.mark.parametrize("solve", [
    *SOLVERS.values(),
    lambda A, y: dca_subproblem(A, y, PenaltyParams(1, 0.7), np.ones(3))],
    ids=[*SOLVERS, "dca"])
def test_bad_matrix_is_named(solve, A):
    # checked once, as a SensingMatrix, before y is looked at
    with pytest.raises(ValueError, match="^A: entries must be"):
        solve(A, np.ones(2))


@pytest.mark.parametrize("solve", SOLVERS.values(), ids=SOLVERS.keys())
def test_memory_layout_moves_no_bit(solve):
    # every solve runs on a SensingMatrix's C-ordered copy, so a
    # Fortran-ordered caller's array, raw or wrapped, gives the same run
    A = gen_gaussian(16, 48, 0.0, seed=5)
    y = A.entries @ gen_signal(48, 4, seed=6).vector
    fortran = np.asfortranarray(A.entries)
    runs = [solve(B, y, s=4) for B in (A, fortran,
                                      SensingMatrix(entries=fortran))]
    for r in runs[1:]:
        assert np.array_equal(r.x.view(np.int64), runs[0].x.view(np.int64))
        assert ((r.status, r.outer_iters, r.total_inner_iters)
                == (runs[0].status, runs[0].outer_iters,
                    runs[0].total_inner_iters))


@pytest.mark.parametrize("solve", SOLVERS.values(), ids=SOLVERS.keys())
def test_a_solve_copies_the_matrix_at_most_once(solve, monkeypatch):
    # a SensingMatrix is never copied and a raw array once, however many
    # outer and inner steps the solve takes
    built = []
    post_init = SensingMatrix.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    A = gen_gaussian(16, 48, 0.0, seed=5)
    y = A.entries @ gen_signal(48, 4, seed=6).vector
    monkeypatch.setattr(SensingMatrix, "__post_init__", counted)
    assert solve(A, y, s=4).outer_iters > 1
    assert len(built) == 0
    solve(A.entries, y, s=4)
    assert len(built) == 1


class TestIrlsTlp:
    def test_zero_measurements(self):
        res = irls_tlp(np.eye(8), np.zeros(8), PenaltyParams(1, 0.7), 2)
        assert np.all(res.x == 0.0)
        assert res.status == "sparsity_reached"
        assert res.outer_iters == 1

    def test_recovers_sparse_signal(self):
        A = gen_gaussian(64, 256, 0.0, seed=42)
        truth = gen_signal(256, 10, seed=43)
        y = A.entries @ truth.vector
        cfg = Schedule()
        res = irls_tlp(A, y, PenaltyParams(1.0, 0.7), 10, cfg)
        rel = np.linalg.norm(res.x - truth.vector) / np.linalg.norm(truth.vector)
        assert rel < 1e-3
        assert res.residual < 1e-6 * np.linalg.norm(y)
        if res.status == "sparsity_reached":
            assert tail_magnitude(res.x, 10) < cfg.outer_tol_mag

    @pytest.mark.parametrize("method", SOLVERS)
    def test_eps_monotone_and_weight_bound(self, method):
        # every solver reports ||w||_inf of each outer step, capped at the
        # eps that step's weights were frozen at
        A = gen_gaussian(32, 64, 0.0, seed=3)
        truth = gen_signal(64, 5, seed=4)
        y = A.entries @ truth.vector
        exponent = 0.5 if method == "lq" else 0.7
        cfg = Schedule()
        res = SOLVERS[method](A, y, 5)
        eps = np.array(res.eps_trace)
        assert np.all(np.diff(eps) <= 0.0)
        assert res.final_eps <= eps[-1]
        w_inf = np.array(res.w_inf_trace)
        assert w_inf.size == res.outer_iters
        w_bound = eps[:res.outer_iters] ** (-cfg.kappa * (2.0 - exponent)
                                            / 2.0)
        assert np.all(w_inf <= w_bound * (1 + 1e-12))

    def test_inner_descent_recorded(self):
        A = gen_gaussian(32, 64, 0.0, seed=31)
        truth = gen_signal(64, 5, seed=32)
        y = A.entries @ truth.vector
        res = irls_tlp(A, y, PenaltyParams(1.0, 0.7), 5)
        for trace in res.inner_f_traces:
            f = np.asarray(trace)
            assert np.all(np.diff(f) <= 1e-10 * np.abs(f[:-1]) + 1e-300)

    def test_deterministic(self):
        A = gen_gaussian(24, 48, 0.0, seed=55)
        truth = gen_signal(48, 4, seed=56)
        y = A.entries @ truth.vector
        r1 = irls_tlp(A, y, PenaltyParams(1, 0.7), 4)
        r2 = irls_tlp(A, y, PenaltyParams(1, 0.7), 4)
        assert np.array_equal(r1.x, r2.x)
        assert r1.outer_iters == r2.outer_iters
        assert r1.objective_trace == r2.objective_trace

    def test_dimension_errors(self):
        with pytest.raises(ValueError):
            irls_tlp(np.eye(4), np.zeros(3), PenaltyParams(1, 0.7), 1)
        with pytest.raises(ValueError):
            irls_tlp(np.eye(4), np.zeros(4), PenaltyParams(1, 0.7), 4)

    def test_result_serializes(self):
        import json
        res = irls_tlp(np.eye(4), np.zeros(4), PenaltyParams(1, 0.7), 1)
        blob = json.dumps(res.to_dict())
        assert "objective_trace" in blob

    # each solver with its parameters and the trace only it fills
    @pytest.mark.parametrize("solve, params, filled", [
        (irls_tlp, PenaltyParams(1, 0.7), "inner_f_traces"),
        (irls_constrained, PenaltyParams(1, 0.7), "j_trace"),
        (irls_lq_baseline, 0.5, "eps_trace")])
    def test_to_dict_matches_asdict(self, solve, params, filled):
        # the same keys in the same order and the same values as a deep
        # copy by dataclasses.asdict, in fresh lists (nested ones too)
        A = gen_gaussian(12, 32, 0.0, seed=71).entries
        y = A @ gen_signal(32, 3, seed=72).vector
        res = solve(A, y, params, 3)
        assert getattr(res, filled)
        d, want = res.to_dict(), solve_result_dict(res)
        assert list(d) == list(want) and d == want
        assert json.dumps(d) == json.dumps(want)
        for name, value in d.items():
            if isinstance(value, list):
                assert value is not getattr(res, name)
                for got, held in zip(value, getattr(res, name)):
                    assert not isinstance(got, list) or got is not held

    @pytest.mark.parametrize("a", [1e-300, 1e308])
    def test_stops_at_the_first_non_finite_iterate(self, a):
        # the first DCA step is NaN at these a (0 / 0, or an overflow); the
        # driver stops there instead of running outer_max NaN steps, and
        # the status says so without a numpy warning
        A = gen_gaussian(6, 12, 0.0, seed=61).entries
        y = A @ gen_signal(12, 2, seed=62).vector
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = irls_tlp(A, y, PenaltyParams(a, 0.7), 2)
        assert res.status == "not_finite"
        assert res.outer_iters <= 2
        assert not np.isfinite(res.x).all()

    def test_wide_matrix_uses_dual_solve_and_recovers(self):
        # every SPD step of this solve factors the 20 x 20 dual
        from tlpsparse.sensing import gen_dct
        A = gen_dct(20, 120, 2.0, seed=303)
        truth = gen_signal(120, 2, seed=703)
        y = A.entries @ truth.vector
        res = irls_tlp(A, y, PenaltyParams(1.0, 1.0), 2)
        rel = np.linalg.norm(res.x - truth.vector) / np.linalg.norm(truth.vector)
        assert rel < 1e-3


def fixed_tol_tlp(A, y, params, s, cfg):
    """irls_tlp's outer loop from _reweight and dca_subproblem at its
    default tolerance, cfg.inner_tol, with the solver's traces."""
    inner = []

    def step(x, w, eps):
        r = dca_subproblem(A, y, params, w, cfg)
        inner.append(r.f_trace.tolist())
        return r.x, float(cfg.lam * penalty_tlp(params, r.x)
                          + 0.5 * (r.residual @ r.residual)), r.iters

    run, w = _reweight(A, y, s, cfg, params.p, "fixed_tol", step)
    grad_inf = float(np.max(np.abs(grad_f_w(A, y, params, cfg.lam, w,
                                            run.x))))
    return run, run.objective_trace, inner, grad_inf


class TestInnerTolEps:
    @pytest.mark.parametrize("family", ["gaussian", "dct"])
    def test_fallback_is_the_fixed_tolerance_bit_for_bit(self, family):
        # inner_tol_eps = inner_tol makes the eps-tied tolerance
        # max(inner_tol, inner_tol * min(eps, 1)) = inner_tol at every step
        if family == "gaussian":
            A, s, p = gen_gaussian(64, 256, 0.0, seed=81).entries, 12, 0.7
        else:
            A, s, p = gen_dct(100, 1500, 10.0, seed=82).entries, 5, 1.0
        x0 = gen_signal(A.shape[1], s, seed=83).vector
        y = A @ x0
        params = PenaltyParams(1.0, p)
        cfg = Schedule(inner_tol_eps=Schedule.inner_tol)
        got = irls_tlp(A, y, params, s, cfg)
        run, obj, inner, grad_inf = fixed_tol_tlp(A, y, params, s, cfg)
        assert np.array_equal(got.x, run.x)
        assert np.array_equal(got.objective_trace, obj)
        assert np.array_equal(got.eps_trace, run.eps_trace)
        assert np.array_equal(got.w_inf_trace, run.w_inf_trace)
        assert len(got.inner_f_traces) == len(inner)
        for t_got, t_ref in zip(got.inner_f_traces, inner):
            assert np.array_equal(t_got, t_ref)
        assert got.final_grad_inf == grad_inf
        assert got.final_eps == run.final_eps
        assert got.outer_iters == run.outer_iters
        assert got.total_inner_iters == sum(len(t) - 1 for t in inner)
        assert got.status == run.status
        assert np.linalg.norm(got.x - x0) < 1e-3 * np.linalg.norm(x0)

    @pytest.mark.parametrize("s, seed, recovered, default, fixed", [
        (14, 1, True, (13, 78), (13, 119)),
        (32, 4, False, (288, 2062), (289, 4386))])
    def test_loose_early_solves_save_inner_steps(self, s, seed, recovered,
                                                 default, fixed):
        # (outer, inner) counts with the default inner_tol_eps and with
        # the fixed tolerance; both are deterministic, so pinned exactly
        A = gen_gaussian(64, 256, 0.0, seed).entries
        x0 = gen_signal(256, s, seed + 100).vector
        y = A @ x0
        params = PenaltyParams(1.0, 0.7)
        loose = irls_tlp(A, y, params, s)
        tight = irls_tlp(A, y, params, s,
                         Schedule(inner_tol_eps=Schedule.inner_tol))
        assert (loose.outer_iters, loose.total_inner_iters) == default
        assert (tight.outer_iters, tight.total_inner_iters) == fixed
        assert loose.total_inner_iters < tight.total_inner_iters
        rel = [np.linalg.norm(r.x - x0) / np.linalg.norm(x0)
               for r in (loose, tight)]
        if recovered:
            assert max(rel) < 1e-3
            # the A10 stationarity bound of the acceptance gate
            bound = 1e-6 * (1.0 + np.max(np.abs(A.T @ y)))
            assert loose.final_grad_inf <= bound
        else:
            assert min(rel) > 1e-3


class TestIrlsConstrained:
    def test_identity_matrix_returns_y(self):
        y = np.array([0.5, -1.5, 2.0, 0.0])
        res = irls_constrained(np.eye(4), y, PenaltyParams(1.0, 0.7), 3)
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
        cfg = Schedule(outer_max=40)
        res = irls_constrained(A, y, PenaltyParams(1.0, 0.7), 3, cfg,
                               exact_update=True)
        j = np.asarray(res.j_trace)
        assert np.all(np.diff(j) <= 1e-10 * np.abs(j[:-1]) + 1e-300)

    def test_sandwich_bound_each_iteration(self):
        A = gen_gaussian(16, 32, 0.0, seed=63)
        truth = gen_signal(32, 3, seed=64)
        y = A.entries @ truth.vector
        params = PenaltyParams(1.0, 0.7)
        cfg = Schedule(outer_max=40)
        res = irls_constrained(A, y, params, 3, cfg)
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
        cfg = Schedule(outer_max=40)
        res = irls_constrained(A, y, PenaltyParams(1.0, 0.7), 4, cfg,
                               exact_update=True)
        assert max(res.objective_trace) <= res.j_trace[0] + 1e-10

    def test_feasible_iterates(self):
        A = gen_gaussian(12, 30, 0.0, seed=67)
        truth = gen_signal(30, 3, seed=68)
        y = A.entries @ truth.vector
        res = irls_constrained(A, y, PenaltyParams(1.0, 0.7), 3)
        assert res.residual < 1e-8 * np.linalg.norm(y)

    def test_recovers_sparse_signal(self):
        A = gen_gaussian(16, 32, 0.0, seed=501)
        truth = gen_signal(32, 3, seed=901)
        y = A.entries @ truth.vector
        res = irls_constrained(A, y, PenaltyParams(1.0, 0.7), 3)
        rel = np.linalg.norm(res.x - truth.vector) / np.linalg.norm(truth.vector)
        assert rel < 1e-3

    def test_exact_update_square_invertible(self):
        # feasible set is a single point; the polish must short-circuit
        y = np.array([1.0, -2.0, 0.5])
        res = irls_constrained(np.eye(3), y, PenaltyParams(1.0, 0.7), 2,
                               exact_update=True)
        assert np.allclose(res.x, y, atol=1e-8)
        assert res.total_inner_iters == res.outer_iters

    @pytest.mark.parametrize("flag", ["no", 0.5, 1, None])
    def test_exact_update_takes_a_bool_only(self, flag):
        # a truthy non-bool used to run the L-BFGS polish
        with pytest.raises(ValueError, match=re.escape(
                f"exact_update must be true or false, got {flag!r}")):
            irls_constrained(np.eye(3), np.ones(3), PenaltyParams(1.0, 0.7),
                             2, exact_update=flag)

    def test_inner_iters_count_solves_and_polish_iterations(self):
        # one weighted least-squares solve per step, plus the L-BFGS
        # iterations of the polishes under exact_update
        A = gen_gaussian(16, 32, 0.0, seed=61)
        y = A.entries @ gen_signal(32, 3, seed=62).vector
        cfg = Schedule(outer_max=10)
        plain = irls_constrained(A, y, PenaltyParams(1.0, 0.7), 3, cfg)
        exact = irls_constrained(A, y, PenaltyParams(1.0, 0.7), 3, cfg,
                                 exact_update=True)
        assert plain.total_inner_iters == plain.outer_iters
        assert exact.total_inner_iters > exact.outer_iters

    def test_zero_matrix_returns_zero(self):
        # A = 0 makes A D A^T and its trace 0, so the ridge falls back to
        # 1e-12 and the step returns x = 0, the sparsest x of all those
        # A x = 0 allows; the step stop ends the run after one step
        with pytest.warns(RuntimeWarning, match="ridge"):
            res = irls_constrained(np.zeros((4, 8)), np.zeros(4),
                                   PenaltyParams(1.0, 0.7), 2)
        assert np.all(res.x == 0.0)
        assert (res.status, res.outer_iters) == ("step_converged", 1)

    @pytest.mark.parametrize("A, y, s, status, outer, low, high", [
        (np.zeros((4, 8)), np.ones(4), 2, "step_converged", 1, 2.0, 2.0),
        # the least residual any x reaches is sqrt(1/2); where the run ends
        # above it depends on the BLAS kernel (0.70711 on Haswell, 0.71839
        # on SkylakeX), since every step factors a singular system
        ([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]], [1.0, 2.0], 1,
         "max_iters", 2000, np.sqrt(0.5), 0.72)],
        ids=["zero-matrix", "repeated-row"])
    def test_inconsistent_system_shows_only_in_the_residual(
            self, A, y, s, status, outer, low, high):
        # no x solves A x = y here, yet the status is one a solved system
        # can end with; only the residual ||A x - y|| > 0 tells them apart
        with pytest.warns(RuntimeWarning, match="ridge"):
            res = irls_constrained(A, y, PenaltyParams(1.0, 0.7), s)
        assert (res.status, res.outer_iters) == (status, outer)
        assert low <= res.residual <= high

    @pytest.mark.parametrize("M, N, seed, a, scale", [
        (32, 64, 3, 1e308, 1.0), (16, 48, 5, 1.0, 1e160)],
        ids=["huge-a", "huge-y"])
    def test_weight_overflow_ends_not_finite(self, M, N, seed, a, scale):
        # (a+1) w, or x^2 in w, overflows, so some least-squares weight is
        # 0 or inf; the step breaks down, as tlp's does at these settings,
        # instead of a ridge warning, a LAPACK or a scipy error
        A = gen_gaussian(M, N, 0.0, seed=seed).entries
        y = scale * (A @ gen_signal(N, 4, seed=seed + 1).vector)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = irls_constrained(A, y, PenaltyParams(a, 0.7), 4)
        assert res.status == "not_finite"
        assert np.isnan(res.x).all()
        assert res.outer_iters == len(res.w_inf_trace) >= 1


class TestIrlsLq:
    def test_zero_measurements(self):
        res = irls_lq_baseline(np.eye(6), np.zeros(6), 0.5, 2)
        assert np.all(res.x == 0.0)

    def test_identity_against_prox_oracle(self):
        y = np.array([2.0, -1.0, 0.0, 3.0])
        cfg = Schedule(lam=1e-6, outer_max=200)
        res = irls_lq_baseline(np.eye(4), y, 1.0, 2, cfg)
        grid = np.linspace(-5.0, 5.0, 2_000_001)
        want = np.empty(4)
        for i, yi in enumerate(y):
            vals = cfg.lam * np.abs(grid) + 0.5 * (grid - yi) ** 2
            want[i] = grid[np.argmin(vals)]
        assert np.max(np.abs(res.x - want)) < 1e-3

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            irls_lq_baseline(np.eye(3), np.zeros(3), 1.5, 1)


class TestConfigValidation:
    def test_eps0_power_must_be_a_finite_float(self):
        # the first weight update adds eps0 ** kappa to x^2
        for knobs, got in [({"eps0": 1e300}, "eps0=1e+300, kappa=3.0"),
                           ({"eps0": 1e100, "kappa": 4.0},
                            "eps0=1e+100, kappa=4.0")]:
            with pytest.raises(ValueError, match=re.escape(
                    f"eps0 ** kappa must be a finite float, got {got}")):
                Schedule(**knobs)
        assert Schedule(eps0=1e100).eps0 == 1e100  # 1e300 is finite

    def test_positive_fields(self):
        for solve in SOLVERS.values():
            with pytest.raises(ValueError, match="^s must be positive"):
                solve(np.eye(3), np.ones(3), s=0)
        with pytest.raises(ValueError):
            Schedule(lam=0.0)
        with pytest.raises(ValueError):
            Schedule(inner_max=0)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(s=1.0), "s"), (dict(inner_max=20.0), "inner_max"),
        (dict(outer_max=True), "outer_max"), (dict(lam="1"), "lam")])
    def test_knob_types(self, kwargs, name):
        knobs = dict(kwargs)
        s = knobs.pop("s", 1)
        with pytest.raises(ValueError, match=f"^{name} must be an? "):
            irls_tlp(np.eye(3), np.ones(3), PenaltyParams(1, 0.7), s,
                     Schedule(**knobs))

    def test_float_knobs_take_any_real_number(self):
        assert Schedule(lam=1, kappa=np.float64(3.0)).lam == 1


class TestReweight:
    """The shared outer driver, with fake steps, under both stall rules."""

    U = np.array([3.0, 1.0, 0.0, 0.0])
    V = np.array([1.0, 3.0, 0.0, 0.0])  # same tail magnitude at s = 1

    def alternate(self, x, w, eps):
        return (self.V if np.array_equal(x, self.U) else self.U), 0.0, 0

    @staticmethod
    def reweight(cfg, step, stop_on_step=False):
        return _reweight(np.eye(4), np.zeros(4), 1, cfg, 0.7, "fake", step,
                         stop_on_step)[0]

    def test_alternating_step_with_equal_tails(self):
        cfg = Schedule(outer_max=7)
        run = self.reweight(cfg, self.alternate)
        assert (run.outer_iters, run.status) == (2, "step_converged")
        assert run.eps_trace == [1.0, 0.5]
        run = self.reweight(cfg, self.alternate, stop_on_step=True)
        assert (run.outer_iters, run.status) == (7, "max_iters")

    def test_step_that_stays_at_zero(self):
        def stay(x, w, eps):
            assert np.array_equal(w, np.ones(4))  # (0 + 1^kappa)^((p-2)/2)
            return x.copy(), 0.0, 0

        cfg = Schedule()
        run = self.reweight(cfg, stay)
        assert (run.outer_iters, run.status) == (1, "sparsity_reached")
        run = self.reweight(cfg, stay, stop_on_step=True)
        assert (run.outer_iters, run.status) == (1, "step_converged")

    def test_stops_at_the_first_non_finite_iterate(self):
        # the iterate is tested, not the objective, which may overflow
        # while x stays finite
        def step(x, w, eps):
            if not x.any():
                return self.U, np.inf, 3
            return np.array([np.nan, 1.0, 0.0, 0.0]), 0.0, 4

        for stop_on_step in (False, True):
            run = self.reweight(Schedule(), step, stop_on_step)
            assert (run.outer_iters, run.status) == (2, "not_finite")
            assert run.objective_trace == [np.inf, 0.0]
            assert run.total_inner_iters == 7

    def test_eps_underflow_freezes_at_start(self):
        cfg = Schedule(eps0=1e-120)  # eps0^3 underflows to 0
        run = self.reweight(cfg, self.alternate)
        assert (run.outer_iters, run.status) == (0, "sparsity_reached")
        assert np.array_equal(run.x, np.zeros(4)) and run.eps_trace == []

    @pytest.mark.parametrize("kappa", [3, 50, 200, 400])
    @pytest.mark.parametrize("method", SOLVERS)
    def test_sparsity_reached_means_a_small_tail(self, method, kappa):
        # from kappa = 50 on, eps^kappa underflows after a step whose tail
        # failed the sparsity test (0.16-0.22 at kappa = 400): that run
        # has stalled, it has not reached sparsity
        A = gen_gaussian(32, 64, 0.0, seed=3).entries
        y = A @ gen_signal(64, 5, seed=4).vector
        cfg = Schedule(kappa=kappa)
        res = SOLVERS[method](A, y, 5, cfg)
        if res.status == "sparsity_reached":
            assert tail_magnitude(res.x, 5) < cfg.outer_tol_mag


class TestMetamorphic:
    """Symmetries of all three solvers on 16 x 48 Gaussian problems, at a
    recovering (s = 4) and a failing (s = 7) sparsity.  Sign flips are
    exact in floating point, so they must hold bit for bit, also on a
    near-coherent 16 x 48 DCT; permutations and rotations hold to
    rounding."""

    @staticmethod
    def problem(s, family="gaussian"):
        A = (gen_gaussian(16, 48, 0.0, seed=5) if family == "gaussian"
             else gen_dct(16, 48, 20.0, seed=5)).entries
        return A, A @ gen_signal(48, s, seed=6).vector

    @staticmethod
    @functools.cache
    def base(method, s):
        A, y = TestMetamorphic.problem(s)
        return SOLVERS[method](A, y, s)

    @staticmethod
    def check_same_run(method, s, A, y, back):
        # the status, the outer and inner counts and the success bit of
        # the base problem, and its x, to rounding, once ``back`` maps x
        base = TestMetamorphic.base(method, s)
        got = SOLVERS[method](A, y, s)
        assert (got.status, got.outer_iters, got.total_inner_iters) == \
            (base.status, base.outer_iters, base.total_inner_iters)
        x = back(got.x)
        assert np.max(np.abs(x - base.x)) <= 1e-12
        x0 = gen_signal(48, s, seed=6).vector
        rel = [np.linalg.norm(v - x0) / np.linalg.norm(x0)
               for v in (base.x, x)]
        assert (rel[0] < 1e-3) == (rel[1] < 1e-3) == (s == 4)

    @pytest.mark.parametrize("s", [4, 7])
    @pytest.mark.parametrize("method", SOLVERS)
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(perm=st.permutations(range(48)))
    def test_column_permutation(self, method, s, perm):
        # permuting the columns of A permutes x
        A, y = self.problem(s)
        self.check_same_run(method, s, A[:, perm], y,
                            lambda x: x[np.argsort(perm)])

    @pytest.mark.parametrize("s", [4, 7])
    @pytest.mark.parametrize("method", SOLVERS)
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(perm=st.permutations(range(16)))
    def test_row_permutation(self, method, s, perm):
        # reordering the equations leaves x as it is
        A, y = self.problem(s)
        self.check_same_run(method, s, A[perm], y[perm], lambda x: x)

    @pytest.mark.parametrize("s", [4, 7])
    @pytest.mark.parametrize("method", SOLVERS)
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_rotation(self, method, s, seed):
        # (Q A, Q y) for an orthogonal Q has the same Gram matrix, residual
        # norms and solution
        Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(
            (16, 16)))
        A, y = self.problem(s)
        self.check_same_run(method, s, Q @ A, Q @ y, lambda x: x)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 8: recovery depends on the units of y; at y x 1e3, "
        "s = 4, tlp ends step_converged with rel_err 0.9"))
    def test_scaling_y_scales_x(self):
        A, y = self.problem(4)
        self.check_same_run("tlp", 4, A, 1e3 * y, lambda x: x / 1e3)

    @staticmethod
    def sign_flip_cases():
        # the Gaussian problem, where s = 4 recovers and s = 7 fails, and
        # the DCT at F = 20 (coherence 0.99985), on which the constrained
        # solver adds its ridge to a singular system
        ridge = pytest.mark.filterwarnings(
            "ignore:SPD system is numerically singular:RuntimeWarning")
        for method in SOLVERS:
            for s, recovered in [(4, True), (7, False)]:
                yield pytest.param(method, "gaussian", s, recovered,
                                   id=f"{method}-{s}-{recovered}")
            for s in (2, 7):
                yield pytest.param(
                    method, "dct", s, None, id=f"{method}-dct-{s}",
                    marks=[ridge] if method == "constrained" else [])

    @pytest.mark.parametrize("method, family, s, recovered",
                             sign_flip_cases())
    @settings(max_examples=10, deadline=None)
    @given(flips=st.lists(st.booleans(), min_size=48, max_size=48),
           negate=st.booleans())
    @example(flips=[False] * 48, negate=True)
    def test_sign_flips_are_exact(self, method, family, s, recovered, flips,
                                  negate):
        # flipping columns j of A flips x_j, and y -> -y gives -x
        A, y = self.problem(s, family)
        d = np.where(flips, -1.0, 1.0)
        sign = -1.0 if negate else 1.0
        base = SOLVERS[method](A, y, s)
        got = SOLVERS[method](A * d, sign * y, s)
        assert np.array_equal(got.x, sign * d * base.x)
        assert (got.outer_iters, got.total_inner_iters, got.status) == \
            (base.outer_iters, base.total_inner_iters, base.status)
        assert got.objective_trace == base.objective_trace
        x0 = gen_signal(48, s, seed=6).vector
        success = [np.linalg.norm(x - truth) / np.linalg.norm(x0) < 1e-3
                   for x, truth in ((base.x, x0), (got.x, sign * d * x0))]
        assert success[0] == success[1]
        if recovered is not None:
            assert success[0] == recovered

    @pytest.mark.parametrize("method", SOLVERS)
    def test_zero_measurements_stop_after_one_step(self, method):
        A, _ = self.problem(4)
        res = SOLVERS[method](A, np.zeros(16), 4)
        assert res.outer_iters == 1
        assert np.array_equal(res.x, np.zeros(48))
