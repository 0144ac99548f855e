"""Acceptance gate: every shipped claim checked at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The phase-transition criteria (A7/A10 and the
baseline comparison) run a few hundred full solves and dominate the
runtime; everything else is seconds.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from tlpsparse.bench import SolverSpec
from tlpsparse.cli import main
from tlpsparse.penalty import PenaltyParams, relaxation_degree, rho
from tlpsparse.sensing import coherence, derive_seed, gen_dct, gen_gaussian, gen_signal
from tlpsparse.solver import (Schedule, dca_subproblem, grad_phi_w,
                              irls_constrained, irls_lq_baseline, irls_tlp)
from tlpsparse.theory import rip_bound, solve_eta0

from oracles import l1_transition, phi_w

MASTER_SEED = 1234


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def test_a1_closed_form_root():
    worst = 0.0
    for a in (0.1, 1.0, 10.0, 100.0):
        eta = solve_eta0(PenaltyParams(a, 1.0), 1.0)
        worst = max(worst, abs(eta - (math.sqrt(1.0 + (a + 1.0) / a) - 1.0)))
    _report("A1", worst < 1e-12,
            f"max closed-form root deviation {worst:.3e} < 1e-12")


def test_a2_sharp_bound_limit():
    delta = rip_bound(PenaltyParams(1e9, 1.0)).delta_bound
    err = abs(delta - math.sqrt(2.0) / 2.0)
    _report("A2", err < 1e-4, f"delta_bound(1e9,1,1)={delta:.6f}, "
            f"|err vs sqrt(2)/2|={err:.2e} < 1e-4")


def test_a3_relaxation_degrees_at_512():
    cases = [("tlp", 5.0, 0.7, 2.4e-3), ("lap", 5.0, 0.7, 2.5e-3),
             ("tlp", 1.0, 0.7, 1.1e-3), ("lap", 1.0, 0.7, 1.5e-3)]
    worst = 0.0
    for kind, a, p, want in cases:
        got = relaxation_degree(kind, PenaltyParams(a, p), 512)
        worst = max(worst, abs(got - want))
    _report("A3", worst < 0.05e-3,
            f"max |RD - expected| = {worst:.2e} < 5e-5 over 4 cases")


def test_a4_penalty_property_suite():
    rng = np.random.default_rng(MASTER_SEED)
    n = 10_000
    a = rng.uniform(1e-6, 100.0, n)
    a = np.maximum(a, 1e-6)
    p = rng.uniform(1e-6, 1.0, n)
    p = np.maximum(p, 1e-6)
    t1 = rng.uniform(-10.0, 10.0, n)
    t2 = rng.uniform(-10.0, 10.0, n)
    tol = 1e-12

    def r(t):
        tp = np.abs(t) ** p
        return (a + 1.0) * tp / (a + tp)

    viol = 0
    # inner-power identity (machine precision)
    lhs = r(t1)
    tp = np.abs(t1) ** p
    rhs = (a + 1.0) * tp / (a + tp)  # rho_{a,1}(|t|^p) expanded
    viol += int(np.sum(np.abs(lhs - rhs) > tol * np.maximum(1.0, lhs)))
    # monotone and bounded
    lo, hi = np.minimum(np.abs(t1), np.abs(t2)), np.maximum(np.abs(t1),
                                                            np.abs(t2))
    strict = lo < hi
    viol += int(np.sum(r(lo)[strict] >= r(hi)[strict] + tol))
    viol += int(np.sum(r(hi) >= a + 1.0))
    # sandwich
    viol += int(np.sum(r(t1) > (a + 1.0) / a * np.abs(t1) ** p + tol))
    inside = np.abs(t1) <= 1.0
    viol += int(np.sum(r(t1)[inside] > 1.0 + tol))
    viol += int(np.sum(r(t1)[inside] < (np.abs(t1) ** p)[inside] - tol))
    # scaling inequality with c := t2
    c = t2
    lhs = r(c * t1)
    rhs = np.abs(c) ** p * r(t1)
    small = np.abs(c) <= 1.0
    viol += int(np.sum(lhs[small] < rhs[small] - tol))
    viol += int(np.sum(lhs[~small] > rhs[~small] + tol))
    # quasi-triangle chain
    viol += int(np.sum(np.abs(r(t1) - r(t2)) > r(t1 + t2) + tol))
    viol += int(np.sum(r(t1 + t2) > r(np.abs(t1) + np.abs(t2)) + tol))
    viol += int(np.sum(r(np.abs(t1) + np.abs(t2)) > r(t1) + r(t2) + tol))
    viol += int(np.sum(r(t1) + r(t2)
                       > 2.0 * r((np.abs(t1) + np.abs(t2)) / 2.0) + tol))
    _report("A4", viol == 0,
            f"{viol} violations over {n} random samples (slack 1e-12)")


def test_a5_dca_descent():
    rng = np.random.default_rng(MASTER_SEED + 5)
    worst = -np.inf
    for _ in range(50):
        A = rng.standard_normal((32, 64))
        y = rng.standard_normal(32)
        w = np.exp(rng.uniform(-2.3, 2.3, 64))
        params = PenaltyParams(rng.uniform(0.3, 5.0), rng.uniform(0.3, 1.0))
        cfg = Schedule(lam=1e-3, inner_max=40)
        f = dca_subproblem(A, y, params, w, cfg).f_trace
        upticks = np.diff(f) / np.maximum(np.abs(f[:-1]), 1e-300)
        worst = max(worst, float(upticks.max()))
    _report("A5", worst <= 1e-10,
            f"max relative f_w uptick {worst:.2e} <= 1e-10 over 50 instances")


def test_a5_dca_descent_dual_route():
    # A5 at 32 x 128, which the solver factors in its m x m dual form
    rng = np.random.default_rng(MASTER_SEED + 55)
    worst = -np.inf
    for _ in range(50):
        A = rng.standard_normal((32, 128))
        y = rng.standard_normal(32)
        w = np.exp(rng.uniform(-2.3, 2.3, 128))
        params = PenaltyParams(rng.uniform(0.3, 5.0), rng.uniform(0.3, 1.0))
        cfg = Schedule(lam=1e-3, inner_max=40)
        f = dca_subproblem(A, y, params, w, cfg).f_trace
        upticks = np.diff(f) / np.maximum(np.abs(f[:-1]), 1e-300)
        worst = max(worst, float(upticks.max()))
    _report("A5-dual", worst <= 1e-10,
            f"max relative f_w uptick {worst:.2e} <= 1e-10 over 50 "
            f"instances at 32 x 128")


def test_a6_gradient_oracle():
    rng = np.random.default_rng(MASTER_SEED + 6)
    h = 1e-6
    worst = 0.0
    for _ in range(1000):
        params = PenaltyParams(rng.uniform(0.3, 5.0), rng.uniform(0.3, 1.0))
        n = 6
        w = rng.uniform(0.5, 2.0, n)
        x = rng.uniform(0.1, 3.0, n) * rng.choice([-1.0, 1.0], n)
        g = grad_phi_w(params, w, x)
        i = rng.integers(n)
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (phi_w(params, w, xp) - phi_w(params, w, xm)) / (2.0 * h)
        worst = max(worst, abs(fd - g[i]) / abs(g[i]))
    _report("A6", worst < 1e-6,
            f"max relative gradient error {worst:.2e} < 1e-6 over 1000 points")


SPEC = SolverSpec(method="tlp", a=1.0, p=0.7, kappa=3.0, lam=1e-6)


def run_phase_cell(sparsity: int, method: str = "tlp", trials: int = 20):
    """Same instance streams as the bench harness for this solver id."""
    spec = SPEC if method == "tlp" else SolverSpec(method="lq", q=0.5)
    outcomes = []
    for t in range(trials):
        mseed = derive_seed(MASTER_SEED, spec.canonical_id, sparsity, t, 0)
        sseed = derive_seed(MASTER_SEED, spec.canonical_id, sparsity, t, 1)
        A = gen_gaussian(64, 256, 0.0, mseed)
        truth = gen_signal(256, sparsity, sseed)
        y = A.entries @ truth.vector
        if method == "tlp":
            res = irls_tlp(A, y, PenaltyParams(spec.a, spec.p), sparsity,
                           spec)
        else:
            res = irls_lq_baseline(A, y, spec.q, sparsity, spec)
        rel = float(np.linalg.norm(res.x - truth.vector)
                    / np.linalg.norm(truth.vector))
        outcomes.append((rel, res, float(np.max(np.abs(A.entries.T @ y)))))
    return outcomes


A7_SPARSITIES = (14, 32)
GOLDEN_A7 = Path(__file__).parent / "golden" / "a7_tlp.json"


def a7_records(cells) -> list[list]:
    """Per trial of the a7 cells: [s, t, status, outer_iters,
    total_inner_iters, rel_err]."""
    return [[s, t, res.status, res.outer_iters, res.total_inner_iters, rel]
            for s, cell in cells.items()
            for t, (rel, res, _) in enumerate(cell)]


@pytest.fixture(scope="module")
def phase_cells():
    return {s: run_phase_cell(s) for s in A7_SPARSITIES}


def test_a7_phase_transition(phase_cells):
    rate14 = np.mean([rel < 1e-3 for rel, _, _ in phase_cells[14]])
    rate32 = np.mean([rel < 1e-3 for rel, _, _ in phase_cells[32]])
    ok = rate14 >= 0.9 and rate32 <= 0.3
    _report("A7", ok, f"success rate {rate14:.2f} >= 0.9 at s=14, "
            f"{rate32:.2f} <= 0.3 at s=32 (20 trials each)")


def check_a7_golden(got: list[list], name: str = "A7-golden") -> None:
    want = json.loads(GOLDEN_A7.read_text())
    moved = [g for g, w in zip(got, want) if g[:5] != w[:5]
             or not math.isclose(g[5], w[5], rel_tol=1e-6)]
    _report(name, len(got) == len(want) and not moved,
            f"{len(got)} trials against {len(want)} in {GOLDEN_A7.name}: "
            f"statuses and counts equal, rel_err within rtol 1e-6; "
            f"moved: {moved[:3]}")


def test_a7_golden_records(phase_cells):
    # statuses and counts held exactly under OpenBLAS's SkylakeX, Haswell,
    # Sandybridge and Nehalem kernels and at 1 and 2 threads, while rel_err
    # moved by at most 1.8e-9 relative; tests/golden/regen.py rewrites it
    check_a7_golden(a7_records(phase_cells))


def test_a7_golden_records_under_other_kernels():
    # the claim above, rerun in a fresh process under OpenBLAS's Haswell
    # kernels (AVX2) at one thread; numpy's and scipy's OpenBLAS builds pick
    # their kernels at load time from OPENBLAS_CORETYPE, and a BLAS that is
    # not OpenBLAS ignores it, so this then repeats the test above
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               OPENBLAS_NUM_THREADS="1")
    # run from this process's directory, which a relative PYTHONPATH needs
    code = (f"import json, sys; sys.path.insert(0, "
            f"{str(Path(__file__).parent)!r}); import test_acceptance as acc; "
            f"print(json.dumps(acc.a7_records({{s: acc.run_phase_cell(s) "
            f"for s in acc.A7_SPARSITIES}})))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    check_a7_golden(json.loads(out), "A7-golden-Haswell")


HEAT_SWEEP = Path(__file__).resolve().parent.parent / "plans" / \
    "heat_sweep_s24.json"
GOLDEN_HEAT = Path(__file__).parent / "golden" / "heat_sweep_s24.json"


def heat_sweep_records() -> list[list]:
    """Per cell of ``bench --plan plans/heat_sweep_s24.json --trials 1``,
    from its success CSV: [a, p, successes, mean_rel_err]."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["bench", "--plan", str(HEAT_SWEEP), "--trials", "1"])
    if code != 0:
        raise RuntimeError(f"bench exited {code}")
    return [[float(r["a"]), float(r["p"]), int(r["successes"]),
             float(r["mean_rel_err"])]
            for r in csv.DictReader(io.StringIO(out.getvalue()))]


def test_heat_sweep_golden_records():
    # successes held exactly under OpenBLAS's SkylakeX, Haswell, Sandybridge
    # and Nehalem kernels and at 1 and 2 threads, while mean_rel_err moved
    # by at most 2e-9 relative; tests/golden/regen.py rewrites it
    want = json.loads(GOLDEN_HEAT.read_text())
    got = heat_sweep_records()
    moved = [g for g, w in zip(got, want) if g[:3] != w[:3]
             or not math.isclose(g[3], w[3], rel_tol=1e-6)]
    _report("HEAT-golden", len(got) == len(want) and not moved,
            f"{len(got)} cells against {len(want)} in {GOLDEN_HEAT.name}: "
            f"a, p and successes equal, mean_rel_err within rtol 1e-6; "
            f"moved: {moved[:3]}")


# the files workload's shapes, as (family, M, N, param, s, seed): the
# matrix is drawn with ``seed`` and the signal with ``seed + 1``
SOLVE_FILES = (("gaussian", 256, 1024, 0.0, 20, 7),
               ("dct", 100, 1500, 1.0, 6, 9))
GOLDEN_SOLVE = Path(__file__).parent / "golden" / "solve_out.json"


def solve_out_records(workdir: Path) -> dict:
    """The ``solve --out`` JSON of tlp, lq and constrained on each
    SOLVE_FILES problem, run through ``cli.main`` on files in
    ``workdir``, keyed ``family.method``, without ``wall_time_ms``."""
    records = {}
    for family, M, N, param, s, seed in SOLVE_FILES:
        matrix = workdir / f"{family}.csv"
        truth = workdir / f"{family}.truth.txt"
        assert main(["gen-matrix", "--family", family, "--M", str(M),
                     "--N", str(N), "--param", repr(param),
                     "--seed", str(seed), "--out", str(matrix)]) == 0
        x0 = gen_signal(N, s, seed + 1).vector
        truth.write_text("".join(f"{v!r}\n" for v in x0.tolist()))
        for method in ("tlp", "lq", "constrained"):
            out = workdir / f"{family}.{method}.json"
            assert main(["solve", "--matrix", str(matrix), "--truth",
                         str(truth), "--s", str(s), "--method", method,
                         "--out", str(out)]) == 0
            record = json.loads(out.read_text())
            del record["wall_time_ms"]
            records[f"{family}.{method}"] = record
    return records


def solve_out_close(got, want) -> bool:
    """Equal, item by item and key by key, but that floats need only lie
    within rtol 1e-6 or 1e-12 absolute."""
    if isinstance(want, float):
        return isinstance(got, float) and math.isclose(
            got, want, rel_tol=1e-6, abs_tol=1e-12)
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(map(solve_out_close, got, want)))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(solve_out_close(got[k], want[k]) for k in want))
    return type(got) is type(want) and got == want


def test_solve_out_golden_records(tmp_path):
    # solver, status, the counts and every trace length held exactly under
    # OpenBLAS's SkylakeX, Haswell, Sandybridge and Nehalem kernels at 1
    # thread and SkylakeX and Haswell at 2.  The floats moved by at most
    # 1.2e-8 relative, or by at most 2.8e-14 where that was more: round-off
    # values (x off its support, the constrained residual, final_grad_inf)
    # and the tails computed from x (final_eps, rel_err);
    # tests/golden/regen.py rewrites it
    want = json.loads(GOLDEN_SOLVE.read_text())
    got = solve_out_records(tmp_path)
    moved = [k for k in sorted(want.keys() | got.keys())
             if not solve_out_close(got.get(k), want.get(k))]
    _report("SOLVE-golden", not moved,
            f"{len(got)} solve --out records against {len(want)} in "
            f"{GOLDEN_SOLVE.name}: all but floats equal, floats within "
            f"rtol 1e-6 or 1e-12 absolute; moved: {moved}")


def test_a8_dct_coherence():
    worst = 1.0
    for seed in range(10):
        worst = min(worst, coherence(gen_dct(100, 1000, 20.0, seed)))
    _report("A8", worst >= 0.999,
            f"min coherence over 10 seeds {worst:.5f} >= 0.999")


def test_a9_surrogate_monotonicity_and_sandwich():
    params = PenaltyParams(1.0, 0.7)
    worst_uptick = -np.inf
    sandwich_ok = True
    for i in range(20):
        A = gen_gaussian(16, 32, 0.0, derive_seed(MASTER_SEED, "a9", i, 0))
        truth = gen_signal(32, 3, derive_seed(MASTER_SEED, "a9", i, 1))
        y = A.entries @ truth.vector
        cfg = Schedule(outer_max=40)
        res = irls_constrained(A, y, params, 3, cfg, exact_update=True)
        j = np.asarray(res.j_trace)
        upticks = np.diff(j) / np.maximum(np.abs(j[:-1]), 1e-300)
        worst_uptick = max(worst_uptick, float(upticks.max()))
        for jv, pv, ev in zip(res.j_trace, res.objective_trace,
                              res.eps_trace):
            slack = 32 * 2.0 * ev ** (cfg.kappa * params.p / 2.0)
            if not (jv - slack <= pv + 1e-10 and pv <= jv + 1e-10):
                sandwich_ok = False
    ok = worst_uptick <= 1e-10 and sandwich_ok
    _report("A9", ok, f"max relative surrogate uptick {worst_uptick:.2e} "
            f"<= 1e-10 and sandwich bound held on 20 instances")


def test_a10_stationarity_on_successes(phase_cells):
    worst = 0.0
    checked = 0
    for cell in phase_cells.values():
        for rel, res, aty_inf in cell:
            if rel < 1e-3:
                checked += 1
                worst = max(worst, res.final_grad_inf / (1.0 + aty_inf))
    _report("A10", checked > 0 and worst <= 1e-6,
            f"max ||grad f_w||_inf / (1 + ||A^T y||_inf) = {worst:.2e} "
            f"<= 1e-6 over {checked} success trials")


def test_baseline_comparison_at_s24():
    # stands in for the excluded third-party comparisons: the transformed-lp
    # solver must beat the in-repo IRLS-l_0.5 baseline at s = 24
    tlp_rate = np.mean([rel < 1e-3
                        for rel, _, _ in run_phase_cell(24, "tlp")])
    lq_rate = np.mean([rel < 1e-3 for rel, _, _ in run_phase_cell(24, "lq")])
    _report("BASELINE", tlp_rate >= lq_rate,
            f"tlp(a=1,p=0.7) rate {tlp_rate:.2f} >= l_0.5 baseline rate "
            f"{lq_rate:.2f} at s=24 (20 trials)")


def test_l1_transition_at_desk_scale():
    # the l1 statistical dimension crosses M = 64 in R^256 at s* = 17.1125,
    # with the integral in closed form and by quadrature alike
    from scipy.integrate import quad

    def quad_tail2(tau):
        val, _ = quad(lambda u: (u - tau) ** 2 * math.exp(-u * u / 2.0),
                      tau, math.inf, epsabs=1e-14, epsrel=1e-13)
        return math.sqrt(2.0 / math.pi) * val

    s_star = l1_transition(64, 256)
    gap = abs(s_star - l1_transition(64, 256, quad_tail2))
    _report("L1-line", round(s_star, 4) == 17.1125 and gap < 1e-9,
            f"s* = {s_star:.6f} (17.1125 to 4 decimals), closed form and "
            f"quadrature within {gap:.1e} < 1e-9")


def test_l1_harness_brackets_the_l1_line():
    # IRLS-l1 (lq at q = 1) on 20 problems per s, 64 x 256 Gaussian: the
    # harness should recover nearly all well below s* and nearly none well
    # above.  The bounds split near-certain outcomes from the transition's
    # midpoint: were the success rate 0.95 at s = 12, fewer than 15
    # successes would have probability 3e-4, and were it 0.5 (s* moved to
    # 12), 15 or more would have 0.02; s = 22 mirrors this.  Measured: 19
    # and 0.
    s_star = l1_transition(64, 256)
    counts = {}
    for s in (12, 22):
        counts[s] = 0
        for t in range(20):
            A = gen_gaussian(64, 256, 0.0, derive_seed(11, s, t, 0))
            x0 = gen_signal(256, s, derive_seed(11, s, t, 1)).vector
            x = irls_lq_baseline(A, A.entries @ x0, 1.0, s).x
            counts[s] += np.linalg.norm(x - x0) < 1e-3 * np.linalg.norm(x0)
    ok = 12 < s_star < 22 and counts[12] >= 15 and counts[22] <= 5
    _report("L1-harness", ok,
            f"IRLS-l1 recovered {counts[12]}/20 at s = 12 >= 15 and "
            f"{counts[22]}/20 at s = 22 <= 5, around s* = {s_star:.2f}")
