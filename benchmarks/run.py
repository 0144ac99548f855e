"""tlpsparse benchmark: one closed-loop client, one op at a time.

Usage (from the root of a checkout; the package is imported from ./src):

    python3 benchmarks/run.py --workload desk|wide|files --seed N \
        --seconds S --trace 0|1 [--smoke]

``--trace 0`` measures the end-to-end metrics, timing each input by the
faster of two runs (see ``PASSES``).  ``--trace 1`` runs every
round twice, untraced and then traced on the same inputs, and prints the
per-layer metrics and the tracing overhead.  ``--smoke`` swaps in tiny
shapes.  ``--pin R`` rewrites the pinned success table of the workload
(rounds 0..R-1 at the reference seed) in ``reference.json``.

Report lines start with ``#``; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_T_START = time.perf_counter()

import os  # noqa: E402

# Pinned before numpy is imported: the bench CSV drifts across BLAS thread
# counts, and the load model is a single client.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "TLPSPARSE_WORKERS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

if not (SRC / "tlpsparse" / "__init__.py").is_file():
    sys.exit(f"error: no package at {SRC / 'tlpsparse'}; run from a checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tlpsparse  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if Path(tlpsparse.__file__).resolve().parent != SRC / "tlpsparse":
    sys.exit(f"error: imported tlpsparse from {tlpsparse.__file__}, "
             f"not from {SRC}")

# A --trace 0 run makes this many passes over its rounds, each taking an
# equal share of the run, and times each input by its fastest run.  The
# shared host slows now and then: Python-heavy ops by up to 1.6x for a
# second or two, BLAS-heavy ones by up to 1.45x for 30 to 45 s.  With one
# run per input, the share of slow time in a run decided which speed the
# p75 landed on; two runs half a run apart are both slow less often.
PASSES = 2
# setup_s is the median of this many fresh-process probes, spread over the
# run; probe i runs the first op of round i, so the median spans several
# inputs.
SETUP_REPEATS = 7
# A traced op's per-layer self times must add up to its wall time within
# this share of the wall time plus an absolute allowance.
GAP_SHARE, GAP_ABS_S = 0.01, 50e-6
# The self time of the traced ops' outermost spans (bench.run_trial or
# cli.main), which no inner wrapper covers, must stay within this share of
# their summed wall time (about 0.03% in wide and 2% in files).  The tiny
# smoke solves make argument parsing and JSON output a larger share.
ROOT_SHARE, SMOKE_ROOT_SHARE = 0.10, 0.25

# Metric tables: name -> unit.  The LISTED ones are those of BENCHMARK.json
# and the result line; the others are report lines only, because they do
# not apply to every workload (a layer or method the workload never calls
# reads 0 or n/a), vary too much across seeds, are 0 at this commit, or are
# checked exactly instead (success counts against the pinned table).
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "tlp.ops_per_s": "1/s",
    "lq.ops_per_s": "1/s",
    "constrained.ops_per_s": "1/s",
    "tlp.recovered_ms_p50": "ms",
    "tlp.recovered_ms_p75": "ms",
    "tlp.recovered_ms_p90": "ms",
    "tlp.unrecovered_ms_p50": "ms",
    "success_rate": "ratio",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
}
# The gated tail is p75, not p90: a run has 35 to 65 recovered tlp trials,
# so p75 keeps about ten samples above it and p90 only four to six.
E2E_LISTED = ("setup_s", "ops_per_s", "tlp.ops_per_s",
              "tlp.recovered_ms_p50", "tlp.recovered_ms_p75",
              "tlp.unrecovered_ms_p50", "peak_rss_mb")

LAYER_UNITS = {
    "solver.factor_calls": "count/op",
    "solver.factor_ms": "ms/op",
    "solver.factor_direct_calls": "count/op",
    "solver.factor_woodbury_calls": "count/op",
    "solver.factor_gflop": "GFLOP/op",
    "solver.factor_gflop_per_s": "GFLOP/s",
    "solver.self_ms": "ms/op",
    "solver.dca_calls": "count/op",
    "solver.dca_ms": "ms/op",
    "solver.cho_solve_ms": "ms/op",
    "solver.grad_phi_w_ms": "ms/op",
    "solver.f_w_value_calls": "count/op",
    "solver.f_w_value_ms": "ms/op",
    "solver.tail_ms": "ms/op",
    "solver.outer_iters": "count/op",
    "solver.inner_iters": "count/op",
    "solver.dca_converged_share": "ratio",
    "solver.recovered_work_share": "ratio",
    "sensing.gen_ms": "ms/op",
    "sensing.seed_ms": "ms/op",
    "sensing.csv_write_ms": "ms/op",
    "sensing.csv_write_bytes": "bytes/op",
    "sensing.csv_read_ms": "ms/op",
    "sensing.csv_read_bytes": "bytes/op",
    "cli.commands": "count",
    "cli.self_ms": "ms/op",
    "cli.out_bytes": "bytes/op",
    "penalty.calls": "count/op",
    "penalty.ms": "ms/op",
    "theory.calls": "count/op",
    "theory.ms": "ms/op",
    "bench.trial_ms": "ms/op",
    "bench.harness_ms": "ms/op",
    "trace.overhead_pct": "%",
}
LAYER_LISTED = tuple(n for n in LAYER_UNITS
                     if n.split(".")[0] in ("solver", "penalty", "trace")
                     or n == "sensing.gen_ms")


def environment() -> dict:
    """nproc, BLAS vendor, version and thread count, library versions."""
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def setup_probe(args, k: int) -> float:
    """Import, first matrix and first solve of round k in a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", str(k)]
    proc = subprocess.run(cmd + ["--smoke"] * args.smoke, capture_output=True,
                          text=True, timeout=120, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_round(wl, seed: int, k: int, log, workdir: str) -> None:
    """Round k, with each op tagged by its position in the round."""
    start = len(log.ops)
    wl.run_round(seed, k, log, workdir)
    for slot, op in enumerate(log.ops[start:]):
        op.slot = slot


def run_rounds(wl, seed: int, seconds: float, workdir: str, tracer=None,
               probe=None, probes: int = 0, passes: int = 1):
    """Whole rounds until ``seconds`` of run time have passed (at least one).

    The first of ``passes`` passes runs rounds 0, 1, ... until its share of
    ``seconds`` has passed; each further pass reruns those rounds.  With a
    tracer, every round of the first pass runs once more, traced.  The
    ``probes`` calls of ``probe(i)`` run between rounds, spread over the
    run so that set-up sees the same host load as the ops; their time is
    not run time.  Returns the log, the round count and the probe results.
    """
    log = workloads.Log()
    probed: list[float] = []
    start = time.perf_counter()
    paused = 0.0

    def elapsed() -> float:
        return time.perf_counter() - start - paused

    def between_rounds() -> None:
        nonlocal paused
        done = elapsed() / max(seconds, 1e-9)
        while len(probed) < probes and len(probed) <= probes * done:
            t0 = time.perf_counter()
            probed.append(probe(len(probed)))
            paused += time.perf_counter() - t0

    k = 0
    while k == 0 or elapsed() < seconds / passes:
        run_round(wl, seed, k, log, workdir)
        if tracer is not None:
            log.tracer, log.traced = tracer, True
            with tracer.installed():
                run_round(wl, seed, k, log, workdir)
            log.tracer, log.traced = None, False
        k += 1
        between_rounds()
    for _ in range(passes - 1):
        for j in range(k):
            run_round(wl, seed, j, log, workdir)
            between_rounds()
    while len(probed) < probes:
        probed.append(probe(len(probed)))
    return log, k, probed


def _pct(values, q):
    return float(np.percentile(values, q)) if values else None


def fastest_runs(ops) -> list:
    """One op per input, (round, slot): its fastest run, in input order."""
    best: dict = {}
    for o in ops:
        key = (o.round, o.slot)
        if key not in best or o.wall < best[key].wall:
            best[key] = o
    return list(best.values())


def runs_agree(ops) -> bool:
    """Whether every run of each input gave the same result."""
    results: dict = {}
    for o in ops:
        results.setdefault((o.round, o.slot), set()).add(
            (o.label, o.recovered, o.outer, o.inner))
    return all(len(r) == 1 for r in results.values())


def end_to_end(ops, setup_times) -> dict:
    """name -> (value or None when it does not apply, sample count).

    Every figure but ``error_rate`` is over inputs, each timed by its
    fastest run.
    """
    error_rate = (sum(o.error is not None for o in ops) / len(ops), len(ops))
    ops = fastest_runs(ops)
    solves = [o for o in ops if o.method is not None]
    m = {"setup_s": (statistics.median(setup_times), len(setup_times)),
         "ops_per_s": (len(ops) / sum(o.wall for o in ops), len(ops))}
    for method in ("tlp", "lq", "constrained"):
        sel = [o for o in solves if o.method == method]
        m[f"{method}.ops_per_s"] = (
            len(sel) / sum(o.wall for o in sel) if sel else None, len(sel))
    rec = [o.wall * 1e3 for o in solves
           if o.method == "tlp" and o.recovered]
    unrec = [o.wall * 1e3 for o in solves
             if o.method == "tlp" and o.recovered is False]
    m["tlp.recovered_ms_p50"] = (_pct(rec, 50), len(rec))
    m["tlp.recovered_ms_p75"] = (_pct(rec, 75), len(rec))
    m["tlp.recovered_ms_p90"] = (_pct(rec, 90), len(rec))
    m["tlp.unrecovered_ms_p50"] = (_pct(unrec, 50), len(unrec))
    m["success_rate"] = (sum(bool(o.recovered) for o in solves) / len(solves)
                         if solves else None, len(solves))
    m["error_rate"] = error_rate
    m["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    return m


def per_layer(log, tracer, root_share=ROOT_SHARE):
    """Per-layer metrics of the traced ops, report lines, and whether the
    accounting checks passed."""
    traced = [(i, o) for i, o in enumerate(log.ops) if o.traced]
    plain = [o for o in log.ops if not o.traced]
    m = tracer.layer_metrics(len(traced))
    outer = sum(o.outer for _, o in traced)
    m["solver.recovered_work_share"] = (
        sum(o.outer for _, o in traced if o.recovered) / outer
        if outer else 0.0)
    m["cli.out_bytes"] = sum(o.out_bytes for _, o in traced) / len(traced)
    untraced_rate = len(plain) / sum(o.wall for o in plain)
    traced_rate = len(traced) / sum(o.wall for _, o in traced)
    m["trace.overhead_pct"] = (untraced_rate / traced_rate - 1.0) * 100.0
    sums, roots = tracer.op_self_sums(), tracer.op_root_self()
    gaps = [abs(o.wall - sums.get(i, 0.0)) for i, o in traced]
    gap_ok = all(g <= GAP_SHARE * o.wall + GAP_ABS_S
                 for g, (_, o) in zip(gaps, traced))
    wall = sum(o.wall for _, o in traced)
    root = sum(roots.get(i, o.wall) for i, o in traced) / wall
    root_ok = root <= root_share
    lines = [
        f"tracing overhead: untraced {untraced_rate:.6g} 1/s, traced "
        f"{traced_rate:.6g} 1/s on the same rounds",
        f"check per-layer self times sum to each op's wall time within "
        f"{GAP_SHARE:.0%} + {GAP_ABS_S * 1e6:.0f} us (gaps sum to "
        f"{sum(gaps) / wall:.3%} of traced wall time): {gap_ok}",
        f"check self time of the ops' outermost spans, which no wrapper "
        f"covers, is {root:.2%} of traced wall time, within "
        f"{root_share:.0%}: {root_ok}",
    ]
    return m, lines, gap_ok and root_ok


def success_bits(ops, rounds=None) -> dict[str, str]:
    """label -> success bits of the untraced inputs, one per input."""
    bits: dict[str, str] = defaultdict(str)
    for o in fastest_runs(o for o in ops if not o.traced):
        if o.recovered is not None and (rounds is None or o.round < rounds):
            bits[o.label] += "1" if o.recovered else "0"
    return dict(bits)


def check_reference(name: str, ops) -> tuple[bool, str]:
    """Compare success bits of ops run at the reference seed with the table."""
    ref = json.loads(REFERENCE.read_text())
    table = ref["workloads"][name]
    got = success_bits(ops, table["rounds"])
    bad = [label for label, bits in got.items()
           if table["cells"].get(label, "")[:len(bits)] != bits]
    counts = ", ".join(f"{label} {bits.count('1')}/{len(bits)}"
                       for label, bits in sorted(got.items()))
    if bad:
        return False, f"MISMATCH in {', '.join(bad)}; observed {counts}"
    return True, f"seed {ref['seed']} matches the pinned table: {counts}"


def reference_ops(wl, seed: int, ops, workdir: str) -> list:
    """Ops to hold against the pinned table.

    A run at the reference seed checks what it measured; any other seed
    re-runs round 0 of the reference seed, untimed, so that every run
    checks success counts against the table.
    """
    ref_seed = json.loads(REFERENCE.read_text())["seed"]
    if seed == ref_seed:
        return ops
    log = workloads.Log()
    run_round(wl, ref_seed, 0, log, workdir)
    return log.ops


def pin(args) -> int:
    ref = json.loads(REFERENCE.read_text())
    wl = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".bench-files-", dir=ROOT) as tmp:
        log = workloads.Log()
        for k in range(args.pin):
            run_round(wl, ref["seed"], k, log, tmp)
    errors = [o for o in log.ops if o.error]
    if errors:
        print(f"error: {len(errors)} ops failed, first: {errors[0].error}",
              file=sys.stderr)
        return 1
    ref["workloads"][args.workload] = {"rounds": args.pin,
                                       "cells": success_bits(log.ops)}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    for label, bits in sorted(success_bits(log.ops).items()):
        print(f"{label}: {bits.count('1')}/{len(bits)} recovered")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", type=int, metavar="ROUND",
                        help=argparse.SUPPRESS)
    parser.add_argument("--pin", type=int, metavar="ROUNDS")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.pin:
        return pin(args)
    wl = (workloads.SMOKE if args.smoke else workloads.WORKLOADS)[args.workload]
    with tempfile.TemporaryDirectory(prefix=".bench-files-", dir=ROOT) as tmp:
        if args.setup_probe is not None:
            wl.first_op(args.seed, args.setup_probe, workloads.Log(), tmp)
            print(json.dumps({"setup_s": time.perf_counter() - _T_START}))
            return 0
        wl.first_op(args.seed, 0, workloads.Log(), tmp)  # warm-up, not counted
        tracer = tracing.Tracer() if args.trace else None
        probes = 0 if args.trace else 1 if args.smoke else SETUP_REPEATS
        log, rounds, setup_times = run_rounds(
            wl, args.seed, args.seconds, tmp, tracer,
            lambda k: setup_probe(args, k), probes,
            1 if args.trace else PASSES)
        ref_ops = ([] if args.smoke else
                   reference_ops(wl, args.seed, log.ops, tmp))

    ops = log.ops
    errors = [o for o in ops if o.error is not None]
    print(f"# workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds:g} trace {args.trace} smoke {int(args.smoke)}: "
          f"{rounds} rounds, {len(ops)} ops over "
          f"{len(fastest_runs(ops))} inputs")
    print(f"# env {json.dumps(environment())}")
    for o in errors[:5]:
        print(f"# error {o.label} round {o.round}: {o.error}")
    correct = not errors
    if args.smoke:
        note = "smoke shapes have no pinned table"
    else:
        ref_errors = [o for o in ref_ops if o.error is not None]
        ref_ok, note = check_reference(args.workload, ref_ops)
        correct = correct and ref_ok and not ref_errors
        if ref_errors:
            note += f"; {len(ref_errors)} ops failed in the re-run"
    print(f"# check success table: {note}")
    print(f"# iterations over all {len(ops)} ops (reported, not gated): "
          f"outer {sum(o.outer for o in ops)}, inner "
          f"{sum(o.inner for o in ops)}")
    same = runs_agree(ops)
    print(f"# check every run of an input "
          f"({'untraced and traced' if args.trace else f'{PASSES} passes'})"
          f" gives the same result: {same}")
    correct = correct and same

    if args.trace:
        metrics, checks, trace_ok = per_layer(
            log, tracer, SMOKE_ROOT_SHARE if args.smoke else ROOT_SHARE)
        for line in checks:
            print(f"# {line}")
        correct = correct and trace_ok
        out_dir = ROOT / ".bench-out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-{args.seed}.csv"
        tracer.write(str(spans))
        print(f"# spans written to {spans.relative_to(ROOT)} "
              f"({len(tracer.spans)} spans)")
        for n, u in LAYER_UNITS.items():
            print(f"# per_layer {n} = {metrics[n]:.6g} {u}"
                  f"{'' if n in LAYER_LISTED else ' [report only]'}")
        result = {n: {"value": float(metrics[n]), "unit": LAYER_UNITS[n]}
                  for n in LAYER_LISTED}
    else:
        e2e = end_to_end(ops, setup_times)
        for n, u in E2E_UNITS.items():
            value, count = e2e[n]
            shown = "n/a" if value is None else f"{value:.6g} {u}"
            print(f"# end_to_end {n} = {shown} (n={count})"
                  f"{'' if n in E2E_LISTED else ' [report only]'}")
        missing = [n for n in E2E_LISTED if e2e[n][0] is None]
        if missing:
            print(f"error: no samples for {', '.join(missing)}",
                  file=sys.stderr)
            return 1
        result = {n: {"value": e2e[n][0], "unit": E2E_UNITS[n]}
                  for n in E2E_LISTED}
    print(json.dumps({"correct": bool(correct), "attempted": len(ops),
                      "failed": len(errors), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
