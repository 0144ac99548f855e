"""Layer spans for the traced benchmark run.

The tracer swaps timing wrappers in for the module-level names that the
package's own code looks up at call time (``bench.run_trial``,
``solver.cho_factor``, ``cli.load_matrix_csv`` and so on), so every layer is
measured from outside and no file of the package changes.  A span is
``[name, start, end, parent, op]``; spans stay in memory until the run ends.

Span names are ``<layer>.<what>``; the layers are the package modules.
"""

from __future__ import annotations

import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from tlpsparse import bench, cli, solver

# (module, attribute, span name).  Several attributes may share one span
# name: the three solver entry points are all "solver.irls".
TARGETS = (
    (bench, "run_experiment", "bench.run_experiment"),
    (bench, "run_trial", "bench.run_trial"),
    (bench, "gen_gaussian", "sensing.gen"),
    (bench, "gen_dct", "sensing.gen"),
    (bench, "gen_signal", "sensing.gen"),
    (bench, "derive_seed", "sensing.seed"),
    (bench, "irls_tlp", "solver.irls"),
    (bench, "irls_lq_baseline", "solver.irls"),
    (bench, "irls_constrained", "solver.irls"),
    (solver, "dca_subproblem", "solver.dca"),
    (solver, "grad_phi_w", "solver.grad_phi_w"),
    (solver, "f_w_value", "solver.f_w_value"),
    (solver, "tail_magnitude", "solver.tail"),
    (solver, "penalty_tlp", "penalty.value"),
    (solver, "penalty_lp", "penalty.value"),
    (solver, "cho_factor", "solver.cho_factor"),
    (solver, "cho_solve", "solver.cho_solve"),
    (cli, "main", "cli.main"),
    (cli, "build_parser", "cli.build_parser"),
    (cli, "load_matrix_csv", "sensing.csv_read"),
    (cli, "save_matrix_csv", "sensing.csv_write"),
    (cli, "gen_gaussian", "sensing.gen"),
    (cli, "gen_dct", "sensing.gen"),
    (cli, "rip_bound", "theory.rip_bound"),
    (cli, "stability_constants", "theory.stability_constants"),
    (cli, "relaxation_degree", "penalty.relaxation_degree"),
    (cli, "irls_tlp", "solver.irls"),
    (cli, "irls_lq_baseline", "solver.irls"),
    (cli, "irls_constrained", "solver.irls"),
)

# spans whose own (self) time is the solver's outer and inner loops
_SOLVER_LOOPS = ("solver.irls", "solver.dca")


class Tracer:
    """Collects spans while installed; ``op`` tags spans with an op id."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self.op: int | None = None
        self._stack: list[int] = []
        self._n_cols = 0  # column count of the problem being solved

    def _attrs(self, name: str, args, result) -> dict | None:
        if name == "solver.irls":
            return {"outer": result.outer_iters}
        if name == "solver.dca":
            return {"iters": result.iters, "converged": result.converged}
        if name == "solver.cho_factor":
            n = args[0].shape[0]
            return {"n": n, "direct": n == self._n_cols}
        if name == "sensing.csv_write":
            return {"bytes": os.path.getsize(args[1])}
        if name == "sensing.csv_read":
            return {"bytes": os.path.getsize(args[0])}
        return None

    def _wrap(self, fn, name: str):
        spans, stack, attrs = self.spans, self._stack, self.attrs

        def traced(*args, **kwargs):
            if name == "solver.irls":
                A = args[0]
                self._n_cols = (A.entries if hasattr(A, "entries") else A).shape[1]
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            extra = self._attrs(name, args, result)
            if extra:
                attrs[idx] = extra
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        try:
            for (mod, attr, name), (_, _, fn) in zip(TARGETS, saved):
                setattr(mod, attr, self._wrap(fn, name))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its child spans."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path: str) -> None:
        """One span per line: name, start_us, end_us, parent, op."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{(start - t0) * 1e6:.1f},"
                         f"{(end - t0) * 1e6:.1f},{parent},"
                         f"{'' if op is None else op}\n")

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer counts and busy times, averaged per traced op.

        ``*_ms`` are inclusive span times except ``<layer>.self_ms``;
        ``solver.self_ms`` is the self time of the solver's own loops
        (``irls_*`` and ``dca_subproblem``), ``cli.self_ms`` that of
        ``cli.main`` plus ``build_parser``.  GFLOP figures are computed
        from the factored shapes (n^3/3 per Cholesky factorization), not
        counted by hardware.
        ``cli.commands`` is the one total: CLI commands traced in the run.
        """
        own = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        selfs: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            selfs[name] += own[i]
        direct = woodbury = 0
        flop = 0.0
        dca_iters = dca_conv = 0
        outer = 0
        write_bytes = read_bytes = 0
        for i, extra in self.attrs.items():
            name = self.spans[i][0]
            if name == "solver.cho_factor":
                direct += extra["direct"]
                woodbury += not extra["direct"]
                flop += extra["n"] ** 3 / 3.0
            elif name == "solver.dca":
                dca_iters += extra["iters"]
                dca_conv += extra["converged"]
            elif name == "solver.irls":
                outer += extra["outer"]
            elif name == "sensing.csv_write":
                write_bytes += extra["bytes"]
            elif name == "sensing.csv_read":
                read_bytes += extra["bytes"]

        per = 1.0 / max(n_ops, 1)
        ms = 1e3 * per
        factor_s = busy["solver.cho_factor"]
        return {
            "solver.factor_calls": calls["solver.cho_factor"] * per,
            "solver.factor_ms": factor_s * ms,
            "solver.factor_direct_calls": direct * per,
            "solver.factor_woodbury_calls": woodbury * per,
            "solver.factor_gflop": flop * 1e-9 * per,
            "solver.factor_gflop_per_s":
                flop * 1e-9 / factor_s if factor_s > 0 else 0.0,
            "solver.self_ms": sum(selfs[n] for n in _SOLVER_LOOPS) * ms,
            "solver.dca_calls": calls["solver.dca"] * per,
            "solver.dca_ms": busy["solver.dca"] * ms,
            "solver.cho_solve_ms": busy["solver.cho_solve"] * ms,
            "solver.grad_phi_w_ms": busy["solver.grad_phi_w"] * ms,
            "solver.f_w_value_calls": calls["solver.f_w_value"] * per,
            "solver.f_w_value_ms": busy["solver.f_w_value"] * ms,
            "solver.tail_ms": busy["solver.tail"] * ms,
            "solver.outer_iters": outer * per,
            "solver.inner_iters": dca_iters * per,
            "solver.dca_converged_share":
                dca_conv / calls["solver.dca"] if calls["solver.dca"] else 0.0,
            "sensing.gen_ms": busy["sensing.gen"] * ms,
            "sensing.seed_ms": busy["sensing.seed"] * ms,
            "sensing.csv_write_ms": busy["sensing.csv_write"] * ms,
            "sensing.csv_write_bytes": write_bytes * per,
            "sensing.csv_read_ms": busy["sensing.csv_read"] * ms,
            "sensing.csv_read_bytes": read_bytes * per,
            "cli.commands": calls["cli.main"],
            "cli.self_ms":
                (selfs["cli.main"] + busy["cli.build_parser"]) * ms,
            "penalty.calls": (calls["penalty.value"]
                              + calls["penalty.relaxation_degree"]) * per,
            "penalty.ms": (busy["penalty.value"]
                           + busy["penalty.relaxation_degree"]) * ms,
            "theory.calls": (calls["theory.rip_bound"]
                             + calls["theory.stability_constants"]) * per,
            "theory.ms": (busy["theory.rip_bound"]
                          + busy["theory.stability_constants"]) * ms,
            "bench.trial_ms": busy["bench.run_trial"] * ms,
            "bench.harness_ms": selfs["bench.run_experiment"] * ms,
        }

    def op_root_self(self) -> dict[int, float]:
        """Self time of each op's outermost span (``bench.run_trial`` or
        ``cli.main``): the op's time that no inner wrapper covers."""
        roots: dict[int, float] = {}
        for (_, _, _, parent, op), own in zip(self.spans, self.self_times()):
            if op is not None and (parent < 0 or self.spans[parent][4] != op):
                roots[op] = own
        return roots

    def op_self_sums(self) -> dict[int, float]:
        """Sum of span self times per op id (spans outside ops skipped)."""
        sums: dict[int, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            if span[4] is not None:
                sums[span[4]] += own
        return sums
