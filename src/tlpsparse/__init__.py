"""Sparse signal recovery with the transformed-lp penalty.

Subpackages:

* :mod:`tlpsparse.penalty` — the scalar kernel, vector penalties, and
  relaxation degrees;
* :mod:`tlpsparse.theory` — RIP-based recovery bounds and stability
  constants;
* :mod:`tlpsparse.sensing` — experiment matrix families, sparse signals,
  coherence;
* :mod:`tlpsparse.solver` — the double-loop reweighted solver, its
  constrained variant, and an IRLS-lq baseline;
* :mod:`tlpsparse.bench` — success-rate experiment harness;
* :mod:`tlpsparse.cli` — command-line entry point.
"""

from .penalty import (PenaltyParams, penalty_lap, penalty_lp, penalty_tlp,
                      rd_numeric_oracle, relaxation_degree, rho)
from .sensing import (SensingMatrix, SparseSignal, coherence, derive_seed,
                      gen_dct, gen_gaussian, gen_signal, load_matrix_csv,
                      save_matrix_csv)
from .solver import (DcaResult, Schedule, SolveResult, dca_subproblem,
                     grad_phi_w, irls_constrained, irls_lq_baseline,
                     irls_tlp)
from .theory import (RipBound, StabilityConstants, normalization_beta,
                     rip_bound, solve_eta0, stability_constants)

__all__ = [
    "PenaltyParams", "rho", "penalty_tlp", "penalty_lp", "penalty_lap",
    "relaxation_degree", "rd_numeric_oracle",
    "RipBound", "StabilityConstants", "solve_eta0", "rip_bound",
    "stability_constants", "normalization_beta",
    "SensingMatrix", "SparseSignal", "gen_gaussian", "gen_dct",
    "gen_signal", "coherence", "derive_seed", "save_matrix_csv",
    "load_matrix_csv",
    "Schedule", "SolveResult", "DcaResult", "grad_phi_w",
    "dca_subproblem", "irls_tlp", "irls_constrained", "irls_lq_baseline",
]

__version__ = "0.1.0"
