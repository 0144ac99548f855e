"""The package's public surface: the names it exports and how its value
and result types compare."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

import tlpsparse
from tlpsparse import (PenaltyParams, dca_subproblem, derive_seed, gen_dct,
                       gen_gaussian, gen_signal, irls_constrained,
                       irls_lq_baseline, irls_tlp, penalty_lp,
                       rd_numeric_oracle, relaxation_degree, rip_bound,
                       stability_constants)
from tlpsparse.sensing import DimensionError

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_lists_exactly_all():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    # the bullets "* module: `name`, ...", continuation lines indented
    bullets = re.findall(r"^\* \w+: (.*(?:\n  .*)*)", section, re.M)
    listed = re.findall(r"`(\w+)`", "\n".join(bullets))
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(tlpsparse.__all__)
    assert all(hasattr(tlpsparse, name) for name in listed)


def test_value_and_result_types_compare_by_identity():
    # a dataclass-generated == would compare the ndarray fields and raise
    # ValueError, and its hash TypeError; arrays go to np.array_equal
    params = PenaltyParams(1.0, 0.7)
    A, B = gen_gaussian(2, 3, 0.0, 1), gen_gaussian(2, 3, 0.0, 1)
    x, z = gen_signal(3, 1, 2), gen_signal(3, 1, 2)
    y = A.entries @ x.vector
    pairs = [(A, B), (x, z),
             (irls_tlp(A, y, params, 1), irls_tlp(B, y, params, 1)),
             (dca_subproblem(A, y, params, np.ones(3)),
              dca_subproblem(B, y, params, np.ones(3)))]
    for first, second in pairs:
        assert (first == first) is True
        assert (first == second) is False and first != second
        assert hash(first) == hash(first)
        assert len({first, second}) == 2
    assert np.array_equal(A.entries, B.entries)
    assert np.array_equal(x.vector, z.vector)
    assert np.array_equal(pairs[2][0].x, pairs[2][1].x)


P = PenaltyParams(1.0, 0.7)
# entry point -> (the call with one scalar argument v, the name its error
# gives v, whether v is a count rather than any real number)
SCALAR_ARGS = {
    "PenaltyParams.a": (lambda v: PenaltyParams(v, 0.7), "a", False),
    "PenaltyParams.p": (lambda v: PenaltyParams(1.0, v), "p", False),
    "penalty_lp.p": (lambda v: penalty_lp(v, [1.0]), "p", False),
    "relaxation_degree.N": (lambda v: relaxation_degree("tlp", P, v), "N",
                            True),
    "rd_numeric_oracle.N": (lambda v: rd_numeric_oracle("tlp", P, v), "N",
                            True),
    "rip_bound.gamma": (lambda v: rip_bound(P, v), "gamma", False),
    "stability_constants.delta2s": (
        lambda v: stability_constants(rip_bound(P), v), "delta2s", False),
    "gen_gaussian.M": (lambda v: gen_gaussian(v, 4, 0.0, 1), "M", True),
    "gen_gaussian.N": (lambda v: gen_gaussian(4, v, 0.0, 1), "N", True),
    "gen_gaussian.r": (lambda v: gen_gaussian(4, 4, v, 1), "correlation r",
                       False),
    "gen_dct.F": (lambda v: gen_dct(4, 4, v, 1), "frequency parameter F",
                  False),
    "gen_signal.N": (lambda v: gen_signal(v, 1, 1), "N", True),
    "gen_signal.s": (lambda v: gen_signal(10, v, 1), "s", True),
    "gen_signal.seed": (lambda v: gen_signal(10, 2, v), "seed", True),
    "derive_seed.master": (lambda v: derive_seed(v, "x"), "master", True),
    "derive_seed.parts": (lambda v: derive_seed(0, "x", v), "parts", True),
}
BAD = {"bool": True, "str": "1", "nan": math.nan, "10**400": 10**400,
       "2.5": 2.5}  # 2.5 only where a count is due
# the values of BAD some entry points take: a seed may be any non-negative
# integer, and a tag any integer or a string
TAKES = {"gen_signal.seed": (10**400,), "derive_seed.master": (10**400,),
         "derive_seed.parts": (10**400, "1")}


@pytest.mark.parametrize("entry, bad", [
    pytest.param(entry, value, id=f"{entry}-{label}")
    for entry, (_, _, integral) in SCALAR_ARGS.items()
    for label, value in BAD.items()
    if (integral or label != "2.5") and value not in TAKES.get(entry, ())])
def test_bad_scalars_fail_by_name(entry, bad):
    call, name, _ = SCALAR_ARGS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must "):
        call(bad)


A4x8 = gen_gaussian(4, 8, 0.0, 1)
# entry point -> (the call with one vector argument v, the name its error
# gives v, the length v must have)
VECTOR_ARGS = {
    "irls_tlp.y": (lambda v: irls_tlp(A4x8, v, P, 1), "y", 4),
    "irls_lq_baseline.y": (lambda v: irls_lq_baseline(A4x8, v, 0.5, 1), "y",
                           4),
    "irls_constrained.y": (lambda v: irls_constrained(A4x8, v, P, 1), "y", 4),
    "dca_subproblem.y": (lambda v: dca_subproblem(A4x8, v, P, np.ones(8)),
                         "y", 4),
    "dca_subproblem.w": (lambda v: dca_subproblem(A4x8, np.ones(4), P, v),
                         "weights w", 8),
}
# label -> (the bad vector for length n, the error it raises, its message)
BAD_VECTORS = {
    "row": (lambda n: np.ones((1, n)), DimensionError,
            "{name} has shape (1, {n}), expected ({n},)"),
    "None": (lambda n: None, DimensionError,
             "{name} has shape (), expected ({n},)"),
    "str": (lambda n: "abc", ValueError,
            "{name}: could not convert string to float: 'abc'"),
    "short": (lambda n: np.ones(n - 1), DimensionError,
              "{name} has shape ({m},), expected ({n},)"),
    "nan": (lambda n: np.r_[np.ones(n - 1), np.nan], ValueError,
            "{name} must be finite"),
}


@pytest.mark.parametrize("entry, bad", [
    pytest.param(entry, label, id=f"{entry}-{label}")
    for entry in VECTOR_ARGS for label in BAD_VECTORS])
def test_bad_vectors_fail_by_name(entry, bad):
    # 2-D y of M values used to pass the solvers' length test and fail as
    # "y has length 8, expected 8"; "abc" failed without naming y
    call, name, n = VECTOR_ARGS[entry]
    make, error, says = BAD_VECTORS[bad]
    says = says.format(name=name, n=n, m=n - 1)
    with pytest.raises(ValueError, match=f"^{re.escape(says)}$") as exc:
        call(make(n))
    # a shape fault is a DimensionError, and nothing else is
    assert exc.type is error


@pytest.mark.parametrize("solve", [
    lambda y: irls_tlp(A4x8, y, P, 8),
    lambda y: irls_lq_baseline(A4x8, y, 0.5, 8),
    lambda y: irls_constrained(A4x8, y, P, 8)],
    ids=["irls_tlp", "irls_lq_baseline", "irls_constrained"])
def test_s_not_below_n_is_a_dimension_error(solve):
    with pytest.raises(DimensionError,
                       match="^target sparsity s=8 must be below N=8$"):
        solve(np.ones(4))
