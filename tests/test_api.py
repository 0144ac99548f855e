"""The package's public surface: the names it exports and how its value
and result types compare."""

import re
from pathlib import Path

import numpy as np

import tlpsparse
from tlpsparse import (PenaltyParams, dca_subproblem, gen_gaussian,
                       gen_signal, irls_tlp)

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
