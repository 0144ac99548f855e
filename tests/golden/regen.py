"""Rewrite the golden records next to this script.

    PYTHONPATH=src python tests/golden/regen.py

The records are those ``tests/test_acceptance.py`` compares.
``a7_tlp.json`` holds one line per trial of the a7 phase cells, ``[s, t,
status, outer_iters, total_inner_iters, rel_err]``;
``heat_sweep_s24.json`` one line per cell of ``bench --plan
plans/heat_sweep_s24.json --trials 1``, ``[a, p, successes,
mean_rel_err]``; ``solve_out.json`` one line per ``solve --out`` JSON of
each method on each of the files workload's shapes, keyed
``family.method``, without ``wall_time_ms``.  They are computed in a
subprocess with
``OPENBLAS_NUM_THREADS=1``, so the caller's BLAS threads cannot move them.
Regenerating is a data change: a commit that does it says what moved and
why.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent


def dump(path: Path, records: list[list]) -> None:
    rows = ",\n".join(json.dumps(r) for r in records)
    path.write_text(f"[\n{rows}\n]\n")


def write() -> None:
    sys.path.insert(0, str(TESTS))
    import test_acceptance as acc

    cells = {s: acc.run_phase_cell(s) for s in acc.A7_SPARSITIES}
    dump(acc.GOLDEN_A7, acc.a7_records(cells))
    dump(acc.GOLDEN_HEAT, acc.heat_sweep_records())
    with tempfile.TemporaryDirectory() as workdir:
        records = acc.solve_out_records(Path(workdir))
    rows = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                      for k, v in records.items())
    acc.GOLDEN_SOLVE.write_text(f"{{\n{rows}\n}}\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        write()
    else:
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        subprocess.run([sys.executable, __file__, "--child"], env=env,
                       check=True)
