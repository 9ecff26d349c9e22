"""Golden-hash gate: the simulated outcome of every acceptance-matrix cell and
of the default sweep is pinned bit for bit.

`golden.json` holds `result_hash` with tracing on (outcome, diagnostic,
metrics, final memory and the per-commit trace) for each of the 80 cells of
the acceptance matrix, plus the SHA-256 of the default `hmtsim sweep` CSV. A
refactor or speed-up must leave every entry unchanged; the file changes only
with a deliberate change of model behaviour, recorded in CHANGES.md.

Regenerate with `PYTHONPATH=src python tests/test_golden.py --write`.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from hmtsim.cli import main as cli_main
from hmtsim.kernels import (
    kernel_chain,
    kernel_heterogeneous,
    kernel_loaduse,
    kernel_regular,
    kernel_starvation,
)
from hmtsim.sim import ChipConfig, run

GOLDEN = Path(__file__).with_name("golden.json")
P_VALUES = (1, 2, 4, 8)
WATCHDOG = 2_000_000


def matrix_cells():
    """(key, spec, config) for the 80 cells of the acceptance matrix."""
    for make in (kernel_regular, kernel_heterogeneous, kernel_chain,
                 kernel_loaduse, None):
        for p in P_VALUES:
            spec = make() if make else kernel_starvation(p, satisfiable=True)
            for hints in (True, False):
                for coh in ("eager", "bulk"):
                    key = f"{spec.name}-p{p}-hints_{'on' if hints else 'off'}-{coh}"
                    yield key, spec, ChipConfig(p=p, hints=hints, coherency=coh,
                                                watchdog_cycles=WATCHDOG,
                                                trace=True)


def cell_hash(spec, config) -> str:
    # the trace is dropped as soon as it is hashed, so memory stays flat
    return run(config, spec.program).result_hash()


def sweep_csv_sha256() -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli_main(["sweep"]) == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


CELLS = list(matrix_cells())


def test_golden_covers_the_matrix(golden):
    assert len(CELLS) == 80
    assert sorted(golden["cells"]) == sorted(key for key, _, _ in CELLS)


@pytest.mark.parametrize("key,spec,config", CELLS, ids=[c[0] for c in CELLS])
def test_cell_result_hash(golden, key, spec, config):
    assert cell_hash(spec, config) == golden["cells"][key]


def test_default_sweep_csv(golden):
    assert sweep_csv_sha256() == golden["sweep_csv_sha256"]


def _write():
    data = {"cells": {key: cell_hash(spec, config) for key, spec, config in CELLS},
            "sweep_csv_sha256": sweep_csv_sha256()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    _write()
