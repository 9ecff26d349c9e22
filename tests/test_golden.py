"""Golden-hash gate: the simulated outcome of every acceptance-matrix cell and
of the default sweep is pinned bit for bit.

`golden.json` holds `result_hash` with tracing on (outcome, diagnostic,
metrics, final memory and the per-commit trace) for each of the 80 cells of
the acceptance matrix (simulated once per session in `conftest.py`), plus the
SHA-256 of the default `hmtsim sweep` CSV. A refactor or speed-up must leave
every entry unchanged; the file changes only with a deliberate change of model
behaviour, recorded in CHANGES.md.

Regenerate with `PYTHONPATH=src python tests/test_golden.py --write`.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from conftest import claim_csv, matrix_cells
from hmtsim.sim import run

GOLDEN = Path(__file__).with_name("golden.json")


def sweep_csv_sha256() -> str:
    return hashlib.sha256(claim_csv([[]]).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


KEYS = [key for key, _, _ in matrix_cells()]


def test_golden_covers_the_matrix(golden):
    assert len(KEYS) == 80
    assert sorted(golden["cells"]) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_cell_result_hash(golden, matrix_runs, key):
    assert matrix_runs[key].digest == golden["cells"][key]


def test_default_sweep_csv(golden):
    assert sweep_csv_sha256() == golden["sweep_csv_sha256"]


def _write():
    data = {"cells": {key: run(config, spec.program).result_hash()
                      for key, spec, config in matrix_cells()},
            "sweep_csv_sha256": sweep_csv_sha256()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    _write()
