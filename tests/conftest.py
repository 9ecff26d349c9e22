"""The 80-cell acceptance matrix and the claims sweeps, each simulated once
per test session.

Each cell runs with tracing on, so one run serves both the golden gate
(`result_hash` covers the per-commit trace) and the acceptance criteria
(outcome, metrics and final memory, which tracing does not change). The trace
is dropped as soon as it is hashed and equal final images are shared, so the
kept results stay small. The trace-off path is pinned by the default-sweep
CSV hash in `test_golden.py`, whose cells use the same configs.

The claims sweeps are `SWEEPS` of `scripts/claims.py`, read from the script
so that the tests and the checked-in `results/claims` files cannot drift.
"""

import pathlib
import sys
from typing import NamedTuple

import pytest

from hmtsim.kernels import (
    kernel_chain,
    kernel_heterogeneous,
    kernel_loaduse,
    kernel_regular,
    kernel_starvation,
)
from hmtsim.sim import ChipConfig, run

sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "scripts"))
from claims import SWEEPS, claim_csv

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


class Cell(NamedTuple):
    spec: object
    config: ChipConfig
    digest: str         # result_hash() with the trace
    result: object      # the RunResult, its trace dropped


@pytest.fixture(scope="session")
def matrix_runs():
    """key -> Cell for every matrix cell."""
    runs, images = {}, {}
    for key, spec, config in matrix_cells():
        result = run(config, spec.program)
        digest = result.result_hash()
        result.trace = None
        if result.final_memory is not None:
            # an image is an unhashable bytearray: share equal ones by hash
            result.final_memory = images.setdefault(result.memory_hash(),
                                                    result.final_memory)
        runs[key] = Cell(spec, config, digest, result)
    return runs


@pytest.fixture(scope="session")
def claims():
    """claim -> the CSV text of its sweeps, as scripts/claims.py writes it."""
    return {claim: claim_csv(sweeps) for claim, sweeps in SWEEPS.items()}
