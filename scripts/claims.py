#!/usr/bin/env python3
"""The claims sweeps: one `hmtsim sweep` table per claim of the paper that
hmtsim measures, written as `results/claims/<claim>.csv`.

    python3 scripts/claims.py

takes no flags. It runs each claim's sweeps in-process through the CLI and
writes their records as one CSV, the sweep's own format under one header.
The files are checked in, and `tests/test_acceptance.py` regenerates them
byte for byte from `SWEEPS`, so a model change that moves any point of a
curve shows as a diff of these files. Every record must be `completed`.

Each sweep pins `--cores`, `--hints` and `--coherency` wherever they are not
its axis, since the sweep defaults would multiply every sweep by p x hints x
coherency (672 runs where 193 are wanted). The sweeps, and what to read
from each:

- `latency`: `kernel_regular(n=256)` at p=1, thread slots 2-64 x D-miss
  latency 5-1,000 cycles x 16- and 64-byte lines, then 4-byte lines with
  256 D-lines, the same 1 KB of D-cache as at 16 bytes (90 records).
  Utilization by slots and latency is the latency-tolerance curve; the
  line size sets how many threads one fill serves.
- `hints`: switch hints on and off at p=1 on the load-use probe with 1, 2,
  4 and 8 threads and 4 and 26 fillers, and on `regular` (14). Read
  `flushes` and `utilization` on the probe, and `cycles` on `regular`,
  where misses are frequent enough for the hints to show.
- `coherency`: `regular` under eager and bulk propagation, at 4-, 16- and
  64-byte lines and p in {1, 2, 4, 8} (24). Read `propagation_messages`
  against `stores`: bulk sends one message per dirty line. Cycles do not
  differ, because propagation is counted, not timed.
- `imbalance`: `kernel_heterogeneous()`, whose work grows with the thread
  index, at p in {1, 2, 4, 8, 16} (5). Makespan over ideal, `cycles x
  cores / commits`, against the even split's closed form (2P-1)/P.
- `portability`: `kernel_chain()` at p in {1, 2, 3, 4, 8} x 8 and 64
  thread slots x ring and line x hop latency 0, 1 and 5 (60). One
  `memory_hash` across all of them, and cycles that differ.
"""

import contextlib
import io
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hmtsim.cli import main as cli_main

OUT_DIR = ROOT / "results" / "claims"
LATENCY = ("--kernels regular --cores 1 --hints on --coherency eager "
           "--thread-slots 2,4,8,16,32,64 --d-miss-latency 5,20,80,320,1000")

# claim -> the argv of each of its `hmtsim sweep` calls, in order
SWEEPS = {
    "latency": [f"{LATENCY} --line-bytes 16,64".split(),
                f"{LATENCY} --line-bytes 4 --d-lines 256".split()],
    "hints": ["--kernels loaduse:threads=1,loaduse:threads=2,"
              "loaduse:threads=4,loaduse:threads=8,loaduse:fillers=4,"
              "loaduse:fillers=26,regular --cores 1 --hints on,off "
              "--coherency eager".split()],
    "coherency": ["--kernels regular --cores 1,2,4,8 --hints on "
                  "--coherency eager,bulk --line-bytes 4,16,64".split()],
    "imbalance": ["--kernels heterogeneous --cores 1,2,4,8,16 --hints on "
                  "--coherency eager".split()],
    "portability": ["--kernels chain --cores 1,2,3,4,8 --hints on "
                    "--coherency eager --topology ring,line "
                    "--thread-slots 8,64 --hop-latency 0,1,5".split()],
}


def claim_csv(sweeps) -> str:
    """The records of the sweeps, in order, as one CSV under one header."""
    text = ""
    for argv in sweeps:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if cli_main(["sweep", *argv]):
                sys.exit(f"hmtsim sweep {' '.join(argv)} failed")
        text += out.getvalue().partition("\n")[2] if text else out.getvalue()
    return text


def main():
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for claim, sweeps in SWEEPS.items():
        (OUT_DIR / f"{claim}.csv").write_bytes(claim_csv(sweeps).encode())


if __name__ == "__main__":
    main()
