"""The differential check: one run checked against every second route.

`check(config, program)` runs the program traced and untraced, each on the
fast chip loop and under lockstep, and compares the four results; every
completed run's image is compared with the sequential oracle's too, with
no exemption (the oracle also runs a family fed through its head).
`scripts/stress_grid.py` sends its grid, the pinned runs and its quiet sweep
through it, and the tier-1 tests call it for the pinned runs, for generated
quiet code and for a few hand-written programs, so that both check the same
routes the same way.

It raises `AssertionError` itself, not through `assert`, so that it checks
under `python -O` too.
"""

import hashlib
from dataclasses import replace
from unittest import mock

from hmtsim import sim
from hmtsim.oracle import OracleDeadlock, OracleFault, sequential_oracle

# (instructions, entries) -> the sha256 of the oracle's image of that
# program, or the name and message of the exception the oracle raised
# ("OracleDeadlock: ..."): one oracle run per program
_oracle = {}


def lockstep(chip, cycle):
    """`sim._stop`'s stand-in for the lockstep loop: every core phase runs
    one cycle, so each awake core steps one cycle per call and the clock
    never jumps."""
    return cycle + 1


def covered(res):
    """What `result_hash` covers, by name; the metrics as the repr that it
    hashes, in which hop_log's key order counts."""
    return dict(outcome=res.outcome, trace=res.trace, image=res.final_memory,
                diagnostic=res.diagnostic, metrics=repr(res.metrics))


def check(config, program):
    """Run program on config (its trace setting aside) traced and untraced,
    each on the fast chip loop and under lockstep, and return the traced
    fast-loop result. Raises AssertionError, naming the route and what
    differs:

    - unless the other three runs give the traced one's `result_hash`, the
      untraced ones with its trace dropped. They are compared by what the
      hash covers, which is faster than hashing each run's 1 MB image;
    - unless a completed run's image equals the sequential oracle's;
    - if a run that does not complete has an image.
    """
    traced = sim.run(replace(config, trace=True), program)
    want = {True: covered(traced), False: {**covered(traced), "trace": None}}
    for route, stop, trace in [("untraced fast loop", sim._stop, False),
                               ("traced lockstep", lockstep, True),
                               ("untraced lockstep", lockstep, False)]:
        with mock.patch.object(sim, "_stop", stop):
            got = covered(sim.run(replace(config, trace=trace), program))
        if got != want[trace]:
            raise AssertionError(f"{route}: " + ", ".join(
                k for k in got if got[k] != want[trace][k]) + " differ")
    if traced.outcome is not sim.Outcome.COMPLETED:
        if traced.final_memory is not None:
            raise AssertionError(f"{traced.outcome.value} run has an image")
        return traced
    key = (program.instructions, tuple(program.entries.items()))
    if key not in _oracle:
        try:
            _oracle[key] = hashlib.sha256(
                sequential_oracle(program).final_memory).hexdigest()
        except (OracleDeadlock, OracleFault) as exc:
            _oracle[key] = f"{type(exc).__name__}: {exc}"
    want = traced.memory_hash()
    if _oracle[key] != want:
        raise AssertionError(f"oracle: gives {_oracle[key]}, expected {want}")
    return traced
