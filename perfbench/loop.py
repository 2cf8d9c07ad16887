"""The closed loop shared by the warm worker and the cold-CLI runner: one
client runs one operation after another, in whole rounds, and every
output is checked.

The host this benchmark was built on changes speed by 20-30% from one
few-second stretch to the next (a fixed pure-Python loop shows the same
steps as the program), so raw times of two runs of the same code differ
by more than any bound worth setting.  Each operation's time is therefore
also reported scaled to a nominal host speed: a fixed pure-Python
reference loop runs after every operation, outside the timed region, and
each operation's time is multiplied by REFERENCE_NOMINAL_S over the
median reference time around it.
"""

from __future__ import annotations

import statistics
import time

import expect
from workloads import WEIGHT

REFERENCE_ITERATIONS = 100_000
REFERENCE_NOMINAL_S = 0.010
REFERENCE_WINDOW = 3  # reference samples used on each side of an operation


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop, independent of the program."""
    t = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t


def host_scaled(times: list[float], refs: list[float]) -> list[float]:
    """times[i] ran between refs[i] and refs[i + 1]; scale it by
    REFERENCE_NOMINAL_S over the median of the REFERENCE_WINDOW reference
    samples on each side of it (a median, because a sample taken as a
    process exits can be slowed several-fold)."""
    out = []
    for i, t in enumerate(times):
        near = refs[max(0, i + 1 - REFERENCE_WINDOW):i + 1 + REFERENCE_WINDOW]
        out.append(t * REFERENCE_NOMINAL_S / statistics.median(near))
    return out


def run_rounds(wl, seconds: float, operate, end_round):
    """Run rounds until the next one would end more than half a round past
    `seconds` (at least one).  A round takes each spec in turn and runs
    wl.checks_per_verify checks of it, then one verify of it; check sweep
    i sums the i-th check of every spec, the verify sweep sums the
    verifies, so every sweep spans the whole round.  A reference sample
    is taken before the first operation and after each one.

    operate(command, index) -> (elapsed_s, exit_code, output text), with
    exit_code None when the operation raised (text is then the error).
    end_round() -> the round's layer metrics (empty when untraced).
    Returns the sweeps (scaled, and raw as "check_raw"/"verify_raw"), the
    operation outcomes and the per-round layer metrics.
    """
    outcomes, rounds = [], []
    times, sweep_of, refs = [], [], [reference_s()]
    n_check = n_verify = 0
    start = time.perf_counter()
    while True:
        for index, spec in enumerate(wl.specs):
            for i in range(wl.checks_per_verify):
                times.append(_operation(spec, "check", index, operate, outcomes))
                sweep_of.append(("check", n_check + i))
                refs.append(reference_s())
            times.append(_operation(spec, "verify", index, operate, outcomes))
            sweep_of.append(("verify", n_verify))
            refs.append(reference_s())
        n_check += wl.checks_per_verify
        n_verify += 1
        rounds.append(end_round())
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / len(rounds)) >= seconds:
            break
    sweeps = {"check": [0.0] * n_check, "verify": [0.0] * n_verify,
              "check_raw": [0.0] * n_check, "verify_raw": [0.0] * n_verify}
    for (command, i), raw, scaled in zip(sweep_of, times, host_scaled(times, refs)):
        sweeps[command][i] += scaled
        sweeps[command + "_raw"][i] += raw
    sweeps["operations"] = times
    sweeps["reference"] = refs
    return sweeps, outcomes, rounds


def _operation(spec, command, index, operate, outcomes) -> float:
    elapsed, code, text = operate(command, index)
    if code is None:
        checks = expect.Checks()
        checks.check("completed", False, text)
    else:
        checks = expect.check_output(spec.expect, command, code, text, WEIGHT)
    outcomes.append({"spec": spec.name, "command": command, "known_fault": spec.known_fault,
                     "checks": checks.ran, "problems": checks.problems[:3]})
    return elapsed
