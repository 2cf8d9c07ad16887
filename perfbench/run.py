"""fredholm-kit benchmark: end-to-end and per-layer metrics of `check`
and `verify` on four workloads.

    python3 perfbench/run.py --workload {cli-cold,modes,systems,symbols,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its src/.
One client in a closed loop runs one operation after another: in
`cli-cold` each operation is a fresh `python -m fredholm_kit.cli`
process, in the other workloads a single worker process runs them in
process.  A run attempts whole rounds of checks and verifies of every
spec of the workload (loop.py) for about S seconds.  Every operation's
output is checked against closed forms (expect.py).  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; with --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones.  The samples behind each run go to
perfbench/.work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import loop
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SETUP_PROBES = 7        # timed fresh interpreters per run, after one untimed
CHILD_TIMEOUT = 120.0   # one cold CLI process or one probe
WORKER_TIMEOUT = 170.0  # the warm worker, whole run

# unset for the program, so that it runs as a user gets it by default:
# default thread counts (pinning BLAS to one thread hides the half-space
# waste), and cached bytecode
_UNSET_VARS = ("FREDHOLMKIT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "GOTO_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _UNSET_VARS}
    env["PYTHONPATH"] = SRC
    return env


# ---------------------------------------------------------------------------
# set-up: fresh interpreters to ready
# ---------------------------------------------------------------------------


def probe(workload: str, seed: int, workdir: str, env: dict) -> tuple[float, dict]:
    """Wall time from spawning a fresh interpreter to its READY line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "probe", workload,
           str(seed), workdir]
    t = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        line = p.stdout.readline()
        elapsed = time.perf_counter() - t
        rest = p.communicate(timeout=CHILD_TIMEOUT)[0]
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
    if p.returncode != 0 or not line.startswith("READY "):
        raise BenchError(f"set-up probe failed (exit {p.returncode}): {line}{rest}")
    return elapsed, json.loads(line[len("READY "):])


def measure_setup(workload: str, seed: int, workdir: str, env: dict):
    """Set-up times (raw, and scaled to the nominal host speed as in
    loop.py) and the phases of the probes."""
    probe(workload, seed, workdir, env)  # untimed: bytecode and page cache
    times, phases, refs = [], [], [loop.reference_s()]
    for _ in range(SETUP_PROBES):
        elapsed, phase = probe(workload, seed, workdir, env)
        times.append(elapsed)
        phases.append(phase)
        refs.append(loop.reference_s())
    return {"times": times, "scaled": loop.host_scaled(times, refs), "reference": refs,
            "phases": phases}


# ---------------------------------------------------------------------------
# cli-cold: one fresh CLI process per operation
# ---------------------------------------------------------------------------


def cold_process(cmd: list[str], out_path: str, env: dict) -> tuple[float, int, int]:
    """Run one process to completion; wall time, exit code, peak RSS (KB)."""
    with open(out_path, "wb") as out:
        t = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT, p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t
    p.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, p.returncode, usage.ru_maxrss


def run_cold(wl, workdir: str, seconds: float, trace: bool, env: dict) -> dict:
    paths = workloads.write_specs(wl, workdir)
    out_path = os.path.join(workdir, "stdout.json")
    trace_path = os.path.join(workdir, "trace.json")
    peak_kb = 0
    layers: dict = {}

    def operate(command, index):
        nonlocal peak_kb
        if trace:
            cmd = [sys.executable, os.path.join(HERE, "tracecli.py"), trace_path]
        else:
            cmd = [sys.executable, "-m", "fredholm_kit.cli"]
        cmd += [command] + wl.specs[index].cli_args(paths[index])
        elapsed, code, rss_kb = cold_process(cmd, out_path, env)
        peak_kb = max(peak_kb, rss_kb)
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        if trace:
            with open(trace_path, encoding="utf-8") as fh:
                for k, v in json.load(fh).items():
                    layers[k] = layers.get(k, 0) + v
            os.remove(trace_path)
        return elapsed, code, text

    def end_round():
        out = dict(layers)
        layers.clear()
        return out

    sweeps, outcomes, rounds = loop.run_rounds(wl, seconds, operate, end_round)
    return {"sweeps": sweeps, "outcomes": outcomes, "rounds": rounds, "peak_rss_kb": peak_kb}


# ---------------------------------------------------------------------------
# warm workloads: one worker process
# ---------------------------------------------------------------------------


def run_warm(wl, seed: int, workdir: str, seconds: float, trace: bool, env: dict) -> dict:
    out = os.path.join(workdir, "worker.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "run", wl.name, str(seed),
           workdir, repr(seconds), "1" if trace else "0", out]
    p = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        code = p.wait(timeout=WORKER_TIMEOUT)
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
    if code != 0:
        raise BenchError(f"worker exited with {code}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(setup: dict, res: dict) -> dict:
    return {
        "setup_s": {"value": statistics.median(setup["scaled"]), "unit": "s"},
        "check_s": {"value": statistics.median(res["sweeps"]["check"]), "unit": "s"},
        "verify_s": {"value": statistics.median(res["sweeps"]["verify"]), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }


def per_layer(setup: dict, res: dict) -> dict:
    """Raw (unscaled) seconds, so that self times add up."""
    def med(name):
        return statistics.median(r.get(name, 0) for r in res["rounds"])

    out = {"cli.import_s": {
        "value": statistics.median(p["import_s"] for p in setup["phases"]), "unit": "s"}}
    for name in tracing.SPAN_METRICS:
        out[f"{name}_s"] = {"value": med(f"{name}_s"), "unit": "s"}
    for name in tracing.COUNT_METRICS:
        out[name] = {"value": med(name), "unit": "count"}
    channels = out["crosssec.channels"]["value"]
    out["limitops.distinct_ratio"] = {
        "value": out["limitops.distinct_polys"]["value"] / channels if channels else 0.0,
        "unit": "ratio"}
    sweeps = res["sweeps"]
    out["trace.check_s"] = {"value": statistics.median(sweeps["check_raw"]), "unit": "s"}
    out["trace.verify_s"] = {"value": statistics.median(sweeps["verify_raw"]), "unit": "s"}
    out["host.reference_s"] = {"value": statistics.median(sweeps["reference"]), "unit": "s"}
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    wl = workloads.build(name, seed)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        setup = measure_setup(name, seed, workdir, env)
        if wl.cold:
            res = run_cold(wl, workdir, seconds, trace, env)
        else:
            res = run_warm(wl, seed, workdir, seconds, trace, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [o for o in res["outcomes"] if o["problems"]]
    unexpected = [o for o in failed if not o["known_fault"]]
    metrics = per_layer(setup, res) if trace else end_to_end(setup, res)
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "setup": setup, "sweeps": res["sweeps"], "rounds": res["rounds"],
              "outcomes": res["outcomes"], "metrics": metrics}
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{name}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for o in unexpected:
        print(f"UNEXPECTED FAILURE {o['command']} {o['spec']}: {o['problems']}",
              file=sys.stderr)
    print(f"# {name}: {len(res['sweeps']['check'])} check sweeps, "
          f"{len(res['sweeps']['verify'])} verify sweeps, {len(res['outcomes'])} operations "
          f"checked, {len(failed)} failed ({len(failed) - len(unexpected)} known fault: "
          f"{workloads.DET_POLY_FAULT})")
    for key, m in metrics.items():
        print(f"#   {key} = {m['value']:.6g} {m['unit']}")
    sweeps = res["sweeps"]
    print(f"#   unscaled: setup {statistics.median(setup['times']):.4g} s, check "
          f"{statistics.median(sweeps['check_raw']):.4g} s, verify "
          f"{statistics.median(sweeps['verify_raw']):.4g} s; reference loop "
          f"{statistics.median(sweeps['reference']):.4g} s "
          f"(nominal {loop.REFERENCE_NOMINAL_S} s)")
    return {"correct": not unexpected, "attempted": len(res["outcomes"]),
            "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fredholm_kit", "__init__.py")):
        print(f"error: no fredholm_kit sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
