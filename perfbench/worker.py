"""One fresh interpreter of a warm workload.

    python3 perfbench/worker.py probe WORKLOAD SEED WORKDIR
    python3 perfbench/worker.py run WORKLOAD SEED WORKDIR SECONDS TRACE OUT

Both modes first set up: import fredholm_kit and fredholm_kit.cli from the
checkout's src/, generate the workload's specs, write them to WORKDIR and
parse them.  `probe` then prints one READY line with the set-up phases and
exits; run.py times it from spawn to that line.  `run` goes on to run
whole rounds of checks and verifies (loop.py), in process, for SECONDS
after one untimed check of every spec, and writes the sweep times,
operation outcomes, peak RSS and (with TRACE=1) per-round layer metrics
to OUT as JSON.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import loop  # noqa: E402
import workloads  # noqa: E402
from expect import EXIT_CODES, EXIT_ORACLE_MISMATCH  # noqa: E402
from workloads import WEIGHT  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def setup(workload: str, seed: int, workdir: str):
    sys.path.insert(0, SRC)
    import fredholm_kit
    import fredholm_kit.cli as cli

    if not os.path.abspath(fredholm_kit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"fredholm_kit imported from {fredholm_kit.__file__}, not {SRC}")
    t_import = time.perf_counter()
    wl = workloads.build(workload, seed)
    paths = workloads.write_specs(wl, workdir)
    t_gen = time.perf_counter()
    for path in paths:
        cli.parse_spec(path)
    t_parse = time.perf_counter()
    phases = {"import_s": t_import - _T0, "generate_s": t_gen - t_import,
              "parse_s": t_parse - t_gen}
    return cli, wl, paths, phases


def _verdict_code(report, ledger=None) -> int:
    if ledger is not None and not ledger.passed:
        return EXIT_ORACLE_MISMATCH
    return EXIT_CODES[report.verdict]


def check_op(cli, spec, path) -> tuple[int, str]:
    """What `fredholm-kit check PATH --format json` does, in process."""
    op, compact = cli.parse_spec(path)
    opts = cli.FredholmOptions(mode_cutoff=spec.cutoff, empty_boundary=compact)
    report = cli.fredholm_check(op, WEIGHT, opts)
    return _verdict_code(report), cli.render_report(report, "json")


def verify_op(cli, spec, path) -> tuple[int, str]:
    """What `fredholm-kit verify PATH --format json` does, in process."""
    op, compact = cli.parse_spec(path)
    opts = cli.FredholmOptions(mode_cutoff=spec.cutoff, empty_boundary=compact)
    report = cli.fredholm_check(op, WEIGHT, opts)
    ledger = cli.cross_check(op, report, opts)
    payload = report.to_dict()
    payload["oracle"] = ledger.as_dict()
    return _verdict_code(report, ledger), json.dumps(payload, indent=2, sort_keys=True) + "\n"


def run(workload, seed, workdir, seconds, trace, out):
    cli, wl, paths, phases = setup(workload, seed, workdir)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    # one untimed, uncounted check of every spec: first-call imports
    # (scipy.optimize for sc scans) are paid once per warm process
    for spec, path in zip(wl.specs, paths):
        try:
            check_op(cli, spec, path)
        except Exception:
            pass
    if tracer:
        tracer.take()
    ops = {"check": check_op, "verify": verify_op}

    def operate(command, index):
        t = time.perf_counter()
        try:
            code, text = ops[command](cli, wl.specs[index], paths[index])
        except Exception as e:  # an operation that raises has failed
            code, text = None, f"{type(e).__name__}: {e}"
        return time.perf_counter() - t, code, text

    sweeps, outcomes, rounds = loop.run_rounds(
        wl, seconds, operate, tracer.take if tracer else dict)
    result = {
        "sweeps": sweeps,
        "outcomes": outcomes,
        "rounds": rounds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv):
    mode, workload, seed, workdir = argv[:4]
    if mode == "probe":
        _, _, _, phases = setup(workload, int(seed), workdir)
        print("READY " + json.dumps(phases), flush=True)
    elif mode == "run":
        seconds, trace, out = argv[4:7]
        run(workload, int(seed), workdir, float(seconds), trace == "1", out)
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
