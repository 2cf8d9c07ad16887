"""Smoke test of the benchmark: the `symbols` workload at the shortest
length, untraced and traced.  It checks that every metric named in
BENCHMARK.json is printed with its unit and that every correctness check
ran on every operation.

    python3 perfbench/smoke.py
    python3 -m pytest perfbench/smoke.py

The file name keeps it out of the repository's test run, which collects
test_*.py files; it takes about half a minute.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import expect  # noqa: E402
import workloads  # noqa: E402

WORKLOAD = "symbols"


def _run(trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", WORKLOAD,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, ".work", "results",
                           f"{WORKLOAD}-seed1-trace{trace}.json"), encoding="utf-8") as fh:
        return result, json.load(fh)


def test_smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expects = {s.name: s.expect for s in workloads.build(WORKLOAD, 1).specs}
    for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        result, detail = _run(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == len(detail["outcomes"]) >= 2 * len(expects)
        assert {m["name"]: m["unit"] for m in declared} == {
            name: m["unit"] for name, m in result["metrics"].items()}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        for o in detail["outcomes"]:
            required = set(expect.REQUIRED[type(expects[o["spec"]])])
            if o["command"] == "verify":
                required.add("ledger")
            assert required <= set(o["checks"]), (o["spec"], o["command"], o["checks"])


if __name__ == "__main__":
    test_smoke()
    print("smoke: ok")
