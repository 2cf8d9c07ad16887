"""Print one sha256 per CLI report, so that two checkouts can be compared
for byte-identical output.

    python3 tools/report_digest.py > digests.txt

Run it in each checkout and diff the two files.  Each line reads
`<sha256 of stdout> <exit code> <label>`.  The reports are:

- the JSON `check` and `verify` output for every spec of the benchmark
  workloads `cli-cold`, `modes`, `systems` and `symbols` at seeds 1 and 2,
  with the arguments the benchmark passes (perfbench/workloads.py);
- the text and JSON `check` and `verify` reports of the seven built-in
  models at weights -0.5, 0 and 0.3, with default options;
- the text and JSON `roots`, `normal` and `transform` output of the seven
  built-in models (a structure a command does not apply to gives its
  exit code and an empty stdout);
- the text and JSON `bracket-table` of the b, zero and sc structures and
  of c_gamma at gamma = 2;
- the JSON `check`, `verify` (weight 0.3) and `roots` output of five
  explicit b specs, one per kind of mode channel table: signed channels
  on a circle, T^1 and T^3, and the modes of S^3 and of a generic 3x3
  cross-section with a double eigenvalue.

The CLI runs in this process, on the `src/` of the checkout this file is
in.  A full run takes about 20 s on two cores.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from click.testing import CliRunner  # noqa: E402

import workloads  # noqa: E402
from fredholm_kit.cli import main as cli_main  # noqa: E402

WORKLOADS = ("cli-cold", "modes", "systems", "symbols")
SEEDS = (1, 2)
WEIGHTS = ("-0.5", "0", "0.3")


def _b_spec(cross: dict, terms: dict) -> dict:
    """A scalar second-order b spec; terms maps an alpha (with a trailing
    "L" for one Laplacian power) to a real value."""
    out = []
    for alpha, value in terms.items():
        term = {"alpha": [a for a in alpha if a != "L"],
                "coefficient": [{"nu": 0, "value": value}]}
        if "L" in alpha:
            term["laplacian"] = 1
        out.append(term)
    return {"schema": workloads.SCHEMA, "structure": {"kind": "b"}, "cross_section": cross,
            "order": 2, "terms": out}


# (name, spec, mode cutoff or None for the default): one per channel kind
CHANNEL_SPECS = (
    ("circle_odd_partial", _b_spec({"kind": "circle"}, {
        (2,): 1.0, (0, 2): 1.0, (0, 1): 0.5, (0,): -0.25}), None),
    ("T1_odd_partial", _b_spec({"kind": "torus", "dim": 1}, {
        (2,): 1.0, (1, 1): 0.3, (0, 2): 1.0, (0,): -0.5}), None),
    ("T3_partials", _b_spec({"kind": "torus", "dim": 3}, {
        (2,): 1.0, (0, 2, 0, 0): 1.0, (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0,
        (0, 0, 1, 0): 0.4, (0,): 0.25}), 12.0),
    ("generic_double_eigenvalue", _b_spec(
        {"kind": "generic", "matrix": [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]},
        {(2,): 1.0, (0, "L"): 1.0, (0,): -0.5}), None),
    ("S3", _b_spec({"kind": "sphere", "dim": 3}, {
        (2,): 1.0, (1,): 2.0, (0, "L"): 1.0, (0,): 0.3}), None),
)


def runs(workdir: str):
    """(label, argv) for every report, in a fixed order."""
    for name in WORKLOADS:
        for seed in SEEDS:
            wl = workloads.build(name, seed)
            sub = os.path.join(workdir, f"{name}-{seed}")
            os.makedirs(sub)
            for spec, path in zip(wl.specs, workloads.write_specs(wl, sub)):
                for command in ("check", "verify"):
                    yield (f"{name}/{seed}/{spec.name}/{command}",
                           [command, *spec.cli_args(path)])
    sub = os.path.join(workdir, "builtins")
    os.makedirs(sub)
    builtins = workloads.build("cli-cold", SEEDS[0])
    paths = workloads.write_specs(builtins, sub)
    for spec, path in zip(builtins.specs, paths):
        for weight in WEIGHTS:
            for fmt in ("text", "json"):
                for command in ("check", "verify"):
                    yield (f"builtin/{spec.name}/{weight}/{fmt}/{command}",
                           [command, path, "--weight", weight, "--format", fmt])
    for spec, path in zip(builtins.specs, paths):
        for command in ("roots", "normal", "transform"):
            for fmt in ("text", "json"):
                yield (f"builtin/{spec.name}/{fmt}/{command}",
                       [command, path, "--format", fmt])
    for kind, extra in (("b", []), ("zero", []), ("sc", []), ("c_gamma", ["--gamma", "2"])):
        for fmt in ("text", "json"):
            yield (f"bracket-table/{kind}/{fmt}",
                   ["bracket-table", "--structure", kind, *extra, "--format", fmt])
    for name, doc, cutoff in CHANNEL_SPECS:
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        extra = [] if cutoff is None else ["--cutoff", repr(cutoff)]
        for command in ("check", "verify"):
            yield (f"channels/{name}/{command}",
                   [command, path, "--weight", "0.3", "--format", "json", *extra])
        yield f"channels/{name}/roots", ["roots", path, "--format", "json", *extra]


def main() -> int:
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as workdir:
        for label, argv in runs(workdir):
            result = runner.invoke(cli_main, argv)
            if result.exception is not None and not isinstance(result.exception, SystemExit):
                raise result.exception
            digest = hashlib.sha256(result.stdout_bytes).hexdigest()
            print(f"{digest} {result.exit_code} {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
