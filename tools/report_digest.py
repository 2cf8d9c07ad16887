"""Print one sha256 per CLI report, so that two checkouts can be compared
for byte-identical output.

    python3 tools/report_digest.py > digests.txt

Run it in each checkout and diff the two files.  Each line reads
`<sha256 of stdout> <exit code> <label>`; a run that exits 3 (an
`error:` line, empty stdout) adds a line `<sha256 of stderr> 3
<label>/stderr`.  The reports are:

- the JSON `check` and `verify` output for every spec of the benchmark
  workloads `cli-cold`, `modes`, `systems` and `symbols` at seeds 1 and 2,
  with the arguments the benchmark passes (perfbench/workloads.py);
- the text and JSON `check` and `verify` reports of the seven built-in
  models at weights -0.5, 0 and 0.3, with default options;
- the text and JSON `roots`, `normal` and `transform` output of the seven
  built-in models (a structure a command does not apply to gives its
  exit code and an empty stdout);
- the text and JSON `bracket-table` of the b, zero and sc structures and
  of c_gamma at gamma = 2, at the default collar dim 2 and at collar dims
  1 and 3, and of c_gamma at gamma = 1 and 1.5;
- the JSON `check`, `verify` (weight 0.3) and `roots` output of five
  explicit b specs, one per kind of mode channel table: signed channels
  on a circle, T^1 and T^3, and the modes of S^3 and of a generic 3x3
  cross-section with a double eigenvalue;
- the JSON `check` and `verify` output of three explicit sc specs with
  lower-order radial, tangential-partial and matrix terms: a scalar on
  the circle, and 2x2 systems on T^2 and S^2;
- the JSON `check` output of the three `systems` specs (seed 1) at
  weights -2.5 and 1.5 and mode cutoffs 30 and 1e4, which pin the
  certified weight range away from the benchmark's weight, and their
  JSON `verify` at the benchmark's weight and the same two cutoffs: at
  1e4 the 4x4 order-4 spec runs to mode k = 100, where its 8 roots near
  each of +-k lie within 0.02 of one another;
- the root-failure paths: the JSON `check` at weight 0.3 of
  `b_system_order4_singular` (tests/conftest.py; a singular leading
  matrix fails the roots, NotFredholm with a caveat) at cutoffs 30 and
  4000, with its `roots` (exit 3) and `verify` (the roots skipped) at
  cutoff 30; the same three runs of `degree_drop_system`
  (tests/conftest.py; diag(T^2 + L - 1, T + L - 2), leading matrix
  diag(1, 0)) at cutoff 30; the JSON `check` of
  P_eps = (T^2 + L - 1)(T^2 + L - 1.01) on the circle, T = r d/dr, at
  cutoff 1e4 (four simple roots on every mode up to k = 100, the closest
  5e-5 apart; Fredholm, exit 0); and
  `verify` of the 2x2 system T^2 + L + [[2, 0.5], [0, 3]] on the circle
  at weight 0.5 over `--tau-range -1e160 1e160`, whose line scan
  overflows (exit 3);
- the JSON `verify` of the oracle's root certificates: I T^2 + I L +
  diag(1, 2) on the circle (a double root at 0 beside simple roots on
  mode k=1) at weights 0, 0.3 and 0.5, and the merge cases A and B of
  tests/conftest.py (`merge_case`; weight 0, cutoff 1), whose triple root
  the engine's inclusion discs keep apart from its neighbours as the
  oracle's do (NotFredholm, exit 1), and at weight 0.3 two specs with
  a mode whose constant coefficient vanishes, where the oracle starts
  iterates at the root 0: (r d/dr)^4 + L^2 - 16 on the circle (mode k=2
  is tau^4) and I T^2 + [[1, 0.5], [0, 2]] T + I L (mode 0 has a double
  root at 0) (`quartic_laplacian`, `zero_constant_system`), then two
  double roots 12 apart (`two_double_roots_system`; weight 0, cutoff 1)
  and a leading matrix diag(-1, -1e-15) on mode k=1
  (`near_singular_leading_system`; weight 0.3, cutoff 10), whose roots
  fail by name (NotFredholm with a caveat, the roots skipped), and
  (T^2 + L - 1)^2 on the circle at weight 0.3 and cutoff 1e4, a double
  root +-i sqrt(k^2 + 1) on every mode up to k = 100;
- the JSON `verify` at weight 0 of two line scans the benchmark's specs
  do not reach: `b_system_shifted((-102.25, 1, 2, 3))` (tests/conftest.py)
  at cutoff 120, whose scan minimum sits on its last mode class, and
  (r d/dr)^2 + 1e34 on the circle at cutoff 4, whose witness tau = -1e17
  is too large for a fixed local window;
- the text `check` (weight 0.3) and the text and JSON `roots` of the
  `modes` specs `cyl_coord_laplacian@400` and `torus_laplacian@400`
  (seed 1, cutoff 400), whose channels share few mode classes;
- `check`, `roots` and `verify` at cutoff 4 of 1e-7 ((r d/dr)^2 + L) +
  1e302 on the circle, whose block companion matrix overflows (exit 3),
  and `check` and `verify` of the same with 1e-170 in place of 1e-7,
  which is not elliptic (NotFredholm, no roots, the roots skipped);
- the JSON `check` and `verify` (weight 0.3) of two b operators on the
  circle whose principal coefficient depends on r, (r d/dr)^2 +
  (1 - r) d_theta^2 + 1 (its symbol vanishes at r = 1: NotFredholm with
  witness r = 1) and (r d/dr)^2 + (1 + r) d_theta^2 + 1 (elliptic), so
  that every sampled radius counts;
- the `verify --scan-csv` files of a scalar `modes` spec and the
  `systems` specs `2x2_order2` and `4x4_order4` (seed 1, the benchmark's
  arguments), and of the built-in `polar_laplacian` at weight 0, whose
  line verdict "no" also writes the `line-local` scan, and at weight 0.5
  over `--tau-range -1e200 1e200`, whose samples overflow to inf.  Each
  file gets its own line, labelled `scan-csv/<run>/<file>`, with the exit
  code of its `verify`.

The CLI runs in this process, on the `src/` of the checkout this file is
in.  A run that raises instead of exiting prints `raised:<exception
name>` in place of its exit code.  A full run takes 5-7 s of wall time,
the import included, on a two-core x86-64 host.
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
sys.path.insert(0, os.path.join(ROOT, "tests"))

from click.testing import CliRunner  # noqa: E402

import workloads  # noqa: E402
from conftest import (  # noqa: E402
    b_system_order4_singular,
    b_system_shifted,
    degree_drop_system,
    diagonal_system,
    merge_case,
    near_singular_leading_system,
    quartic_laplacian,
    two_double_roots_system,
    zero_constant_system,
)
from fredholm_kit import (  # noqa: E402
    CrossSection,
    LieStructure,
    MultiIndex,
    compose,
    make_operator,
)
from fredholm_kit.cli import main as cli_main, serialize_operator  # noqa: E402

WORKLOADS = ("cli-cold", "modes", "systems", "symbols")
SEEDS = (1, 2)
WEIGHTS = ("-0.5", "0", "0.3")
SYSTEM_WEIGHTS = ("-2.5", "1.5")
SYSTEM_CUTOFFS = ("30", "1e4")
# (run name, workload, spec name, options or None for the benchmark's arguments)
SCAN_SPECS = (("torus_laplacian@400", "modes", "torus_laplacian@400", None),
              ("2x2_order2", "systems", "2x2_order2", None),
              ("polar_laplacian", "cli-cold", "polar_laplacian", ["--weight", "0"]),
              ("4x4_order4", "systems", "4x4_order4", None),
              ("polar_laplacian@wide_tau_range", "cli-cold", "polar_laplacian",
               ["--weight", "0.5", "--tau-range", "-1e200", "1e200"]))


def _spec(cross: dict, terms: dict, kind: str = "b") -> dict:
    """A second-order spec; terms maps an alpha (with a trailing "L" for
    one Laplacian power) to a real value or a real 2x2 matrix, which makes
    the spec a 2x2 system."""
    out = []
    for alpha, value in terms.items():
        term = {"alpha": [a for a in alpha if a != "L"],
                "coefficient": [{"nu": 0, "value": value}]}
        if "L" in alpha:
            term["laplacian"] = 1
        out.append(term)
    doc = {"schema": workloads.SCHEMA, "structure": {"kind": kind}, "cross_section": cross,
           "order": 2, "terms": out}
    if any(isinstance(v, list) for v in terms.values()):
        doc["system_size"] = 2
    return doc


_I2 = [[1.0, 0.0], [0.0, 1.0]]


# (name, spec, mode cutoff or None for the default): one per channel kind
CHANNEL_SPECS = (
    ("circle_odd_partial", _spec({"kind": "circle"}, {
        (2,): 1.0, (0, 2): 1.0, (0, 1): 0.5, (0,): -0.25}), None),
    ("T1_odd_partial", _spec({"kind": "torus", "dim": 1}, {
        (2,): 1.0, (1, 1): 0.3, (0, 2): 1.0, (0,): -0.5}), None),
    ("T3_partials", _spec({"kind": "torus", "dim": 3}, {
        (2,): 1.0, (0, 2, 0, 0): 1.0, (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0,
        (0, 0, 1, 0): 0.4, (0,): 0.25}), 12.0),
    ("generic_double_eigenvalue", _spec(
        {"kind": "generic", "matrix": [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]},
        {(2,): 1.0, (0, "L"): 1.0, (0,): -0.5}), None),
    ("S3", _spec({"kind": "sphere", "dim": 3}, {
        (2,): 1.0, (1,): 2.0, (0, "L"): 1.0, (0,): 0.3}), None),
)


# explicit sc specs with lower-order radial, tangential-partial and matrix
# terms: a scalar on the circle whose symbol vanishes (a witness), a 2x2
# system on T^2, and a 2x2 system on S^2 with one vanishing block
SC_SPECS = (
    ("circle_partials", _spec({"kind": "circle"}, {
        (2,): 1.0, (0, 2): 1.0, (1,): 0.5, (0, 1): 0.3, (0,): 1.0}, "sc")),
    ("T2_system", _spec({"kind": "torus", "dim": 2}, {
        (2,): _I2, (0, 2, 0): _I2, (0, 0, 2): _I2, (1,): [[0.2, 0.5], [0.0, 0.1]],
        (0, 1, 0): [[0.0, 0.3], [0.3, 0.0]], (0, 0, 1): [[0.1, 0.0], [0.0, -0.2]],
        (0,): [[-1.0, 0.4], [0.0, -2.0]]}, "sc")),
    ("S2_system", _spec({"kind": "sphere", "dim": 2}, {
        (2,): _I2, (0, "L"): _I2, (1,): [[0.3, 0.0], [0.2, -0.1]],
        (0,): [[1.0, 0.5], [0.0, -1.0]]}, "sc")),
)


_BRACKET_STRUCTURES = (("b", []), ("zero", []), ("sc", []), ("c_gamma", ["--gamma", "2"]))
# (name, options) of the `bracket-table` runs: four structures at the
# default collar dim and at collar dims 1 and 3, and c_gamma at two more gammas
BRACKET_TABLES = (
    *((kind, ["--structure", kind, *extra]) for kind, extra in _BRACKET_STRUCTURES),
    *((f"{kind}/collar-dim-{dim}", ["--structure", kind, *extra, "--collar-dim", dim])
      for dim in ("1", "3") for kind, extra in _BRACKET_STRUCTURES),
    *((f"c_gamma/gamma-{gamma}", ["--structure", "c_gamma", "--gamma", gamma])
      for gamma in ("1", "1.5")),
)


def _shifted_laplacian(c: float):
    """T^2 + L - c on the circle, T = r d/dr."""
    return make_operator(LieStructure.b(1), CrossSection.circle(),
                         {MultiIndex(2): 1.0, MultiIndex(0, (), 1): 1.0, MultiIndex(0): -c})


def _singular_leading_runs(name: str, op, cutoff: str):
    """`check`, `roots` and `verify` (weight 0.3) of a system whose
    leading matrix is singular, at one mode cutoff."""
    doc = serialize_operator(op)
    options = ["--format", "json", "--cutoff", cutoff]
    return ((f"{name}/{cutoff}", doc, ["check", "--weight", "0.3", *options]),
            (f"{name}/{cutoff}", doc, ["roots", *options]),
            (f"{name}/{cutoff}", doc, ["verify", "--weight", "0.3", *options]))


# (name, spec, command and options) of the runs whose roots or line
# scan are hard: a singular leading matrix (it fails), close roots
# (P_eps), and a line scan that overflows (it fails)
FAILURE_SPECS = (
    *_singular_leading_runs("b_system_order4_singular", b_system_order4_singular(), "30"),
    ("b_system_order4_singular/4000", serialize_operator(b_system_order4_singular()),
     ["check", "--weight", "0.3", "--format", "json", "--cutoff", "4000"]),
    *_singular_leading_runs("degree_drop", degree_drop_system(), "30"),
    ("close_roots/1e4", serialize_operator(compose(_shifted_laplacian(1.0),
                                                   _shifted_laplacian(1.01))),
     ["check", "--weight", "0.3", "--format", "json", "--cutoff", "1e4"]),
    ("wide_tau_range", _spec({"kind": "circle"}, {
        (2,): _I2, (0, "L"): _I2, (0,): [[2.0, 0.5], [0.0, 3.0]]}),
     ["verify", "--weight", "0.5", "--tau-range", "-1e160", "1e160"]),
)


# (name, spec, options) of the `verify` runs of the oracle's root
# certificates: a double root of a diagonal system, root lists that a
# merge gets wrong, modes whose constant coefficient vanishes (the oracle
# starts iterates at 0), two close double roots, a nearly singular
# leading matrix and a double root on every mode
ORACLE_SPECS = (
    *((f"diagonal_system/{weight}", serialize_operator(diagonal_system()),
       ["--weight", weight, "--format", "json"]) for weight in ("0", "0.3", "0.5")),
    *((f"merge_case_{case}", serialize_operator(merge_case(case)),
       ["--weight", "0", "--cutoff", "1", "--format", "json"]) for case in ("A", "B")),
    ("quartic_laplacian", serialize_operator(quartic_laplacian()),
     ["--weight", "0.3", "--format", "json"]),
    ("zero_constant_system", serialize_operator(zero_constant_system()),
     ["--weight", "0.3", "--format", "json"]),
    ("two_double_roots", serialize_operator(two_double_roots_system()),
     ["--weight", "0", "--cutoff", "1", "--format", "json"]),
    ("near_singular_leading", serialize_operator(near_singular_leading_system()),
     ["--weight", "0.3", "--cutoff", "10", "--format", "json"]),
    ("squared_laplacian/1e4", serialize_operator(compose(_shifted_laplacian(1.0),
                                                         _shifted_laplacian(1.0))),
     ["--weight", "0.3", "--cutoff", "1e4", "--format", "json"]),
)


# (name, spec, options) of the `verify` runs whose line scans the
# benchmark's specs do not reach: a scan minimum on the last mode class,
# and a witness far out on the line
LINE_SCAN_SPECS = (
    ("later_class_minimum", serialize_operator(b_system_shifted((-102.25, 1.0, 2.0, 3.0))),
     ["--weight", "0", "--cutoff", "120", "--format", "json"]),
    ("large_witness", _spec({"kind": "circle"}, {(2,): 1.0, (0,): 1e34}),
     ["--weight", "0", "--cutoff", "4", "--format", "json"]),
)


# the `modes` specs whose channels share mode classes most
SHARED_CLASS_SPECS = ("cyl_coord_laplacian@400", "torus_laplacian@400")


def _overflow_spec(scale: float) -> dict:
    """scale ((r d/dr)^2 + L) + 1e302 on the circle."""
    return _spec({"kind": "circle"}, {(2,): scale, (0, "L"): scale, (0,): 1e302})


# (name, spec, commands) of the runs whose block companion matrix overflows
OVERFLOW_SPECS = (
    ("elliptic", _overflow_spec(1e-7), ("check", "roots", "verify")),
    ("non_elliptic", _overflow_spec(1e-170), ("check", "verify")),
)


def _radial_principal_spec(sign: float) -> dict:
    """(r d/dr)^2 + (1 + sign r) d_theta^2 + 1 on the circle."""
    return {"schema": workloads.SCHEMA, "structure": {"kind": "b"},
            "cross_section": {"kind": "circle"}, "order": 2, "terms": [
                {"alpha": [2], "coefficient": [{"nu": 0, "value": 1.0}]},
                {"alpha": [0, 2], "coefficient": [{"nu": 0, "value": 1.0},
                                                  {"nu": 1, "value": sign}]},
                {"alpha": [0], "coefficient": [{"nu": 0, "value": 1.0}]}]}


# (name, spec) of the b operators whose principal coefficient depends on r
RADIAL_PRINCIPAL_SPECS = (("one_minus_r", _radial_principal_spec(-1.0)),
                          ("one_plus_r", _radial_principal_spec(1.0)))


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
    for name, options in BRACKET_TABLES:
        for fmt in ("text", "json"):
            yield f"bracket-table/{name}/{fmt}", ["bracket-table", *options, "--format", fmt]
    for name, doc, cutoff in CHANNEL_SPECS:
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        extra = [] if cutoff is None else ["--cutoff", repr(cutoff)]
        for command in ("check", "verify"):
            yield (f"channels/{name}/{command}",
                   [command, path, "--weight", "0.3", "--format", "json", *extra])
        yield f"channels/{name}/roots", ["roots", path, "--format", "json", *extra]
    for name, doc in SC_SPECS:
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        for command in ("check", "verify"):
            yield f"sc/{name}/{command}", [command, path, "--format", "json"]
    sub = os.path.join(workdir, "system-weights")
    os.makedirs(sub)
    systems = workloads.build("systems", SEEDS[0])
    for spec, path in zip(systems.specs, workloads.write_specs(systems, sub)):
        for weight in SYSTEM_WEIGHTS:
            for cutoff in SYSTEM_CUTOFFS:
                yield (f"system-weights/{spec.name}/{weight}/{cutoff}/check",
                       ["check", path, "--weight", weight, "--format", "json",
                        "--cutoff", cutoff])
        for cutoff in SYSTEM_CUTOFFS:
            yield (f"system-weights/{spec.name}/{workloads.WEIGHT!r}/{cutoff}/verify",
                   ["verify", path, "--weight", repr(workloads.WEIGHT), "--format", "json",
                    "--cutoff", cutoff])
    for name, doc, argv in FAILURE_SPECS:
        path = os.path.join(workdir, f"{name.replace('/', '-')}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        yield f"failures/{name}/{argv[0]}", [argv[0], path, *argv[1:]]
    for name, doc, options in LINE_SCAN_SPECS:
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        yield f"line-scans/{name}/verify", ["verify", path, *options]
    for name, doc, options in ORACLE_SPECS:
        path = os.path.join(workdir, f"{name.replace('/', '-')}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        yield f"oracle-roots/{name}/verify", ["verify", path, *options]
    sub = os.path.join(workdir, "shared-classes")
    os.makedirs(sub)
    modes = workloads.build("modes", SEEDS[0])
    for spec, path in zip(modes.specs, workloads.write_specs(modes, sub)):
        if spec.name in SHARED_CLASS_SPECS:
            cutoff = ["--cutoff", repr(spec.cutoff)]
            yield (f"shared-classes/{spec.name}/text/check",
                   ["check", path, "--weight", "0.3", "--format", "text", *cutoff])
            for fmt in ("text", "json"):
                yield (f"shared-classes/{spec.name}/{fmt}/roots",
                       ["roots", path, "--format", fmt, *cutoff])
    for name, doc, commands in OVERFLOW_SPECS:
        path = os.path.join(workdir, f"overflow-{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        for command in commands:
            yield (f"overflow/{name}/{command}",
                   [command, path, "--cutoff", "4", "--format", "json"])
    for name, doc in RADIAL_PRINCIPAL_SPECS:
        path = os.path.join(workdir, f"radial-principal-{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        for command in ("check", "verify"):
            yield (f"radial-principal/{name}/{command}",
                   [command, path, "--weight", "0.3", "--format", "json"])


def scan_runs(workdir: str):
    """(run name, argv, directory) for every `verify --scan-csv` run; the
    CSV files are the only files in their directory."""
    for run_name, name, spec_name, options in SCAN_SPECS:
        spec = next(s for s in workloads.build(name, SEEDS[0]).specs if s.name == spec_name)
        path = os.path.join(workdir, "scans", f"{run_name}.json")
        sub = os.path.join(workdir, "scans", run_name)
        os.makedirs(sub)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec.doc, fh, indent=2)
        args = spec.cli_args(path) if options is None else [path, *options]
        yield run_name, ["verify", *args, "--scan-csv", os.path.join(sub, "scan.csv")], sub


def _invoke(runner: CliRunner, argv: list[str]) -> tuple:
    """(stdout bytes, stderr bytes, exit code, or `raised:<name>` for an
    exception)."""
    result = runner.invoke(cli_main, argv)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        return (result.stdout_bytes, result.stderr_bytes,
                f"raised:{type(result.exception).__name__}")
    return result.stdout_bytes, result.stderr_bytes, result.exit_code


def main() -> int:
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as workdir:
        for label, argv in runs(workdir):
            stdout, stderr, code = _invoke(runner, argv)
            print(f"{hashlib.sha256(stdout).hexdigest()} {code} {label}", flush=True)
            if code == 3:
                print(f"{hashlib.sha256(stderr).hexdigest()} {code} {label}/stderr", flush=True)
        for run_name, argv, sub in scan_runs(workdir):
            _, _, code = _invoke(runner, argv)
            for name in sorted(os.listdir(sub)):
                with open(os.path.join(sub, name), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                print(f"{digest} {code} scan-csv/{run_name}/{name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
