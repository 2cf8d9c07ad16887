"""Spec files, commands, exit codes, determinism, report formatting."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import fredholm_kit
from fredholm_kit import (
    FredholmOptions,
    IndicialRoot,
    RadialGrid,
    RootTable,
    builtin_suite,
    cross_check,
    fredholm_check,
    make_model,
    spectrum,
)
from fredholm_kit.cli import (
    SCHEMA,
    SpecFileError,
    main,
    parse_spec,
    parse_spec_dict,
    render_report,
    serialize_operator,
)
from conftest import (
    MERGE_CASES,
    b_system_order4_singular,
    diagonal_system,
    merge_case,
    merge_case_roots,
    shared_class_root_roots,
    shared_class_root_table,
    windowed_trig,
)

SHIFTED_CYLINDER = {
    "schema": SCHEMA,
    "structure": {"kind": "b"},
    "cross_section": {"kind": "circle"},
    "order": 2,
    "terms": [
        {"alpha": [2], "coefficient": [{"nu": 0, "value": 1}]},
        {"alpha": [0], "laplacian": 1, "coefficient": [{"nu": 0, "value": 1}]},
        {"alpha": [0], "coefficient": [{"nu": 0, "value": -1}]},
    ],
}


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# parsing and round trips
# ---------------------------------------------------------------------------


def test_parse_model_file(tmp_path):
    path = write(tmp_path, "polar.json", {"schema": SCHEMA, "model": "polar_laplacian"})
    op, compact = parse_spec(path)
    assert op == make_model("polar_laplacian")
    assert not compact


def test_parse_model_with_params(tmp_path):
    path = write(tmp_path, "s.json", {
        "schema": SCHEMA, "model": "spherical_schrodinger",
        "params": {"n": 3, "Z": [1.0, 2.0]}})
    op, _ = parse_spec(path)
    assert op == make_model("spherical_schrodinger", n=3, Z=1.0 + 2.0j)


def test_parse_explicit_matches_hand_construction(tmp_path, rng):
    path = write(tmp_path, "shifted.json", SHIFTED_CYLINDER)
    op, _ = parse_spec(path)
    # same action on samples as the direct construction
    from fredholm_kit import CrossSection, Coefficient, LieStructure, MultiIndex, make_operator
    hand = make_operator(LieStructure.b(1), CrossSection.circle(), {
        MultiIndex(2): 1.0, MultiIndex(0, (), 1): 1.0, MultiIndex(0): -1.0})
    assert op == hand
    grid = RadialGrid(-8.0, 2.0, 256)
    table = spectrum(op.cross_section, 4.5)
    u = np.array([windowed_trig(rng, grid.t, -6.0, 0.0) for _ in range(len(table))],
                 dtype=complex)
    assert np.array_equal(op.apply(u, grid, table), hand.apply(u, grid, table))


def test_round_trip_is_canonical_fixed_point():
    for name, op in (("polar", make_model("polar_laplacian")),
                     ("bs", make_model("black_scholes", sigma=1.0, rate=0.25)),
                     ("cg", make_model("cgamma_schrodinger", n=3, gamma=2.0, V0=1.0)),
                     ("sc", make_model("sc_laplacian", cross_dim=2, shift=-1.0))):
        spec = serialize_operator(op)
        reparsed, _ = parse_spec_dict(spec)
        assert reparsed == op, name
        assert serialize_operator(reparsed) == spec, name


@pytest.mark.parametrize("name", [name for name, _ in builtin_suite()])
def test_an_operator_and_its_explicit_spec_get_one_report(name):
    # the report belongs to the operator, not to how it was built
    op = dict(builtin_suite())[name]
    explicit, _ = parse_spec_dict(serialize_operator(op))
    assert explicit == op
    assert render_report(fredholm_check(explicit), "json") == \
        render_report(fredholm_check(op), "json")


def test_schema_violations_carry_paths(tmp_path):
    bad_order = dict(SHIFTED_CYLINDER, order=1)
    with pytest.raises(SpecFileError, match=r"terms\[0\].alpha"):
        parse_spec_dict(bad_order)
    unknown = dict(SHIFTED_CYLINDER, extra=1)
    with pytest.raises(SpecFileError, match="unknown field"):
        parse_spec_dict(unknown)
    with pytest.raises(SpecFileError, match="schema"):
        parse_spec_dict({"model": "polar_laplacian"})


def test_non_hermitian_generic_rejected():
    spec = {
        "schema": SCHEMA,
        "structure": {"kind": "b"},
        "cross_section": {"kind": "generic", "matrix": [[0, 1], [0, 0]], "dimension": 1},
        "order": 1,
        "terms": [{"alpha": [1], "coefficient": [{"nu": 0, "value": 1}]}],
    }
    with pytest.raises(SpecFileError, match="Hermitian"):
        parse_spec_dict(spec)


def test_matrix_valued_system_spec_round_trip():
    spec = {
        "schema": SCHEMA,
        "structure": {"kind": "b"},
        "cross_section": {"kind": "circle"},
        "system_size": 2,
        "order": 2,
        "terms": [
            {"alpha": [2], "coefficient": [{"nu": 0, "value": [[1, 0], [0, 1]]}]},
            {"alpha": [0],
             "coefficient": [{"nu": 0, "value": [[-1, [0, 0.5]], [[0, -0.5], -2]]}]},
        ],
    }
    op, _ = parse_spec_dict(spec)
    assert op.system_size == 2
    again, _ = parse_spec_dict(serialize_operator(op))
    assert again == op


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": "fredholm-kit/1",\n  "model": }')
    with pytest.raises(SpecFileError, match="line 2"):
        parse_spec(str(path))


def _edited(**fields):
    """SHIFTED_CYLINDER with top-level fields replaced (None drops one)."""
    spec = json.loads(json.dumps(SHIFTED_CYLINDER))
    spec.update(fields)
    return {k: v for k, v in spec.items() if v is not None}


def _term(i, **fields):
    """SHIFTED_CYLINDER with fields of terms[i] replaced (None drops one)."""
    terms = json.loads(json.dumps(SHIFTED_CYLINDER["terms"]))
    terms[i].update(fields)
    terms[i] = {k: v for k, v in terms[i].items() if v is not None}
    return _edited(terms=terms)


def _coefficient(i, **fields):
    """SHIFTED_CYLINDER with fields of terms[i].coefficient[0] replaced."""
    term = dict(SHIFTED_CYLINDER["terms"][i]["coefficient"][0], **fields)
    return _term(i, coefficient=[{k: v for k, v in term.items() if v is not None}])


def _model(**fields):
    return {"schema": SCHEMA, "model": "black_scholes", **fields}


_GENERIC = {"kind": "generic", "matrix": [[1, 0], [0, 2]]}


# (id, spec, path, message) of specs that parse_spec_dict refuses
_MALFORMED_SPECS = [
    # JSON booleans are not numbers
    ("bool-value", _coefficient(2, value=True),
     "terms[2].coefficient[0].value", "expected a number or [re, im] pair"),
    ("bool-pair", _coefficient(2, value=[True, 0]),
     "terms[2].coefficient[0].value", "expected a number or [re, im] pair"),
    ("bool-nu", _coefficient(0, nu=True),
     "terms[0].coefficient[0].nu", "nu must be a number >= 0"),
    ("bool-laplacian", _term(1, laplacian=True),
     "terms[1].laplacian", "must be an integer >= 0"),
    ("bool-alpha", _term(0, alpha=[True, 0]),
     "terms[0].alpha", "alpha must be [radial, cross...] of ints >= 0"),
    ("bool-order", _edited(order=True), "order", "order must be a nonnegative integer"),
    ("bool-system_size", _edited(system_size=True), "system_size", "must be a positive integer"),
    ("bool-torus-dim", _edited(cross_section={"kind": "torus", "dim": True}),
     "cross_section.dim", "torus needs an integer dim >= 1"),
    ("bool-sphere-dim", _edited(cross_section={"kind": "sphere", "dim": True}),
     "cross_section.dim", "sphere needs an integer dim >= 1"),
    ("bool-gamma", _edited(structure={"kind": "c_gamma", "gamma": True}),
     "structure.gamma", "c_gamma needs a numeric gamma"),
    ("bool-param", _model(params={"sigma": True}),
     "params.sigma", "expected a number or [re, im] pair"),
    # values
    ("ragged-matrix", _coefficient(2, value=[[1, 0], [0]]),
     "terms[2].coefficient[0].value[1]", "ragged matrix"),
    ("non-square-matrix", _coefficient(2, value=[[1, 0]]),
     "terms[2].coefficient[0].value", "matrix values must be square"),
    ("matrix-row-not-list", _coefficient(2, value=[[1, 0], 5]),
     "terms[2].coefficient[0].value[1]", "matrix rows must be lists"),
    # cross sections
    ("torus-without-dim", _edited(cross_section={"kind": "torus"}),
     "cross_section.dim", "torus needs an integer dim >= 1"),
    ("sphere-dim-0", _edited(cross_section={"kind": "sphere", "dim": 0}),
     "cross_section.dim", "sphere needs an integer dim >= 1"),
    ("unknown-cross-section", _edited(cross_section={"kind": "klein"}),
     "cross_section.kind", "unknown cross-section kind 'klein'"),
    ("generic-without-matrix", _edited(cross_section={"kind": "generic"}),
     "cross_section.matrix", "generic cross-sections need a matrix"),
    ("bool-generic-dimension", _edited(cross_section=_GENERIC | {"dimension": True}),
     "cross_section.dimension", "must be an integer >= 0"),
    ("string-generic-dimension", _edited(cross_section=_GENERIC | {"dimension": "x"}),
     "cross_section.dimension", "must be an integer >= 0"),
    # structures
    ("unknown-structure", _edited(structure={"kind": "cusp"}),
     "structure.kind", "unknown structure 'cusp'"),
    ("gamma-outside-c_gamma", _edited(structure={"kind": "b", "gamma": 2}),
     "structure.gamma", "gamma is only valid for c_gamma"),
    ("string-gamma", _edited(structure={"kind": "c_gamma", "gamma": "2"}),
     "structure.gamma", "c_gamma needs a numeric gamma"),
    # coefficient terms
    ("negative-nu", _coefficient(0, nu=-1),
     "terms[0].coefficient[0].nu", "nu must be a number >= 0"),
    ("missing-value", _coefficient(0, value=None),
     "terms[0].coefficient[0].value", "missing value"),
    ("bad-cross_dependence", _coefficient(0, cross_dependence={"poly": [1]}),
     "terms[0].coefficient[0].cross_dependence", "expected {'laplacian_poly': [...]}"),
    # models
    ("model-with-terms", _model(terms=SHIFTED_CYLINDER["terms"]),
     "terms", "not allowed together with 'model'"),
    ("unknown-model", _model(model="nope"), "model", "unknown model 'nope'"),
    ("params-not-object", _model(params=[1.0]), "params", "must be an object"),
    ("string-param", _model(model="spherical_schrodinger", params={"Z": "1"}),
     "params.Z", "expected a number or [re, im] pair"),
    # top-level fields
    ("missing-order", _edited(order=None), "order", "missing required field"),
    ("negative-order", _edited(order=-1), "order", "order must be a nonnegative integer"),
    ("system_size-0", _edited(system_size=0), "system_size", "must be a positive integer"),
    # terms
    ("terms-not-list", _edited(terms={"alpha": [2]}), "terms", "expected a nonempty list"),
    ("negative-laplacian", _term(1, laplacian=-1),
     "terms[1].laplacian", "must be an integer >= 0"),
    ("alpha-past-order", _term(0, alpha=[3]),
     "terms[0].alpha", "|alpha| = 3 exceeds declared order 2"),
    ("too-many-slots", _term(2, alpha=[0, 0, 1]),
     "terms[2].alpha", "2 tangential slots but cross-section"),
    ("missing-coefficient", _term(0, coefficient=None),
     "terms[0].coefficient", "missing coefficient"),
    ("laplacian_poly-past-order", _coefficient(0, cross_dependence={"laplacian_poly": [1, 1]}),
     "terms[0].coefficient[0]", "laplacian_poly degree pushes the term past the declared order"),
    ("system_size-mismatch", _edited(system_size=2),
     "system_size", "declared 2 but coefficients are 1x1"),
]


@pytest.mark.parametrize("spec, path, message",
                         [pytest.param(*case[1:], id=case[0]) for case in _MALFORMED_SPECS])
def test_malformed_specs_name_their_field(tmp_path, runner, spec, path, message):
    with pytest.raises(SpecFileError) as err:
        parse_spec_dict(spec)
    assert err.value.path == path
    assert str(err.value).startswith(f"{path}: {message}")
    res = runner.invoke(main, ["check", write(tmp_path, "spec.json", spec)])
    assert res.exit_code == 3 and res.stdout == ""
    assert res.stderr.splitlines() == [f"{tmp_path / 'spec.json'}: {err.value}"]


# ---------------------------------------------------------------------------
# commands and exit codes
# ---------------------------------------------------------------------------


def test_check_exit_codes(tmp_path, runner):
    polar = write(tmp_path, "polar.json", {"schema": SCHEMA, "model": "polar_laplacian"})
    shifted = write(tmp_path, "shifted.json", SHIFTED_CYLINDER)
    hyp = write(tmp_path, "hyp.json", {
        "schema": SCHEMA, "model": "hyperbolic_laplacian",
        "params": {"cross_dim": 1, "shift": 1.0}})
    assert runner.invoke(main, ["check", polar, "--weight", "0"]).exit_code == 1
    assert runner.invoke(main, ["check", shifted, "--weight", "0"]).exit_code == 0
    assert runner.invoke(main, ["check", polar, "--weight", "0.5"]).exit_code == 0
    assert runner.invoke(main, ["check", hyp]).exit_code == 2
    assert runner.invoke(main, ["check", str(tmp_path / "absent.json")]).exit_code == 3


@pytest.mark.parametrize("args", [
    pytest.param(["check", "SPEC", "--bogus"], id="unknown-option"),
    pytest.param(["check", "SPEC", "--weight", "abc"], id="weight-not-a-number"),
    pytest.param(["check"], id="no-spec-path"),
    # the line scan options are the oracle's, and only verify runs it
    pytest.param(["check", "SPEC", "--pts", "5"], id="check-pts"),
])
def test_click_usage_errors_exit_3_not_undecided(tmp_path, runner, args):
    spec = write(tmp_path, "polar.json", {"schema": SCHEMA, "model": "polar_laplacian"})
    res = runner.invoke(main, [spec if a == "SPEC" else a for a in args])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit), res.output
    assert res.stdout == "" and res.stderr.startswith("Usage: ")


@pytest.mark.parametrize("args", [["--help"], ["check", "--help"], ["--version"]])
def test_help_and_version_exit_0(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 0 and res.stdout and res.stderr == ""


def test_only_check_and_verify_say_the_tail_raises_the_cutoff(runner):
    # roots has no weight and no tail certificate: its cutoff stays as given
    def cutoff_help(command):
        text = " ".join(runner.invoke(main, [command, "--help"]).stdout.split())
        return text[text.index("--cutoff"):text.index("--format")]
    for command in ("check", "verify"):
        assert "raised if the tail certificate needs more" in cutoff_help(command)
    assert "tail certificate" not in cutoff_help("roots")
    assert "roots never raises it" in cutoff_help("roots")


def test_version_of_a_source_tree_run_needs_no_installed_metadata():
    # the package is imported from src/, not installed: --version is
    # fredholm_kit.__version__
    res = run_cli("--version")
    assert res.returncode == 0, res.stderr
    assert res.stdout.split()[-1] == fredholm_kit.__version__ == "0.1.0"


def test_check_of_a_non_elliptic_system_without_roots_says_not_fredholm(tmp_path, runner):
    spec = write(tmp_path, "singular.json", serialize_operator(b_system_order4_singular()))
    res = runner.invoke(main, ["check", spec, "--weight", "0.3"])
    assert res.exit_code == 1
    assert res.output.splitlines()[0] == "VERDICT: NotFredholm"
    assert "indicial roots not computed (root refinement failed" in res.output


def _overflow_spec(scale):
    """scale ((r d/dr)^2 + L) + 1e302 on the circle: -A_2^-1 A_0 overflows."""
    return dict(SHIFTED_CYLINDER, terms=[
        {"alpha": [2], "coefficient": [{"nu": 0, "value": scale}]},
        {"alpha": [0], "laplacian": 1, "coefficient": [{"nu": 0, "value": scale}]},
        {"alpha": [0], "coefficient": [{"nu": 0, "value": 1e302}]}])


@pytest.mark.parametrize("command", ["check", "roots", "verify"])
def test_overflowing_companion_matrix_is_a_named_failure(tmp_path, runner, command):
    # elliptic (symbol floor 1e-7): the root failure is an error, not a
    # traceback; RuntimeWarnings are errors here
    spec = write(tmp_path, "spec.json", _overflow_spec(1e-7))
    res = runner.invoke(main, [command, spec, "--cutoff", "4"])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit), res.exception
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        "error: root refinement failed on mode k=0: the block companion matrix is not finite"]


def test_overflowing_companion_of_a_non_elliptic_operator_keeps_not_fredholm(tmp_path, runner):
    spec = write(tmp_path, "spec.json", _overflow_spec(1e-170))
    res = runner.invoke(main, ["check", spec, "--cutoff", "4"])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
    assert res.output.splitlines()[0] == "VERDICT: NotFredholm"
    assert ("indicial roots not computed (root refinement failed on mode k=0: the block "
            "companion matrix is not finite)") in res.output


@pytest.mark.parametrize("payload", [
    pytest.param(lambda: serialize_operator(b_system_order4_singular()), id="singular-leading"),
    pytest.param(lambda: _overflow_spec(1e-170), id="overflowing-companion"),
])
def test_verify_skips_roots_a_non_elliptic_report_could_not_compute(tmp_path, runner, payload):
    # NotFredholm rests on the failed ellipticity; the oracle writes one
    # skipped entry for the missing roots instead of failing every mode
    spec = write(tmp_path, "spec.json", payload())
    res = runner.invoke(main, ["verify", spec, "--weight", "0.3", "--cutoff", "30"])
    assert res.exit_code == 1, res.output
    [roots] = [line for line in res.output.splitlines() if "] roots" in line]
    assert roots.startswith("[     skipped] roots: indicial roots not computed (root "
                            "refinement failed on mode k=0: ")


def test_roots_of_a_singular_leading_matrix_is_an_error(tmp_path, runner):
    spec = write(tmp_path, "spec.json", serialize_operator(b_system_order4_singular()))
    res = runner.invoke(main, ["roots", spec, "--cutoff", "30"])
    assert res.exit_code == 3 and res.stdout == ""
    assert res.stderr.splitlines() == [
        "error: root refinement failed on mode k=0: the leading matrix is singular"]


@pytest.mark.parametrize("size", [1, 2])
def test_an_overflowing_family_prints_its_error_line_alone(tmp_path, size):
    # (r d/dr)^2 + 1e306 L on the circle, and I (r d/dr)^2 + 1e306 I L:
    # the overflowing products in the family, the symbol determinants and
    # the root sensitivities print no RuntimeWarning before the error
    value = (lambda x: [[x, 0.0], [0.0, x]]) if size == 2 else (lambda x: x)
    doc = dict(SHIFTED_CYLINDER, terms=[
        {"alpha": [2], "coefficient": [{"nu": 0, "value": value(1.0)}]},
        {"alpha": [0], "laplacian": 1, "coefficient": [{"nu": 0, "value": value(1e306)}]}])
    if size == 2:
        doc["system_size"] = 2
    res = run_cli("check", write(tmp_path, "spec.json", doc), "--cutoff", "400")
    assert res.returncode == 3 and res.stdout == ""
    [line] = res.stderr.splitlines()
    assert line.startswith("error: root refinement failed on mode k=")


POLAR_TEXT = '{"schema": "fredholm-kit/1", "model": "polar_laplacian"}'
SHIFTED_TEXT = json.dumps(SHIFTED_CYLINDER)


@pytest.mark.parametrize("spec_text, args", [
    pytest.param(POLAR_TEXT, ["check", "--cutoff", "nan"], id="cutoff-nan"),
    pytest.param(POLAR_TEXT, ["check", "--cutoff", "inf"], id="cutoff-inf"),
    pytest.param(POLAR_TEXT, ["roots", "--cutoff", "nan"], id="roots-cutoff-nan"),
    pytest.param(POLAR_TEXT, ["check", "--cutoff", "0"], id="cutoff-0"),
    pytest.param(POLAR_TEXT, ["check", "--cutoff", "-1"], id="cutoff-negative"),
    pytest.param(POLAR_TEXT, ["roots", "--cutoff", "-1"], id="roots-cutoff-negative"),
    pytest.param(POLAR_TEXT, ["check", "--weight", "nan"], id="weight-nan"),
    pytest.param(POLAR_TEXT, ["check", "--weight", "-inf"], id="weight-inf"),
    pytest.param(POLAR_TEXT, ["verify", "--pts", "1"], id="pts-1"),
    pytest.param(POLAR_TEXT, ["verify", "--tau-range", "1", "-1"], id="tau-range-empty"),
    pytest.param(POLAR_TEXT, ["verify", "--tau-range", "-inf", "1"], id="tau-range-inf"),
    pytest.param(SHIFTED_TEXT.replace('"value": -1', '"value": NaN'), ["check"],
                 id="spec-NaN"),
    pytest.param(SHIFTED_TEXT.replace('"value": -1', '"value": Infinity'), ["check"],
                 id="spec-Infinity"),
    pytest.param(SHIFTED_TEXT.replace('"value": -1', '"value": -Infinity'), ["verify"],
                 id="spec-minus-Infinity"),
    pytest.param(SHIFTED_TEXT.replace('"value": -1', '"value": 1e400'), ["check"],
                 id="spec-1e400"),
    pytest.param(SHIFTED_TEXT.replace('"value": -1', '"value": 1' + "0" * 400), ["check"],
                 id="spec-huge-int"),
    # finite, but the default mode cutoff 10 * max|coefficient| * order^2 overflows
    pytest.param(SHIFTED_TEXT.replace('"value": -1', '"value": 1e308'), ["check"],
                 id="spec-cutoff-overflow"),
])
def test_non_finite_input_is_a_usage_error(tmp_path, runner, spec_text, args):
    path = tmp_path / "spec.json"
    path.write_text(spec_text)
    res = runner.invoke(main, [args[0], str(path), *args[1:]])
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1 and "Traceback" not in res.stderr


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("args", [["c_gamma", "--gamma", "nan"], ["c_gamma", "--gamma", "inf"],
                                  ["c_gamma"], ["b", "--gamma", "nan"]])
def test_bracket_table_gamma_is_finite_and_for_c_gamma_only(runner, args, fmt):
    res = runner.invoke(main, ["bracket-table", "--structure", *args, "--format", fmt])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1 and "gamma" in res.stderr


def run_cli(*args, timeout=60, code=None):
    """Run a Python snippet (`code`) or the CLI with `args` in a fresh
    interpreter on this checkout's package; the timeout fails a hang."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fredholm_kit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    argv = ["-c", code] if code else ["-m", "fredholm_kit.cli", *args]
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=timeout, env=env)


# Counts, in a fresh interpreter, the code compiled at run time while the
# kit is imported and runs `check` and `verify`: the import system compiling
# a module's source file (no bytecode cached) is not counted, code generated
# from a string is.  Prints that count and whether numpy.polynomial loaded.
COLD_START_PROBE = """
import os, sys
import click, numpy
generated = []
def audit(event, args):
    if event == "compile" and not (isinstance(args[1], str) and os.path.isfile(args[1])):
        generated.append(args[1])
sys.addaudithook(audit)
import fredholm_kit.cli as cli
for command in ("check", "verify"):
    try:
        cli.main([command, sys.argv[1], "--weight", "0.3"])
    except SystemExit as exit:
        assert exit.code == 0, (command, exit.code)
print(len(generated), "numpy.polynomial" in sys.modules)
"""


def test_cold_start_generates_no_code_and_leaves_numpy_polynomial_unloaded(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(POLAR_TEXT)
    src = os.path.dirname(os.path.dirname(os.path.abspath(fredholm_kit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    res = subprocess.run([sys.executable, "-c", COLD_START_PROBE, str(path)],
                         capture_output=True, text=True, timeout=60, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "0 False"


# (r d/dr)^2 + 1e-7 L - 10 on the circle: the symbol floor 1e-7 puts the
# certified tail at lambda = 1e8, past the mode budget
TINY_FLOOR_TEXT = json.dumps(dict(SHIFTED_CYLINDER, terms=[
    {"alpha": [2], "coefficient": [{"nu": 0, "value": 1}]},
    {"alpha": [0], "laplacian": 1, "coefficient": [{"nu": 0, "value": 1e-7}]},
    {"alpha": [0], "coefficient": [{"nu": 0, "value": -10}]}]))


@pytest.mark.parametrize("spec_text, args, code, message", [
    # an envelope weight overflows: the tail is uncertified
    pytest.param(POLAR_TEXT, ["check", "--weight", "1e300"], 2,
                 "could not be certified at this weight", id="weight-1e300"),
    # the certified tail needs a cutoff near 1e40, far past the budget
    pytest.param(POLAR_TEXT, ["check", "--weight", "1e20"], 2, "over the budget of",
                 id="weight-1e20"),
    pytest.param(TINY_FLOOR_TEXT, ["check"], 2, "over the budget of", id="tiny-symbol-floor"),
    pytest.param(POLAR_TEXT, ["check", "--cutoff", "1e300"], 3, "budget", id="cutoff-1e300"),
    pytest.param(POLAR_TEXT, ["roots", "--cutoff", "1e300"], 3, "budget",
                 id="roots-cutoff-1e300"),
])
def test_huge_weight_or_cutoff_ends_in_a_verdict_or_usage_error(tmp_path, spec_text,
                                                                 args, code, message):
    path = tmp_path / "spec.json"
    path.write_text(spec_text)
    res = run_cli(args[0], str(path), *args[1:], timeout=20)
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    if code == 2:
        assert res.stdout.startswith("VERDICT: Undecided")
        assert message in res.stdout
    else:
        assert message in res.stderr and res.stdout == ""


# I (r d/dr)^2 + I L + [[2, 0.5], [0, 3]] on the circle
OVERFLOW_SYSTEM_TEXT = json.dumps(dict(SHIFTED_CYLINDER, system_size=2, terms=[
    {"alpha": [2], "coefficient": [{"nu": 0, "value": [[1, 0], [0, 1]]}]},
    {"alpha": [0], "laplacian": 1, "coefficient": [{"nu": 0, "value": [[1, 0], [0, 1]]}]},
    {"alpha": [0], "coefficient": [{"nu": 0, "value": [[2, 0.5], [0, 3]]}]}]))


@pytest.mark.parametrize("spec_text, reach, code, stderr", [
    pytest.param(POLAR_TEXT, "1e200", 0, "", id="scalar-inf-samples"),
    pytest.param(OVERFLOW_SYSTEM_TEXT, "10", 0, "", id="system"),
    pytest.param(OVERFLOW_SYSTEM_TEXT, "1e160", 3,
                 "error: line scan overflows at tau=-1e+160-0.5j; use a narrower --tau-range\n",
                 id="system-nan-samples"),
])
def test_verify_over_a_wide_tau_range(tmp_path, spec_text, reach, code, stderr):
    # in a fresh interpreter, where an overflow warning would reach stderr
    path = tmp_path / "spec.json"
    path.write_text(spec_text)
    res = run_cli("verify", str(path), "--weight", "0.5", "--tau-range", f"-{reach}", reach)
    assert (res.returncode, res.stderr) == (code, stderr)
    assert res.stdout.startswith("VERDICT: Fredholm") if code == 0 else res.stdout == ""


def test_verify_at_a_huge_weight_runs_no_line_scan(tmp_path, runner):
    # the tail is uncertified, so the line verdict is numerical evidence
    # and a scan of the family shifted by 1e300 would only overflow
    path = write(tmp_path, "polar.json", {"schema": SCHEMA, "model": "polar_laplacian"})
    csv = tmp_path / "scan.csv"
    res = runner.invoke(main, ["verify", path, "--weight", "1e300",
                               "--scan-csv", str(csv)])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.exception
    assert res.stdout.startswith("VERDICT: Undecided")
    assert "oracle ledger: PASS" in res.stdout
    assert not csv.exists()


def shifted_scalar(c):
    """(r d/dr)^2 + c on the circle: for c > 0 the roots of every mode lie
    on the weight-0 line, at tau = +-sqrt(c)."""
    return dict(SHIFTED_CYLINDER, terms=[
        {"alpha": [2], "coefficient": [{"nu": 0, "value": 1.0}]},
        {"alpha": [0], "coefficient": [{"nu": 0, "value": c}]}])


@pytest.mark.parametrize("c, status, detail", [
    # the witness tau = -1e17, where a window of +-0.02 is a single float
    pytest.param(1e34, "pass", "witness confirmed: local scan min 0.000e+00", id="1e34"),
    # the witness's 12 digits sit 5e-9 off the root, where |P| is about 1e-5
    pytest.param(2.000000001e6, "inconclusive",
                 "local scan min 9.479e-06 near the witness tau=-1414.21+0j is within its "
                 "resolution 2.400e-05 of 0", id="2e6"),
])
def test_verify_at_a_large_witness_ends_in_a_ledger_entry(tmp_path, runner, c, status, detail):
    path = write(tmp_path, "spec.json", shifted_scalar(c))
    res = runner.invoke(main, ["verify", path, "--weight", "0", "--cutoff", "4",
                               "--format", "json"])
    assert isinstance(res.exception, SystemExit), res.exception
    entries = json.loads(res.stdout)["oracle"]["entries"]
    assert {"name": "line-verdict", "status": status, "detail": detail} in entries


def verify_entries(runner, path, *options):
    """(exit code, oracle ledger entries) of `verify PATH --format json`."""
    res = runner.invoke(main, ["verify", path, *options, "--format", "json"])
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    return res.exit_code, json.loads(res.stdout)["oracle"]["entries"]


def test_verify_re_finds_the_roots_of_a_badly_scaled_operator(tmp_path, runner):
    # (r d/dr)^2 + 1e34: tau = +-1e17 on mode 0, on the weight-0 line
    path = write(tmp_path, "spec.json", shifted_scalar(1e34))
    code, entries = verify_entries(runner, path, "--weight", "0", "--cutoff", "4")
    assert code == 1
    roots = [e for e in entries if e["name"].startswith("roots[")]
    assert [e["status"] for e in roots] == ["pass"] * 3
    assert all(e["detail"] == "2 roots re-found by contours" for e in roots)


@pytest.mark.parametrize("weight, code", [("0", 1), ("0.3", 0), ("0.5", 0)])
def test_verify_passes_on_a_double_root_of_a_diagonal_system(tmp_path, runner, weight, code):
    # a double root at tau = 0 on mode k=1, beside simple roots at +-1; at
    # weight 0 the roots of mode 0 lie on the line (NotFredholm)
    path = write(tmp_path, "spec.json", serialize_operator(diagonal_system()))
    got, entries = verify_entries(runner, path, "--weight", weight)
    assert got == code
    assert {"name": "roots[k=1]", "status": "pass",
            "detail": "4 roots re-found by contours"} in entries
    assert all(e["status"] != "fail" for e in entries)


# the root lists the sensitivity discs of an earlier engine merged: case
# A, x4 at r + 0.025; case B, all six roots at their mean
MERGED_ROOTS = {"A": lambda r, near: [(r + near / 4, 4), (r - 1, 1), (r + 2j, 1)],
                "B": lambda r, near: [(r + (near - 1 + 2j) / 6, 6)]}


@pytest.mark.parametrize("case, detail", [
    ("A", "brute root tau=1+0.5j (x3) missing from report"),
    ("B", "brute root tau=99+50j (x1) missing from report"),
])
def test_verify_fails_a_merged_root_list(tmp_path, runner, case, detail):
    # the engine's inclusion discs keep r x3 apart from r - 1 and r + 2i,
    # and in case A from r + 0.1; in case B r + 0.01 lies within the reach
    # of the triple root, so one cluster of 4 holds both, as in the oracle
    p = merge_case(case)
    want = merge_case_roots(case)
    if case == "B":
        (r, _), (near, _), *rest = want
        want = [((3 * r + near) / 4, 4), *rest]
    path = write(tmp_path, "spec.json", serialize_operator(p))
    res = runner.invoke(main, ["check", path, "--weight", "0", "--cutoff", "1", "--format", "json"])
    listed = json.loads(res.stdout)["indicial_roots"]
    for mode in ("k=0", "k=1"):
        got = [(complex(*r["tau"]), r["multiplicity"]) for r in listed if r["mode"] == mode]
        assert sorted(m for _, m in got) == sorted(m for _, m in want)
        for z, m in want:
            assert any(n == m and abs(w - z) <= 1e-7 * abs(z) for w, n in got), (mode, z, m)
    code, entries = verify_entries(runner, path, "--weight", "0", "--cutoff", "1")
    assert code == 1 and all(e["status"] != "fail" for e in entries)
    # a report doctored to the merged list still fails
    opts = FredholmOptions(mode_cutoff=1.0)
    report = fredholm_check(p, 0.0, opts)
    merged = RootTable.from_roots([IndicialRoot(mode, tau, 1j * tau, m) for mode in ("k=0", "k=1")
                                   for tau, m in MERGED_ROOTS[case](*MERGE_CASES[case])])
    ledger = cross_check(p, report.replace(roots=merged), opts)
    failed = [e.as_dict() for e in ledger.entries if e.status == "fail"]
    assert failed[0] == {"name": "roots[k=0]", "status": "fail", "detail": detail}
    assert {e["name"] for e in failed} == {"roots[k=0]", "roots[k=1]"}


def test_check_of_a_coefficient_near_the_largest_float_warns_nothing(tmp_path, runner):
    # I (r d/dr)^4 - diag(1.7e308, 2); a RuntimeWarning is an error here
    path = write(tmp_path, "spec.json", dict(SHIFTED_CYLINDER, order=4, system_size=2, terms=[
        {"alpha": [4], "coefficient": [{"nu": 0, "value": [[1, 0], [0, 1]]}]},
        {"alpha": [0], "coefficient": [{"nu": 0, "value": [[-1.7e308, 0], [0, -2]]}]}]))
    res = runner.invoke(main, ["check", path, "--cutoff", "2"])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 1 and res.stdout.startswith("VERDICT: NotFredholm")


def test_verify_over_the_mode_budget_still_exports_its_line_scan(tmp_path, runner):
    # the tail is certified but needs more modes than the budget: the
    # verdict is numerical evidence, and the line scan behind it is kept
    path = tmp_path / "spec.json"
    path.write_text(TINY_FLOOR_TEXT)
    csv = tmp_path / "scan.csv"
    res = runner.invoke(main, ["verify", str(path), "--scan-csv", str(csv)])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.exception
    assert "over the budget of" in res.stdout
    assert csv.read_text().startswith("point,minSingular\n")


def test_benchmark_trace_hooks_install_on_this_package():
    # perfbench/tracing.py wraps kit functions by name; renaming one of them
    # must fail here, not only in traced benchmark runs
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    res = run_cli(code=f"""
import sys
sys.path.insert(0, {perfbench!r})
import tracing
tracing.install(tracing.Tracer())
print("installed")
""")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "installed\n"


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("spec_text, null_at", [
    # mu0 = 0 makes the tail's s0 and lambda_certified infinite
    pytest.param('{"schema": "fredholm-kit/1", "model": "cyl_coord_laplacian"}',
                 ("cutoffs", "tail", "s0"), id="uncertified-tail"),
    # no tangential derivative: the sc scan is undecided and its minimum NaN
    pytest.param(json.dumps({
        "schema": SCHEMA, "structure": {"kind": "sc"}, "cross_section": {"kind": "circle"},
        "order": 2, "terms": [{"alpha": [2], "coefficient": [{"nu": 0, "value": 1}]},
                              {"alpha": [0], "coefficient": [{"nu": 0, "value": 1}]}]}),
                 ("cutoffs", "sc_search_radius"), id="undecided-sc-scan"),
])
@pytest.mark.parametrize("command", ["check", "verify"])
def test_json_reports_are_strict_json(tmp_path, runner, spec_text, null_at, command):
    path = tmp_path / "spec.json"
    path.write_text(spec_text)
    res = runner.invoke(main, [command, str(path), "--format", "json"])
    assert isinstance(res.exception, SystemExit), res.exception
    payload = json.loads(res.stdout, parse_constant=_reject_constant)
    for key in null_at:
        payload = payload[key]
    assert payload is None


def test_report_roots_are_encoded_as_they_stand():
    from fredholm_kit._util import round12
    from fredholm_kit.cli import _dumps
    # non-finite report floats become null where the report is built
    assert round12(float("inf")) is None
    assert round12(float("-inf")) is None
    assert round12(float("nan")) is None
    roots = [{"mode": "k=0", "tau": [0.5, -1.0]}]
    assert json.loads(_dumps({"cutoffs": {"s0": None}, "indicial_roots": roots})) == \
        {"cutoffs": {"s0": None}, "indicial_roots": roots}
    # the encoder refuses a non-finite float in any section
    for payload in ({"cutoffs": {"s0": float("inf")}},
                    {"indicial_roots": [{"mode": "k=0", "tau": [float("nan"), 0.0]}]}):
        with pytest.raises(ValueError):
            _dumps(payload, indent=2)


def _json_module_text(text):
    return json.dumps(json.loads(text), indent=2, sort_keys=True, allow_nan=False) + "\n"


def test_json_reports_equal_the_json_module_encoding(tmp_path, runner):
    # root lists are written from a template; every report must still be
    # what json.dumps(indent=2, sort_keys=True) writes
    from fredholm_kit.opalg import _MODELS
    runs = []
    for name in sorted(_MODELS):
        path = write(tmp_path, f"{name}.json", {"schema": SCHEMA, "model": name})
        runs += [[command, path, "--weight", w] for command in ("check", "verify")
                 for w in ("-0.5", "0", "0.3")]
        runs.append(["roots", path])
    runs.append(["check", write(tmp_path, "cyl.json", {
        "schema": SCHEMA, "model": "cyl_coord_laplacian"}), "--cutoff", "400"])
    listed = 0
    for argv in runs:
        res = runner.invoke(main, [*argv, "--format", "json"])
        assert res.exception is None or isinstance(res.exception, SystemExit), argv
        if argv[0] == "roots" and res.exit_code == 3:  # no indicial family
            assert res.stdout == ""
            continue
        assert res.stdout == _json_module_text(res.stdout), argv
        payload = json.loads(res.stdout)
        listed += len(payload["roots" if argv[0] == "roots" else "indicial_roots"])
    assert listed > 2473  # the cutoff-400 report alone lists 2473


def test_root_template_matches_the_json_module():
    from fredholm_kit.cli import _render_json
    from fredholm_kit.fredholm import IndicialRoot
    inf, nan = float("inf"), float("nan")
    taus = [complex(0.0, -0.0), complex(-0.0, 2.5), complex(inf, 1 / 3),
            complex(nan, -1e-7), complex(123456789012345.0, 2.5), complex(1e16, -0.0),
            np.complex128(0.1 + 0.25j), np.complex128(0.25j), np.complex128(-0.1 - 0.0j)]
    roots = [IndicialRoot(f"k={i}", tau, 1j * tau, i + 1) for i, tau in enumerate(taus)]
    roots.append(IndicialRoot('a "quoted" \\ label, \u03bb = \u221a2\n', 2.5 - 1j, 1 + 2.5j, 2))
    assert isinstance(roots[6].tau.real, np.float64)
    roots += shared_class_root_roots()
    payloads = [
        ({"schema": SCHEMA, "verdict": "Fredholm"}, "indicial_roots"),  # in the middle
        ({"a": 1, "caveats": ['\n  "zz": "x"', '  "roots": []']}, "roots"),  # last
        ({"z": [1, {"b": [2.0, None]}]}, "roots"),  # first
    ]
    # tables: one class root per root, and the shared class roots with
    # their signed zeros
    tables = (RootTable.from_roots(roots), shared_class_root_table(), RootTable.from_roots([]))
    for payload, key in payloads:
        for listed in (roots, [], *tables):
            expected = json.dumps({**payload, key: [r.as_dict() for r in listed]},
                                  indent=2, sort_keys=True, allow_nan=False) + "\n"
            assert _render_json(payload, key, listed) == expected
    assert f'"{key}": []' in _render_json(payload, key, [])


# signed zeros, subnormals, the magnitudes where `%.12g` (1e12) and `repr`
# (1e16) switch to exponents, ties at the 12th digit that are exact in
# binary (half-even), a decimal tie that is not, and inf and NaN
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -3.3e-320, 2.2250738585072014e-308,
               1e11, 99999999999.95, 100000000000.5, 100000000001.5, 123456789012.5,
               999999999999.5, 1e12, 1234567890125.0, 1e15, 9999999999999998.0, 1e16,
               1e16 + 2, 1e17, -1.2345678901235e17, 0.1234567890125, 1 / 3,
               float("inf"), float("-inf"), float("nan"))


def edge_root_table():
    """A table whose class-root numbers run through EDGE_FLOATS, with
    listed roots that share class roots and channels."""
    n = len(EDGE_FLOATS)
    tau = [complex(EDGE_FLOATS[i], EDGE_FLOATS[-1 - i]) for i in range(n)]
    mellin = [complex(EDGE_FLOATS[(i + 3) % n], EDGE_FLOATS[(i + 7) % n]) for i in range(n)]
    class_root = [*range(n), *range(0, n, 3), n - 1]
    return RootTable(tuple(f"k={i}" for i in range(5)), np.array(tau), np.array(mellin),
                     np.arange(n) % 3 + 1, np.arange(len(class_root)) % 5, np.array(class_root))


def test_batched_root_numbers_equal_the_per_value_path():
    from fredholm_kit.cli import _roots_text
    table = edge_root_table()
    per_value = [r.as_dict() for r in table]  # round12, one value at a time
    assert _roots_text(table) == json.dumps(per_value, indent=2, sort_keys=True,
                                            allow_nan=False).replace("\n", "\n  ")
    report = fredholm_check(make_model("polar_laplacian"), 0.3).replace(roots=table)
    # repr tells -0.0 from 0.0
    assert repr(report.to_dict()["indicial_roots"]) == repr(per_value)
    assert "-0.0" in repr(per_value) and "None" in repr(per_value)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.floats(), max_size=40))
def test_batched_round12_equals_round12_per_value(values):
    from fredholm_kit._util import json12_all, round12, round12_all
    assert repr(round12_all(values)) == repr([round12(x) for x in values])
    assert json12_all(values) == [json.dumps(round12(x)) for x in values]


def test_text_report_lists_every_root_of_a_shared_class_root():
    from fredholm_kit._util import fmt_complex
    report = fredholm_check(make_model("polar_laplacian"), 0.3)
    roots = tuple(shared_class_root_roots())
    for given in ((*report.roots, *roots), shared_class_root_table()):
        text = render_report(report.replace(roots=given), "text")
        listed = [line for line in text.splitlines() if line.startswith("  mode ")]
        assert listed[-len(roots):] == [
            f"  mode {r.mode}: z = {fmt_complex(r.mellin)}  (tau = {fmt_complex(r.tau)}, "
            f"multiplicity {r.multiplicity})" for r in roots]


def test_a_modes_report_builds_no_root_per_channel(monkeypatch, tmp_path):
    # torus_laplacian@400 lists 2,514 roots on 146 class roots: the check,
    # its JSON and text reports, to_dict and cross_check read the root
    # table, and build at most the line witness as an IndicialRoot, kept
    # or not
    import gc

    from fredholm_kit.fredholm import IndicialRoot
    monkeypatch.syspath_prepend(os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
    import workloads

    wl = workloads.build("modes", 1)
    [(spec, path)] = [(spec, path) for spec, path in zip(wl.specs, workloads.write_specs(
        wl, str(tmp_path))) if spec.name == "torus_laplacian@400"]
    op, compact = parse_spec(path)
    opts = FredholmOptions(mode_cutoff=spec.cutoff, empty_boundary=compact)
    built = []
    init = IndicialRoot.__init__

    def counted(self, *args):
        built.append(args[0])
        init(self, *args)

    monkeypatch.setattr(IndicialRoot, "__init__", counted)
    gc.collect()
    before = sum(isinstance(o, IndicialRoot) for o in gc.get_objects())
    report = fredholm_check(op, workloads.WEIGHT, opts)
    kept = [report, render_report(report, "json"), render_report(report, "text"),
            report.to_dict(), cross_check(op, report, opts)]
    gc.collect()
    alive = sum(isinstance(o, IndicialRoot) for o in gc.get_objects()) - before
    assert len(report.roots) == 2514 and len(report.roots.tau) == 292
    assert kept[-1].passed
    assert len(built) + alive <= 4, (len(built), alive)


def test_ledger_template_matches_the_json_module():
    from fredholm_kit import cross_check
    from fredholm_kit.cli import _render_json
    from fredholm_kit.numoracle import CheckLedger, LedgerEntry
    p = make_model("polar_laplacian")
    report = fredholm_check(p, 0.3)
    passing = cross_check(p, report)
    failing = CheckLedger((
        LedgerEntry('roots[k="1"]', "fail", 'brute root "tau=1j" \\ missing,\n\u03bb = \u221a2'),
        LedgerEntry("line-scan", "pass", "min 0.5 at \"tau\"=0")), {})
    assert passing.passed and len(passing.entries) > 2 and not failing.passed
    for ledger in (passing, failing, CheckLedger((), {})):
        payload = report._dict_without_roots()
        expected = json.dumps({**payload, "indicial_roots": [r.as_dict() for r in report.roots],
                               "oracle": ledger.as_dict()},
                              indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert _render_json(payload, "indicial_roots", report.roots, ledger) == expected


def test_operator_and_bracket_json_write_non_finite_numbers_as_null(tmp_path, runner):
    # two finite terms whose sum overflows, real and complex
    for value, emitted in ((1e308, None), ([1e308, 1], [None, 2.0])):
        term = {"nu": 0, "value": value}
        path = write(tmp_path, "spec.json", dict(SHIFTED_CYLINDER, terms=[
            SHIFTED_CYLINDER["terms"][0], {"alpha": [0], "coefficient": [term, term]}]))
        res = runner.invoke(main, ["normal", path, "--format", "json"])
        assert res.exit_code == 0, res.exception
        payload = json.loads(res.stdout, parse_constant=_reject_constant)
        assert [t["coefficient"][0]["value"] for t in payload["terms"]
                if t["alpha"] == [0]] == [emitted]
    # a non-finite gamma never reaches the bracket JSON: it is a usage error
    res = runner.invoke(main, ["bracket-table", "--structure", "c_gamma", "--gamma", "nan",
                               "--format", "json"])
    assert (res.exit_code, res.stdout) == (3, "")


def test_reports_record_the_fixed_sampling_values(tmp_path, runner):
    # thresholds and sampling grids are module constants; every report
    # states the values its verdict rests on
    from fredholm_kit.opalg import _MODELS
    seen = set()
    for name in sorted(_MODELS):
        path = write(tmp_path, f"{name}.json", {"schema": SCHEMA, "model": name})
        res = runner.invoke(main, ["check", path, "--format", "json"])
        assert isinstance(res.exception, SystemExit), res.exception
        payload = json.loads(res.stdout)
        assert payload["elliptic"]["threshold"] == 1e-08
        assert payload["elliptic"]["grid"][0] == 9
        kind = payload["operator"]["structure"]
        seen.add(kind)
        if kind == "b":
            assert payload["cutoffs"]["tail"]["direction_samples"] == 720
        elif kind == "zero":
            assert payload["cutoffs"]["halfspace_truncations"] == [[4.0, 48], [6.0, 72],
                                                                   [8.0, 96]]
        else:
            assert payload["limit_operators"][0]["detail"]["threshold"] == 1e-06
    assert seen == {"b", "sc", "zero", "c_gamma"}


def test_verify_at_a_cutoff_just_below_an_eigenvalue(tmp_path, runner):
    # the report states the cutoff to 12 digits, 100.0, and the oracle
    # rebuilds the spectrum from that value; the engine must use the same
    # value, or the k=10 modes (eigenvalue 100) go missing from its roots
    path = write(tmp_path, "polar.json", {"schema": SCHEMA, "model": "polar_laplacian"})
    cutoff = ["--cutoff", "99.99999999999", "--format", "json"]
    res = runner.invoke(main, ["verify", path, "--weight", "0.3", *cutoff])
    assert res.exit_code == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["cutoffs"]["mode_cutoff"] == 100.0
    assert payload["oracle"]["passed"]
    assert "k=10" in {r["mode"] for r in payload["indicial_roots"]}
    res = runner.invoke(main, ["roots", path, *cutoff])
    assert res.exit_code == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["mode_cutoff"] == 100.0
    assert "k=10" in {r["mode"] for r in payload["roots"]}


def _scaled_identity_terms(scale, constant):
    big = [[scale, 0], [0, scale]]
    terms = [{"alpha": [2], "coefficient": [{"nu": 0, "value": big}]},
             {"alpha": [0], "laplacian": 1, "coefficient": [{"nu": 0, "value": big}]}]
    if constant:
        terms.append({"alpha": [0], "coefficient": [{"nu": 0, "value": big}]})
    return terms


def test_overflowing_determinant_is_an_error_not_a_verdict(tmp_path):
    # I T^2 + I L + diag(1e300, 0): on mode 0, det P = tau^2 (tau^2 - 1e300)
    # has roots near +-1e150, where (det P)' = det A_2 prod_j (z_i - z_j),
    # the divisor of every inclusion radius, is about 2e450 and overflows.
    # No power-of-two scaling of P brings it back: a named failure, not a
    # verdict.  In a fresh interpreter: numpy's overflow warnings would be
    # errors in this one
    path = tmp_path / "spec.json"
    terms = [*_scaled_identity_terms(1.0, False),
             {"alpha": [0], "coefficient": [{"nu": 0, "value": [[1e300, 0], [0, 0]]}]}]
    path.write_text(json.dumps(dict(SHIFTED_CYLINDER, system_size=2, terms=terms)))
    res = run_cli("check", str(path), "--cutoff", "10")
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr and res.stdout == ""
    assert [line for line in res.stderr.splitlines() if line.startswith("error:")] == [
        "error: root refinement failed on mode k=0: inclusion disc not finite at tau=-1e+150+0j"]


@pytest.mark.parametrize("scale", [1e-200, 1e-150, 1e160, 1e200])
def test_roots_of_a_scaled_system_do_not_depend_on_its_scale(tmp_path, runner, scale):
    # s I (T^2 + L) on the circle has the roots of T^2 + L, each twice
    # (a double root at 0 on mode 0, +-i k on mode k), for every s: the
    # winding counts of its clusters run on P scaled by a power of two,
    # so det P neither overflows nor underflows on their boxes
    def roots_text(s):
        path = write(tmp_path, f"scaled-{s:g}.json", dict(
            SHIFTED_CYLINDER, system_size=2, terms=_scaled_identity_terms(s, False)))
        res = runner.invoke(main, ["roots", path, "--cutoff", "10"])
        assert res.exit_code == 0, res.output
        return res.stdout

    assert roots_text(scale) == roots_text(1.0)


def test_overflowing_symbol_determinant_is_written_as_null(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(SHIFTED_CYLINDER, system_size=2, structure={"kind": "sc"},
                                    terms=_scaled_identity_terms(1e200, True))))
    res = run_cli("check", str(path), "--format", "json")
    assert "Traceback" not in res.stderr
    payload = json.loads(res.stdout, parse_constant=_reject_constant)
    assert payload["elliptic"]["min_abs_det"] is None


def test_report_digest_lists_every_report(tmp_path, monkeypatch):
    # byte-identity checks diff this list against the committed digest; a
    # workload or spec rename must not shrink it silently
    import importlib.util

    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/ and perfbench/
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", "report_digest.py")
    spec = importlib.util.spec_from_file_location("report_digest", path)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    labels = [label for label, _argv in digest.runs(str(tmp_path))]
    # 172 check/verify reports, roots/normal/transform of the seven built-ins
    # in two formats, bracket-table in two formats of four structures at
    # three collar dims and of c_gamma at two more gammas,
    # check/verify/roots of five channel-kind specs, check/verify of three sc
    # specs, check of three systems specs at two weights and two cutoffs
    # and their verify at two cutoffs, nine root-failure runs
    # (check/roots/verify of two singular leading matrices, one more check,
    # close roots, an overflowing scan), two line-scan runs, ten verify runs
    # of the oracle's root certificates, text check and text/JSON roots of
    # two modes specs, five runs whose companion matrix overflows, and
    # check/verify of two operators whose principal coefficient depends on r,
    # and text/JSON check of the explicit spec of cyl_coord_laplacian
    assert len(labels) == len(set(labels)) == \
        172 + 7 * 3 * 2 + (4 * 3 + 2) * 2 + 5 * 3 + 3 * 2 + 3 * 2 * 2 + 3 * 2 + 9 + 2 + 10 \
        + 2 * 3 + 5 + 2 * 2 + 2
    # the verify --scan-csv runs: a scalar modes spec, two systems specs, a
    # "no" line, and samples that overflow to inf
    scans = [(name, argv[-1]) for name, argv, _sub in digest.scan_runs(str(tmp_path))]
    assert [name for name, _ in scans] == ["torus_laplacian@400", "2x2_order2",
                                           "polar_laplacian", "4x4_order4",
                                           "polar_laplacian@wide_tau_range"]
    assert all(csv.endswith(".csv") for _, csv in scans)
    # the committed digest lists the same runs in the same order, so a run
    # added without regenerating it fails here, not only in a full --check
    with open(digest.COMMITTED, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# numpy ")
    committed = [line.split(" ", 2)[2] for line in lines[1:]]
    assert [label for label in committed if not label.endswith("/stderr")
            and not label.startswith("scan-csv/")] == labels
    scan_names = [label.split("/")[1] for label in committed if label.startswith("scan-csv/")]
    assert list(dict.fromkeys(scan_names)) == [name for name, _ in scans]


def test_sc_and_cgamma_runs_import_only_numpy_and_click():
    # modules loaded before the kit (site hooks from .pth files) are not its own
    res = run_cli(code=f"""
import json, sys
def top():
    return {{name.partition(".")[0] for name in sys.modules}}
before = top()
from click.testing import CliRunner
from fredholm_kit.cli import main
specs = {{"sc.json": {{"schema": "{SCHEMA}", "model": "sc_laplacian",
                      "params": {{"cross_dim": 2, "shift": 1.0}}}},
         "cgamma.json": {{"schema": "{SCHEMA}", "model": "cgamma_schrodinger",
                          "params": {{"n": 3, "gamma": 2, "V0": 1}}}}}}
runner = CliRunner()
with runner.isolated_filesystem():
    for name, spec in specs.items():
        with open(name, "w") as fh:
            json.dump(spec, fh)
        for command in ("check", "verify"):
            assert runner.invoke(main, [command, name]).exit_code in (1, 2)
print(json.dumps(sorted(top() - before)))
""")
    assert res.returncode == 0, res.stderr
    loaded = json.loads(res.stdout)
    extra = [m for m in loaded if m not in sys.stdlib_module_names
             and m not in ("numpy", "click", "fredholm_kit")]
    assert extra == [], extra
    assert "fredholm_kit" in loaded


def test_check_report_first_line_contract(tmp_path, runner):
    shifted = write(tmp_path, "shifted.json", SHIFTED_CYLINDER)
    res = runner.invoke(main, ["check", shifted])
    assert res.output.splitlines()[0] == "VERDICT: Fredholm"
    polar = write(tmp_path, "polar.json", {"schema": SCHEMA, "model": "polar_laplacian"})
    res = runner.invoke(main, ["check", polar])
    assert res.output.splitlines()[0] == "VERDICT: NotFredholm"
    assert "witness" in res.output and "k=0" in res.output


def test_undecided_report_carries_caveat(tmp_path, runner):
    hyp = write(tmp_path, "hyp.json", {
        "schema": SCHEMA, "model": "hyperbolic_laplacian",
        "params": {"cross_dim": 1, "shift": 1.0}})
    res = runner.invoke(main, ["check", hyp])
    assert res.output.splitlines()[0] == "VERDICT: Undecided"
    assert "numerical evidence" in res.output


def test_check_weight_convention_in_both_formats(tmp_path, runner):
    shifted = write(tmp_path, "shifted.json", SHIFTED_CYLINDER)
    text = runner.invoke(main, ["check", shifted, "--weight", "0.2"]).output
    assert "Re(z) = delta" in text
    blob = runner.invoke(main, ["check", shifted, "--weight", "0.2",
                                "--format", "json"]).output
    assert json.loads(blob)["weight"] == {"delta": 0.2,
                                          "convention": "line Re(z) = delta"}


def test_verify_pass_and_scan_csv(tmp_path, runner):
    shifted = write(tmp_path, "shifted.json", SHIFTED_CYLINDER)
    csv_path = tmp_path / "scan.csv"
    res = runner.invoke(main, ["verify", shifted, "--weight", "0",
                               "--scan-csv", str(csv_path)])
    assert res.exit_code == 0
    assert "oracle ledger: PASS" in res.output
    assert csv_path.read_text().startswith("point,minSingular")


def test_verify_compact_flag(tmp_path, runner):
    spec = dict(SHIFTED_CYLINDER, compact=True)
    path = write(tmp_path, "compact.json", spec)
    res = runner.invoke(main, ["check", path, "--format", "json"])
    payload = json.loads(res.output)
    assert payload["limit_operators"] == []
    assert res.exit_code == 0


def test_roots_command_lists_mellin_roots(tmp_path, runner):
    sph = write(tmp_path, "s.json", {
        "schema": SCHEMA, "model": "spherical_schrodinger", "params": {"n": 3, "Z": 1}})
    res = runner.invoke(main, ["roots", sph, "--format", "json"])
    payload = json.loads(res.output)
    zs = sorted(round(r["mellin"][0]) for r in payload["roots"])
    assert -2 in zs and 1 in zs and 0 in zs and -1 in zs


def test_normal_command(tmp_path, runner):
    sph = write(tmp_path, "s.json", {
        "schema": SCHEMA, "model": "spherical_schrodinger", "params": {"n": 3, "Z": 1}})
    res = runner.invoke(main, ["normal", sph, "--format", "json"])
    payload = json.loads(res.output)
    assert all(t["alpha"] != [0] or "laplacian" in t for t in payload["terms"])


def test_normal_text_header_names_the_frame(tmp_path, runner):
    # a c_gamma frame's radial field r^gamma d/dr is not d/dt for t = log r
    cgamma = write(tmp_path, "c.json", {
        "schema": SCHEMA, "model": "cgamma_schrodinger",
        "params": {"n": 3, "gamma": 2, "V0": 1}})
    res = runner.invoke(main, ["normal", cgamma])
    assert res.exit_code == 0
    assert res.output == (
        "frozen operator (c_gamma frame: formal, not translation-invariant in "
        "t = log r; no invertibility criterion is attached to it here):\n"
        "  (r^2 d/dr)^2 + L + (1)\n")
    polar = write(tmp_path, "p.json", {"schema": SCHEMA, "model": "polar_laplacian"})
    res = runner.invoke(main, ["normal", polar])
    assert res.output.startswith("normal operator (translation-invariant in t = log r):\n")


def test_normal_text_shows_matrix_coefficients(tmp_path, runner):
    eye = [[1.0, 0.0], [0.0, 1.0]]
    spec = {"schema": SCHEMA, "structure": {"kind": "b"}, "cross_section": {"kind": "circle"},
            "order": 2, "system_size": 2, "terms": [
                {"alpha": [2], "coefficient": [{"nu": 0, "value": [[1.0, 0.0], [0.0, 2.0]]}]},
                {"alpha": [0], "laplacian": 1, "coefficient": [{"nu": 0, "value": eye}]}]}
    res = runner.invoke(main, ["normal", write(tmp_path, "s.json", spec)])
    assert res.output.splitlines()[1] == "  [[1, 0], [0, 2]] (r d/dr)^2 + [[1, 0], [0, 1]] L"


def test_transform_command(tmp_path, runner):
    polar = write(tmp_path, "p.json", {"schema": SCHEMA, "model": "polar_laplacian"})
    res = runner.invoke(main, ["transform", polar])
    assert "(d/dt)^2" in res.output
    sc = write(tmp_path, "sc.json", {
        "schema": SCHEMA, "model": "sc_laplacian", "params": {"cross_dim": 1}})
    assert runner.invoke(main, ["transform", sc]).exit_code == 3


def test_sc_check_rejects_mode_diagonal_coefficients(tmp_path, runner):
    # q(lambda) acts on cross-section modes: the sc full symbol has no value for it
    spec = write(tmp_path, "sc.json", {
        "schema": SCHEMA, "structure": {"kind": "sc"}, "cross_section": {"kind": "circle"},
        "order": 2, "terms": [
            {"alpha": [2], "coefficient": [{"nu": 0, "value": 1.0}]},
            {"alpha": [0], "coefficient": [{"nu": 0, "value": 1.0, "cross_dependence":
                                            {"laplacian_poly": [0.0, 1.0]}}]}]})
    for command in ("check", "verify"):
        res = runner.invoke(main, [command, spec])
        assert res.exit_code == 3, res.output
        assert res.stdout == "" and "mode-diagonal" in res.stderr


def test_bracket_table_zero_structure(runner):
    res = runner.invoke(main, ["bracket-table", "--structure", "zero"])
    assert "[e0, e1] = 1 e1" in res.output
    res_sc = runner.invoke(main, ["bracket-table", "--structure", "sc",
                                  "--collar-dim", "3"])
    assert "abelian" in res_sc.output


def test_bracket_table_refuses_a_collar_dim_past_its_cap_at_once(runner):
    # the table holds collar_dim^3 numbers: 10^12 would never end
    import time

    from fredholm_kit.cli import MAX_COLLAR_DIM
    for dim in (MAX_COLLAR_DIM + 1, 10 ** 12):
        start = time.perf_counter()
        res = runner.invoke(main, ["bracket-table", "--structure", "zero",
                                   "--collar-dim", str(dim)])
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 3 and res.stdout == ""
        assert res.stderr == f"error: --collar-dim must be at most {MAX_COLLAR_DIM}, got {dim}\n"
    res = runner.invoke(main, ["bracket-table", "--structure", "zero",
                               "--collar-dim", str(MAX_COLLAR_DIM)])
    last = MAX_COLLAR_DIM - 1
    assert res.exit_code == 0 and f"  [e0, e{last}] = 1 e{last}\n" in res.stdout


def test_exit_codes_match_verdicts_across_builtins(tmp_path, runner):
    cases = [
        ({"schema": SCHEMA, "model": "polar_laplacian"}, ["--weight", "0.5"], 0),
        ({"schema": SCHEMA, "model": "black_scholes",
          "params": {"sigma": 1, "rate": 0}}, ["--weight", "0"], 1),
        ({"schema": SCHEMA, "model": "sc_laplacian",
          "params": {"cross_dim": 2, "shift": -1}}, [], 0),
        ({"schema": SCHEMA, "model": "sc_laplacian",
          "params": {"cross_dim": 2, "shift": 1}}, [], 1),
        ({"schema": SCHEMA, "model": "cgamma_schrodinger",
          "params": {"n": 3, "gamma": 2, "V0": 1}}, [], 2),
    ]
    for payload, args, expected in cases:
        path = write(tmp_path, "case.json", payload)
        res = runner.invoke(main, ["check", path, *args])
        assert res.exit_code == expected, (payload, res.output)


def test_machine_reports_are_byte_identical(tmp_path, runner):
    shifted = write(tmp_path, "shifted.json", SHIFTED_CYLINDER)
    first = runner.invoke(main, ["check", shifted, "--format", "json"]).output
    second = runner.invoke(main, ["check", shifted, "--format", "json"]).output
    assert first == second
    assert first.encode() == second.encode()


def test_render_report_json_contains_everything():
    rep = fredholm_check(make_model("polar_laplacian"), 0.0)
    payload = json.loads(render_report(rep, "json"))
    for key in ("verdict", "weight", "elliptic", "limit_operators",
                "indicial_roots", "safe_weight_intervals", "cutoffs", "caveats"):
        assert key in payload
    assert payload["limit_operators"][0]["witness"]["multiplicity"] == 2
