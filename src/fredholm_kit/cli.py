"""Batch front-end: operator spec files, checks, and report rendering.

Spec files are JSON with a versioned "schema" field, either naming a
built-in model or spelling out terms explicitly; see the README for the
format.  Exit codes: 0 Fredholm, 1 NotFredholm, 2 Undecided, 3 usage or
spec errors, 4 oracle mismatch.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import click
import numpy as np

from . import __version__
from ._util import FloatCache, fmt12, fmt_complex, round12
from .crosssec import CrossKind, CrossSection, check_cutoff, spectrum
from .fredholm import (
    FredholmOptions,
    FredholmReport,
    VERDICT_FREDHOLM,
    VERDICT_NOT,
    VERDICT_UNDECIDED,
    WEIGHT_CONVENTION,
    RootTable,
    fredholm_check,
    indicial_roots,
)
from .limitops import indicial_family, normal_operator
from .liestruct import (
    FredholmKitError,
    LieStructure,
    StructureKind,
    isotropy,
    structure_constants,
)
from .numoracle import cross_check
from .opalg import (
    BoundaryOperator,
    Coefficient,
    CoeffTerm,
    MultiIndex,
    _MODELS,
    _is_matrix,
    default_mode_cutoff,
    kondratiev_transform,
    make_model,
)

SCHEMA = "fredholm-kit/1"

_EXIT = {VERDICT_FREDHOLM: 0, VERDICT_NOT: 1, VERDICT_UNDECIDED: 2}
EXIT_SPEC_ERROR = 3
EXIT_ORACLE_MISMATCH = 4


class SpecFileError(FredholmKitError):
    """A spec file problem, carrying the JSON path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


# ---------------------------------------------------------------------------
# value (de)serialization
# ---------------------------------------------------------------------------


def _parse_scalar(v, path: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if (isinstance(v, list) and len(v) == 2
            and all(isinstance(x, (int, float)) for x in v)):
        return complex(v[0], v[1])
    raise SpecFileError(path, "expected a number or [re, im] pair")


def _parse_value(v, path: str):
    # a matrix is a list of rows; a [re, im] pair is a 2-list of numbers
    if isinstance(v, list) and v and isinstance(v[0], list) and not (
            len(v) == 2 and all(isinstance(x, (int, float)) for x in v)):
        rows = []
        width = None
        for i, row in enumerate(v):
            if not isinstance(row, list):
                raise SpecFileError(f"{path}[{i}]", "matrix rows must be lists")
            entries = [_parse_scalar(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)]
            if width is None:
                width = len(entries)
            elif len(entries) != width:
                raise SpecFileError(f"{path}[{i}]", "ragged matrix")
            rows.append(entries)
        mat = np.array(rows, dtype=complex)
        if mat.shape[0] != mat.shape[1]:
            raise SpecFileError(path, "matrix values must be square")
        return mat
    return _parse_scalar(v, path)


def _emit_scalar(z: complex):
    """A number for JSON: an int where it is one, [re, im] when complex,
    and null for a part that is not finite (terms whose sum overflowed)."""
    z = complex(z)
    re, im = (x if math.isfinite(x) else None for x in (z.real, z.imag))
    if z.imag == 0:
        return int(re) if re is not None and re == int(re) and abs(re) < 1e15 else re
    return [re, im]


def _emit_value(v):
    if _is_matrix(v):
        return [[_emit_scalar(x) for x in row] for row in v.tolist()]
    return _emit_scalar(v)


# ---------------------------------------------------------------------------
# spec file parsing
# ---------------------------------------------------------------------------

_STRUCTURES = {k.value: k for k in StructureKind}
_CROSS_KINDS = {"circle", "torus", "sphere", "generic"}


def _check_keys(obj: dict, allowed: set, path: str):
    for key in obj:
        if key not in allowed:
            raise SpecFileError(f"{path}.{key}" if path else key,
                                "unknown field")


def _parse_cross_section(obj, path: str) -> CrossSection:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecFileError(path, "expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "circle":
        _check_keys(obj, {"kind"}, path)
        return CrossSection.circle()
    if kind == "torus":
        _check_keys(obj, {"kind", "dim"}, path)
        if not isinstance(obj.get("dim"), int) or obj["dim"] < 1:
            raise SpecFileError(f"{path}.dim", "torus needs an integer dim >= 1")
        return CrossSection.torus(obj["dim"])
    if kind == "sphere":
        _check_keys(obj, {"kind", "dim"}, path)
        if not isinstance(obj.get("dim"), int) or obj["dim"] < 1:
            raise SpecFileError(f"{path}.dim", "sphere needs an integer dim >= 1")
        return CrossSection.sphere(obj["dim"])
    if kind == "generic":
        _check_keys(obj, {"kind", "matrix", "dimension"}, path)
        if "matrix" not in obj:
            raise SpecFileError(f"{path}.matrix", "generic cross-sections need a matrix")
        mat = _parse_value(obj["matrix"], f"{path}.matrix")
        if not _is_matrix(mat):
            mat = np.array([[mat]], dtype=complex)
        try:
            return CrossSection.generic(mat, obj.get("dimension"))
        except FredholmKitError as e:
            raise SpecFileError(f"{path}.matrix", str(e)) from None
    raise SpecFileError(f"{path}.kind",
                        f"unknown cross-section kind {kind!r} "
                        f"(expected one of {sorted(_CROSS_KINDS)})")


def _parse_structure(obj, path: str, cross_dim: int) -> LieStructure:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecFileError(path, "expected an object with a 'kind' field")
    _check_keys(obj, {"kind", "gamma"}, path)
    kind = obj["kind"]
    if kind not in _STRUCTURES:
        raise SpecFileError(f"{path}.kind",
                            f"unknown structure {kind!r} "
                            f"(expected one of {sorted(_STRUCTURES)})")
    gamma = obj.get("gamma")
    if kind == "c_gamma":
        if not isinstance(gamma, (int, float)):
            raise SpecFileError(f"{path}.gamma", "c_gamma needs a numeric gamma")
        try:
            return LieStructure.c_gamma(float(gamma), cross_dim)
        except FredholmKitError as e:
            raise SpecFileError(f"{path}.gamma", str(e)) from None
    if gamma is not None:
        raise SpecFileError(f"{path}.gamma", "gamma is only valid for c_gamma")
    return LieStructure(_STRUCTURES[kind], cross_dim + 1)


def _parse_coefficient(obj, path: str) -> Coefficient:
    if not isinstance(obj, list) or not obj:
        raise SpecFileError(path, "coefficient must be a nonempty list of terms")
    terms = []
    for i, t in enumerate(obj):
        tpath = f"{path}[{i}]"
        if not isinstance(t, dict):
            raise SpecFileError(tpath, "coefficient terms are objects")
        _check_keys(t, {"nu", "value", "cross_dependence"}, tpath)
        nu = t.get("nu", 0)
        if not isinstance(nu, (int, float)) or nu < 0:
            raise SpecFileError(f"{tpath}.nu", "nu must be a number >= 0")
        if "value" not in t:
            raise SpecFileError(f"{tpath}.value", "missing value")
        value = _parse_value(t["value"], f"{tpath}.value")
        lam_poly = None
        dep = t.get("cross_dependence")
        if dep is not None:
            if not isinstance(dep, dict) or set(dep) != {"laplacian_poly"}:
                raise SpecFileError(f"{tpath}.cross_dependence",
                                    "expected {'laplacian_poly': [...]}")
            lp = dep["laplacian_poly"]
            if not isinstance(lp, list) or not lp:
                raise SpecFileError(f"{tpath}.cross_dependence.laplacian_poly",
                                    "expected a nonempty coefficient list")
            lam_poly = tuple(_parse_scalar(x, f"{tpath}.cross_dependence.laplacian_poly[{j}]")
                             for j, x in enumerate(lp))
        terms.append(CoeffTerm(float(nu), value, lam_poly))
    return Coefficient(terms)


_TOP_KEYS = {"schema", "model", "params", "structure", "cross_section",
             "system_size", "order", "terms", "compact"}


def parse_spec_dict(spec: dict, path: str = "") -> tuple[BoundaryOperator, bool]:
    """Build an operator from a parsed spec object.  Returns the operator
    and the compact-manifold flag."""
    if not isinstance(spec, dict):
        raise SpecFileError(path, "spec root must be a JSON object")
    _check_keys(spec, _TOP_KEYS, path)
    if spec.get("schema") != SCHEMA:
        raise SpecFileError("schema", f"expected {SCHEMA!r}")
    compact = spec.get("compact", False)
    if not isinstance(compact, bool):
        raise SpecFileError("compact", "must be a boolean")
    if "model" in spec:
        for forbidden in ("structure", "cross_section", "terms", "order", "system_size"):
            if forbidden in spec:
                raise SpecFileError(forbidden, "not allowed together with 'model'")
        name = spec["model"]
        if name not in _MODELS:
            raise SpecFileError("model", f"unknown model {name!r}; available: "
                                         f"{', '.join(sorted(_MODELS))}")
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise SpecFileError("params", "must be an object")
        params = {k: (_parse_scalar(v, f"params.{k}") if isinstance(v, list) else v)
                  for k, v in params.items()}
        for k, v in list(params.items()):
            if isinstance(v, complex) and v.imag == 0:
                params[k] = v.real
        try:
            return make_model(name, **params), compact
        except (TypeError, ValueError, FredholmKitError) as e:
            raise SpecFileError("params", str(e)) from None
    for required in ("structure", "cross_section", "order", "terms"):
        if required not in spec:
            raise SpecFileError(required, "missing required field")
    cross = _parse_cross_section(spec["cross_section"], "cross_section")
    structure = _parse_structure(spec["structure"], "structure", cross.dimension)
    order = spec["order"]
    if not isinstance(order, int) or order < 0:
        raise SpecFileError("order", "order must be a nonnegative integer")
    system_size = spec.get("system_size", 1)
    if not isinstance(system_size, int) or system_size < 1:
        raise SpecFileError("system_size", "must be a positive integer")
    terms_obj = spec["terms"]
    if not isinstance(terms_obj, list) or not terms_obj:
        raise SpecFileError("terms", "expected a nonempty list")
    pairs = []
    for i, t in enumerate(terms_obj):
        tpath = f"terms[{i}]"
        if not isinstance(t, dict):
            raise SpecFileError(tpath, "terms are objects")
        _check_keys(t, {"alpha", "laplacian", "coefficient"}, tpath)
        alpha = t.get("alpha")
        if (not isinstance(alpha, list) or not alpha
                or not all(isinstance(a, int) and a >= 0 for a in alpha)):
            raise SpecFileError(f"{tpath}.alpha",
                                "alpha must be [radial, cross...] of ints >= 0")
        lap = t.get("laplacian", 0)
        if not isinstance(lap, int) or lap < 0:
            raise SpecFileError(f"{tpath}.laplacian", "must be an integer >= 0")
        mi = MultiIndex(alpha[0], tuple(alpha[1:]), lap)
        if mi.total > order:
            raise SpecFileError(f"{tpath}.alpha",
                                f"|alpha| = {mi.total} exceeds declared order {order}")
        if len(mi.cross) > cross.coordinate_count:
            raise SpecFileError(
                f"{tpath}.alpha",
                f"{len(alpha) - 1} tangential slots but cross-section "
                f"{cross} has {cross.coordinate_count} coordinates")
        if "coefficient" not in t:
            raise SpecFileError(f"{tpath}.coefficient", "missing coefficient")
        co = _parse_coefficient(t["coefficient"], f"{tpath}.coefficient")
        for j, ct in enumerate(co.terms):
            if mi.total + 2 * ct.lam_degree > order:
                raise SpecFileError(
                    f"{tpath}.coefficient[{j}]",
                    "laplacian_poly degree pushes the term past the declared order")
        pairs.append((mi, co))
    try:
        op = BoundaryOperator(structure, cross, pairs, order=order)
    except (ValueError, FredholmKitError) as e:
        raise SpecFileError("terms", str(e)) from None
    if op.system_size not in (system_size,):
        raise SpecFileError("system_size",
                            f"declared {system_size} but coefficients are "
                            f"{op.system_size}x{op.system_size}")
    return op, compact


def _finite(literal: str, kind=float):
    """json.loads hook for number literals and NaN/Infinity."""
    if not math.isfinite(float(literal)):
        raise SpecFileError("", f"number {literal} is not finite; specs take finite numbers")
    return kind(literal)


def parse_spec(path: str) -> tuple[BoundaryOperator, bool]:
    """Parse and validate a spec file into an operator."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise SpecFileError("", f"cannot read {path}: {e.strerror}") from None
    try:
        data = json.loads(text, parse_constant=_finite, parse_float=_finite,
                          parse_int=lambda s: _finite(s, int))
    except json.JSONDecodeError as e:
        raise SpecFileError("", f"invalid JSON at line {e.lineno}, column {e.colno}: "
                                f"{e.msg}") from None
    return parse_spec_dict(data)


def serialize_operator(op: BoundaryOperator, compact: bool = False) -> dict:
    """Canonical explicit-form spec of an operator; parsing it back yields
    an equal operator."""
    cross: dict = {"kind": op.cross_section.kind.value}
    if op.cross_section.kind is CrossKind.GENERIC:
        cross["matrix"] = _emit_value(op.cross_section.matrix)
        cross["dimension"] = op.cross_section.dimension
    elif op.cross_section.kind is not CrossKind.CIRCLE:
        cross["dim"] = op.cross_section.dim
    structure: dict = {"kind": op.structure.kind.value}
    if op.structure.kind is StructureKind.C_GAMMA:
        structure["gamma"] = op.structure.gamma
    terms = []
    for mi, co in op.terms:
        entry: dict = {"alpha": [mi.radial, *mi.cross]}
        if mi.laplacian:
            entry["laplacian"] = mi.laplacian
        cterms = []
        for ct in co.terms:
            t: dict = {"nu": ct.nu if ct.nu else 0, "value": _emit_value(ct.value)}
            if ct.lam_poly is not None:
                t["cross_dependence"] = {
                    "laplacian_poly": [_emit_scalar(c) for c in ct.lam_poly]}
            cterms.append(t)
        entry["coefficient"] = cterms
        terms.append(entry)
    out = {
        "schema": SCHEMA,
        "structure": structure,
        "cross_section": cross,
        "system_size": op.system_size,
        "order": op.order,
        "terms": terms,
    }
    if compact:
        out["compact"] = True
    return out


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def _dumps(obj, indent: int | None = None) -> str:
    """Strict JSON with sorted keys.  A non-finite float (an uncertified
    tail bound, an undecided scan) is made null where the report is built,
    mostly by `round12`; one that reaches this point raises."""
    return json.dumps(obj, indent=indent, sort_keys=True, allow_nan=False)


# One `IndicialRoot.as_dict()` as an item of a top-level list, and one
# `LedgerEntry.as_dict()` as an item of the list "entries" of a top-level
# object, laid out by `json.dumps(indent=2, sort_keys=True)`, with %s for
# their values; the root's text is split where its mode goes.
_ROOT_HEAD, _ROOT_TAIL = ("    " + json.dumps(
    {"mellin": ["%s"] * 2, "mode": None, "multiplicity": "%s", "tau": ["%s"] * 2},
    indent=2, sort_keys=True).replace("\n", "\n    ").replace('"%s"', "%s")).split("null")
_ENTRY_JSON = "      " + json.dumps(
    {"detail": "%s", "name": "%s", "status": "%s"},
    indent=2, sort_keys=True).replace("\n", "\n      ").replace('"%s"', "%s")


def _float_text(x: float) -> str:
    """`json`'s text for round12(x).  `float.__repr__`, because numpy 2
    reprs an np.float64 with its type name."""
    v = round12(x)
    return "null" if v is None else float.__repr__(v)


def _roots_text(roots) -> str:
    """The text of `[r.as_dict() for r in roots]` as a top-level value,
    read from the roots' `RootTable`.  The text before and after a root's
    mode is written once per class root, from numbers formatted once per
    distinct value (`FloatCache`), and each label is encoded once."""
    table = RootTable.from_roots(roots)
    num = FloatCache(_float_text)
    parts = [(_ROOT_HEAD % (num[z.real], num[z.imag]),
              _ROOT_TAIL % (int.__repr__(m), num[t.real], num[t.imag]))
             for t, z, m in table.class_roots()]
    modes = [encode_basestring_ascii(label) for label in table.labels]
    items = ",\n".join(f"{parts[j][0]}{modes[i]}{parts[j][1]}" for i, j in table.listed())
    return f"[\n{items}\n  ]" if items else "[]"


def _roots_lines(roots, tail) -> list[str]:
    """The text line of every root, its label after "  mode " and then
    tail(tau, mellin, multiplicity), called once per class root of the
    roots' `RootTable`."""
    table = RootTable.from_roots(roots)
    tails = [tail(*root) for root in table.class_roots()]
    return [f"  mode {table.labels[i]}{tails[j]}" for i, j in table.listed()]


def _ledger_text(ledger) -> str:
    """The text of `ledger.as_dict()` as a top-level value."""
    items = ",\n".join(_ENTRY_JSON % (
        encode_basestring_ascii(e.detail), encode_basestring_ascii(e.name),
        encode_basestring_ascii(e.status)) for e in ledger.entries)
    entries = f"[\n{items}\n    ]" if items else "[]"
    return f'{{\n    "entries": {entries},\n    "passed": {json.dumps(ledger.passed)}\n  }}'


def _render_json(payload: dict, key: str, roots, ledger=None) -> str:
    """`_dumps({**payload, key: [r.as_dict() for r in roots]}, indent=2) + "\\n"`,
    with "oracle": ledger.as_dict() as well when a ledger is given, byte
    for byte, but with the root list and the ledger (most of a large
    report) written from templates: `indent` makes `json` use its
    pure-Python encoder.  JSON escapes newlines inside strings, so
    indenting every line of a value's own text by two spaces lays it out
    as it is at depth 1."""
    items = {k: _dumps(v, indent=2).replace("\n", "\n  ") for k, v in payload.items()}
    items[key] = _roots_text(roots)
    if ledger is not None:
        items["oracle"] = _ledger_text(ledger)
    body = ",\n".join(f"  {encode_basestring_ascii(k)}: {items[k]}" for k in sorted(items))
    return f"{{\n{body}\n}}\n"


def render_report(report: FredholmReport, fmt: str = "text") -> str:
    """Stable text or machine-readable rendering of a report; floats are
    fixed at 12 significant digits, orderings are deterministic."""
    if fmt == "json":
        return _render_json(report._dict_without_roots(), "indicial_roots", report.roots)
    lines = [f"VERDICT: {report.verdict}"]
    lines.append(f"weight: delta = {fmt12(report.delta)}  "
                 f"(tested {report.convention})")
    lines.append(f"operator: {report.operator}")
    lines.append(f"  structure {report.structure_kind}, cross-section "
                 f"{report.cross_section}, order {report.order}, "
                 f"system size {report.system_size}")
    e = report.elliptic
    lines.append(
        f"elliptic: {'yes' if e.elliptic else 'NO'}  "
        f"(min |det symbol| = {fmt12(e.min_abs_det)} at r = {fmt12(e.witness_r)}, "
        f"covector ({', '.join(fmt12(x) for x in e.witness_covector)}))")
    if report.limit_verdicts:
        lines.append("limit operators:")
        for lv in report.limit_verdicts:
            lines.append(f"  - {lv.orbit} [{lv.mechanism}]: invertible = {lv.status}")
            if lv.witness:
                lines.append(f"      witness: {_dumps(lv.witness)}")
    else:
        lines.append("limit operators: none (empty boundary)")
    if report.roots:
        lines.append("indicial roots (z = i tau; obstruction lines Re(z) = delta):")
        lines += _roots_lines(report.roots, lambda t, z, m: (
            f": z = {fmt_complex(z)}  (tau = {fmt_complex(t)}, multiplicity {m})"))
    if report.safe_weights:
        ivs = ", ".join(f"({fmt12(a)}, {fmt12(b)})" for a, b in report.safe_weights)
        lines.append(f"safe weight intervals: {ivs}")
    if report.cutoffs:
        lines.append("cutoffs: " + _dumps(report.cutoffs))
    if any(lv.status == "numerical-evidence" for lv in report.limit_verdicts):
        lines.append("CAVEAT: numerical evidence only; the verdict cannot be "
                     "upgraded to a theorem-grade answer here")
    for c in report.caveats:
        lines.append(f"note: {c}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _echo_or_write(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@contextlib.contextmanager
def _usage_errors(spec_path: str):
    """Turn a spec error or a kit error into one line on stderr and the
    usage exit code."""
    try:
        yield
    except FredholmKitError as e:
        where = spec_path if isinstance(e, SpecFileError) else "error"
        click.echo(f"{where}: {e}", err=True)
        sys.exit(EXIT_SPEC_ERROR)


@contextlib.contextmanager
def _click_usage_errors():
    try:
        yield
    except click.UsageError as e:
        e.exit_code = EXIT_SPEC_ERROR
        raise


class _Group(click.Group):
    """Click's own usage errors (an unknown option or command, a bad value,
    a missing argument) exit 3 here, not 2, which is Undecided."""

    def make_context(self, *args, **kwargs):
        with _click_usage_errors():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _click_usage_errors():
            return super().invoke(ctx)


@click.group(cls=_Group)
@click.version_option(version=__version__)
def main():
    """Fredholm conditions for operators on collars with cylindrical,
    hyperbolic, and conical ends."""


_spec_argument = click.argument("spec_path", type=click.Path())
_weight = click.option("--weight", type=float, default=0.0, show_default=True,
                       help="Weight exponent delta; the tested line is Re(z) = delta.")
_cutoff = click.option("--cutoff", type=float, default=None,
                       help="Cross-section mode cutoff (default: "
                            "10 * max coefficient * order^2, raised if the "
                            "tail certificate needs more).")
_fmt = click.option("--format", "fmt", type=click.Choice(["text", "json"]),
                    default="text", show_default=True)
_out = click.option("--out", type=click.Path(), default=None,
                    help="Write the report to a file instead of stdout.")


@main.command()
@_spec_argument
@_weight
@_cutoff
@_fmt
@_out
def check(spec_path, weight, cutoff, fmt, out):
    """Decide Fredholmness of the operator in SPEC_PATH at the given weight."""
    with _usage_errors(spec_path):
        op, compact = parse_spec(spec_path)
        opts = FredholmOptions(mode_cutoff=cutoff, empty_boundary=compact)
        report = fredholm_check(op, weight, opts)
    _echo_or_write(render_report(report, fmt), out)
    sys.exit(_EXIT[report.verdict])


@main.command()
@_spec_argument
@_weight
@_cutoff
@click.option("--tau-range", nargs=2, type=float, default=(-10.0, 10.0), show_default=True,
              help="Line scan window of the oracle.")
@click.option("--pts", type=int, default=2001, show_default=True,
              help="Line scan points of the oracle.")
@_fmt
@_out
@click.option("--scan-csv", type=click.Path(), default=None,
              help="Export the oracle scans as CSV.")
def verify(spec_path, weight, cutoff, tau_range, pts, fmt, out, scan_csv):
    """Run check plus the independent numerical oracle; fail on mismatch."""
    with _usage_errors(spec_path):
        op, compact = parse_spec(spec_path)
        opts = FredholmOptions(mode_cutoff=cutoff, tau_range=tuple(tau_range), pts=pts,
                               empty_boundary=compact)
        report = fredholm_check(op, weight, opts)
        ledger = cross_check(op, report, opts)
    if fmt == "json":
        text = _render_json(report._dict_without_roots(), "indicial_roots", report.roots,
                            ledger)
    else:
        text = render_report(report, "text") + str(ledger) + "\n"
    _echo_or_write(text, out)
    if scan_csv:
        _write_scan_csvs(ledger.scans, report, scan_csv)
    if not ledger.passed:
        bad = ledger.first_failure()
        click.echo(f"oracle mismatch: {bad.name}: {bad.detail}", err=True)
        sys.exit(EXIT_ORACLE_MISMATCH)
    sys.exit(_EXIT[report.verdict])


def _write_scan_csvs(scans: dict, report: FredholmReport, base_path: str):
    """Write each scan to CSV; a single scan takes the exact path, several
    get name suffixes."""
    items = list(scans.items())
    if not items:
        click.echo(f"no scans were run; {base_path} not written", err=True)
        return
    if len(items) == 1:
        items[0][1].write_csv(base_path)
        return
    for name, scan in items:
        path = (base_path[:-4] + f".{name}.csv") if base_path.endswith(".csv") \
            else f"{base_path}.{name}.csv"
        scan.write_csv(path)


@main.command()
@_spec_argument
@_cutoff
@_fmt
@_out
def roots(spec_path, cutoff, fmt, out):
    """List the indicial roots of the operator's normal family, per mode."""
    with _usage_errors(spec_path):
        op, _compact = parse_spec(spec_path)
        nop = normal_operator(op)
        c = cutoff if cutoff is not None else default_mode_cutoff(op)
        check_cutoff(c)
        c = round12(c)  # as `fredholm_check` rounds it
        table = spectrum(op.cross_section, c)
        fam = indicial_family(nop, table)
        rts = indicial_roots(fam)
    if fmt == "json":
        payload = {
            "schema": SCHEMA,
            "mode_cutoff": c,
            "convention": WEIGHT_CONVENTION,
        }
        if fam.warning:
            payload["warning"] = fam.warning
        text = _render_json(payload, "roots", rts)
    else:
        lines = [f"indicial roots (mode cutoff {fmt12(c)}; z = i tau)"]
        if fam.warning:
            lines.append(f"warning: {fam.warning}")
        lines += _roots_lines(rts, lambda t, z, m: f": z = {fmt_complex(z)} (multiplicity {m})")
        text = "\n".join(lines) + "\n"
    _echo_or_write(text, out)
    sys.exit(0)


@main.command()
@_spec_argument
@_fmt
@_out
def normal(spec_path, fmt, out):
    """Freeze the coefficients at the boundary and print the normal operator."""
    with _usage_errors(spec_path):
        op, _compact = parse_spec(spec_path)
        nop = normal_operator(op)
    if fmt == "json":
        text = _dumps(serialize_operator(nop), indent=2) + "\n"
    elif nop.structure.kind is StructureKind.C_GAMMA:  # r^gamma d/dr is not d/dt
        text = ("frozen operator (c_gamma frame: formal, not translation-invariant in "
                f"t = log r; no invertibility criterion is attached to it here):\n  {nop}\n")
    else:
        text = f"normal operator (translation-invariant in t = log r):\n  {nop}\n"

    _echo_or_write(text, out)
    sys.exit(0)


@main.command()
@_spec_argument
@_fmt
@_out
def transform(spec_path, fmt, out):
    """Rewrite a b operator on the cylinder via t = log r."""
    with _usage_errors(spec_path):
        op, _compact = parse_spec(spec_path)
        cyl = kondratiev_transform(op)
    if fmt == "json":
        payload = {
            "schema": SCHEMA,
            "variable": "t = log r",
            "operator": serialize_operator(op),
            "note": "radial exponents r^nu are e^(nu t); coefficients "
                    "converge to the boundary values as t -> -infinity",
        }
        text = _dumps(payload, indent=2) + "\n"
    else:
        text = (f"on the cylinder (t = log r): {cyl}\n"
                f"coefficients converge as t -> -infinity to: "
                f"{normal_operator(op)}\n")
    _echo_or_write(text, out)
    sys.exit(0)


@main.command("bracket-table")
@click.option("--structure", "kind", type=click.Choice(sorted(_STRUCTURES)),
              required=True)
@click.option("--gamma", type=float, default=None,
              help="Scaling exponent for c_gamma structures.")
@click.option("--collar-dim", type=int, default=2, show_default=True)
@_fmt
@_out
def bracket_table(kind, gamma, collar_dim, fmt, out):
    """Print the frame bracket table and isotropy group of a structure."""
    try:
        s = LieStructure(_STRUCTURES[kind], collar_dim, gamma)
        iso = isotropy(s)
        c = structure_constants(s)
    except (FredholmKitError, ValueError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(EXIT_SPEC_ERROR)
    frame = s.frame
    if fmt == "json":
        payload = {
            "schema": SCHEMA,
            "structure": kind,
            "collar_dim": collar_dim,
            "frame": [str(f) for f in frame],
            "structure_constants": [[[round12(x) for x in row] for row in mat]
                                    for mat in c.tolist()],
            "group_kind": iso.group_kind.value,
            "orbit": iso.orbit,
            "group": iso.group,
        }
        if gamma is not None:
            payload["gamma"] = gamma
        text = _dumps(payload, indent=2) + "\n"
    else:
        lines = [f"frame: {', '.join(f'e{i} = {f}' for i, f in enumerate(frame))}",
                 f"isotropy group: {iso.group} ({iso.group_kind.value}); "
                 f"orbit: {iso.orbit}"]
        lines.append("nonzero brackets at r = 0:")
        any_nonzero = False
        n = len(frame)
        for i in range(n):
            for j in range(i + 1, n):
                parts = [f"{fmt12(c[i, j, k])} e{k}" for k in range(n) if c[i, j, k]]
                if parts:
                    any_nonzero = True
                    lines.append(f"  [e{i}, e{j}] = {' + '.join(parts)}")
        if not any_nonzero:
            lines.append("  (none: the isotropy Lie algebra is abelian)")
        text = "\n".join(lines) + "\n"
    _echo_or_write(text, out)
    sys.exit(0)


if __name__ == "__main__":
    main()
