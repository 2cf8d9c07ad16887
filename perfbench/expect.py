"""Correctness checks for fredholm-kit JSON reports, computed apart from
the program: mode tables are enumerated here, roots come from closed
forms, and sc witnesses are evaluated with the benchmark's own symbol.

Every check is named; `check_output` returns the names of the checks
that ran and the problems they found (empty when the output passed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

EXIT_CODES = {"Fredholm": 0, "NotFredholm": 1, "Undecided": 2}
EXIT_ORACLE_MISMATCH = 4

_ROOT_TOL = 1e-7       # relative to max(1, |z|); reports carry 12 digits
_ON_LINE_TOL = 1e-8    # a root this close to Re z = delta is borderline
_EDGE_TOL = 1e-7


class Checks:
    """The checks run on one output and the problems they found."""

    def __init__(self):
        self.ran: list[str] = []
        self.problems: list[str] = []

    def check(self, name: str, ok: bool, message: str = "") -> None:
        self.ran.append(name)
        if not ok:
            self.problems.append(f"{name}: {message}")


@dataclass(frozen=True)
class BRoots:
    """b structure: Mellin roots z per mode in closed form.  modes is
    "circle" (unsigned, key k), "torus2" (signed lattice, key (k1, k2)),
    "sphere:<dim>" (key l) or "point" (one mode, key 0)."""

    modes: str
    roots: Callable[[object], list[float]]
    elliptic: bool


@dataclass(frozen=True)
class ScZeros:
    """sc structure whose symbol determinant is prod_i (c_i - |zeta|^2)."""

    c: tuple[float, ...]


@dataclass(frozen=True)
class Evidence:
    """zero or c_gamma structure: only properties the method must have."""

    kind: str


def _modes(kind: str, cutoff: float):
    """(label, key) for every mode with eigenvalue <= cutoff, labelled as
    fredholm-kit reports label them."""
    if kind == "point":
        yield "mode0", 0
    elif kind == "circle":
        k = 0
        while k * k <= cutoff:
            yield f"k={k}", k
            k += 1
    elif kind == "torus2":
        kmax = math.isqrt(int(cutoff))
        for k1 in range(-kmax, kmax + 1):
            for k2 in range(-kmax, kmax + 1):
                if k1 * k1 + k2 * k2 <= cutoff:
                    label = "k=(" + ",".join(f"{k:+d}" if k else "0" for k in (k1, k2)) + ")"
                    yield label, (k1, k2)
    elif kind.startswith("sphere:"):
        dim = int(kind.split(":")[1])
        l = 0
        while l * (l + dim - 1) <= cutoff:
            yield f"l={l}", l
            l += 1
    else:
        raise ValueError(f"unknown mode kind {kind!r}")


def _with_multiplicity(zs: list[float]) -> list[tuple[float, int]]:
    out: list[list] = []
    for z in sorted(zs):
        if out and abs(z - out[-1][0]) <= 1e-9 * max(1.0, abs(z)):
            out[-1][1] += 1
        else:
            out.append([z, 1])
    return [(z, m) for z, m in out]


def _root_problem(expected: dict, got: dict) -> str | None:
    extra = sorted(set(got) - set(expected))
    if extra:
        return f"modes above the cutoff or unknown: {extra[:3]}"
    for label, want in expected.items():
        have = sorted(got.get(label, []), key=lambda t: (t[0].real, t[0].imag))
        if len(have) != len(want):
            return f"mode {label}: {len(have)} distinct roots reported, {len(want)} expected"
        for (z, m), (zw, mw) in zip(have, want):
            if abs(z - zw) > _ROOT_TOL * max(1.0, abs(zw)) or m != mw:
                return f"mode {label}: root {z:.9g} (x{m}), expected {zw:.9g} (x{mw})"
    return None


def _check_b(exp: BRoots, rep: dict, delta: float, c: Checks) -> None:
    cutoff = float(rep["cutoffs"]["mode_cutoff"])
    expected = {label: _with_multiplicity(exp.roots(key))
                for label, key in _modes(exp.modes, cutoff)}
    got: dict[str, list] = {}
    for r in rep["indicial_roots"]:
        got.setdefault(r["mode"], []).append(
            (complex(r["mellin"][0], r["mellin"][1]), r["multiplicity"]))
    problem = _root_problem(expected, got)
    c.check("roots", problem is None, problem)
    c.check("elliptic", rep["elliptic"]["elliptic"] == exp.elliptic,
            f"{rep['elliptic']['elliptic']}, expected {exp.elliptic}")
    all_z = [z for want in expected.values() for z, _ in want]
    on_line = any(abs(z - delta) <= _ON_LINE_TOL for z in all_z)
    verdict = "Fredholm" if exp.elliptic and not on_line else "NotFredholm"
    c.check("verdict", rep["verdict"] == verdict, f"{rep['verdict']}, expected {verdict}")
    lo, hi = rep["cutoffs"]["certified_weight_range"]
    ends = sorted({x for iv in rep["safe_weight_intervals"] for x in iv})
    want_ends = []
    if hi > lo:
        for x in [lo] + sorted(z for z in all_z if lo < z < hi) + [hi]:
            if not want_ends or x - want_ends[-1] > 1e-9:
                want_ends.append(x)
    c.check("safe_intervals", len(ends) == len(want_ends) and all(
        abs(a - b) <= _EDGE_TOL * max(1.0, abs(b)) for a, b in zip(ends, want_ends)),
        f"endpoints {ends[:6]} are not the roots in [{lo}, {hi}] ({want_ends[:6]})")


def _det(exp: ScZeros, covector: list[float]) -> float:
    zeta2 = sum(x * x for x in covector)
    return abs(math.prod(ci - zeta2 for ci in exp.c))


def _check_sc(exp: ScZeros, rep: dict, c: Checks) -> None:
    lv = rep["limit_operators"][0]
    invertible = all(ci < 0 for ci in exp.c)
    verdict = "Fredholm" if invertible else "NotFredholm"
    c.check("elliptic", rep["elliptic"]["elliptic"], "symbol reported non-elliptic")
    c.check("verdict", rep["verdict"] == verdict, f"{rep['verdict']}, expected {verdict}")
    if invertible:
        c.check("witness", lv["witness"] is None, "witness for an invertible symbol")
    elif lv["witness"] is None:
        c.check("witness", False, "no witness for a non-invertible symbol")
    else:
        value = _det(exp, lv["witness"]["covector"])
        c.check("witness", value <= lv["detail"]["threshold"], f"|det| = {value:.3e} there")


def _finite_nonnegative(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) and v >= 0 for v in values)


def _check_evidence(exp: Evidence, rep: dict, c: Checks) -> None:
    lv = rep["limit_operators"][0]
    c.check("verdict", rep["verdict"] == "Undecided", f"{rep['verdict']}, expected Undecided")
    c.check("status", lv["invertible"] == "numerical-evidence", lv["invertible"])
    c.check("caveat", any("numerical evidence" in x for x in rep["caveats"]), "missing")
    detail = lv["detail"]
    if exp.kind == "zero":
        minima = [detail["global_min"]] + [step["global_min"] for step in detail["ladder"]]
    else:
        minima = [detail["min_abs_det"]] + [v for _, v, _ in detail["resolutions"]]
    c.check("minima", len(minima) > 1 and _finite_nonnegative(minima),
            f"not finite and non-negative: {minima[:4]}")


REQUIRED = {
    BRoots: ("exit_code", "roots", "elliptic", "verdict", "safe_intervals"),
    ScZeros: ("exit_code", "elliptic", "verdict", "witness"),
    Evidence: ("exit_code", "verdict", "status", "caveat", "minima"),
}


def check_output(expect, command: str, exit_code: int, text: str,
                 delta: float) -> Checks:
    """Check one operation's output: exit code and report, plus the oracle
    ledger for verify.  `REQUIRED[type(expect)]` (and "ledger" for verify)
    is what a complete pass runs."""
    import json

    c = Checks()
    if exit_code == EXIT_ORACLE_MISMATCH:
        c.check("exit_code", False, "oracle mismatch (exit 4)")
        return c
    try:
        rep = json.loads(text)
    except ValueError:
        c.check("exit_code", False, f"exit {exit_code} without a JSON report")
        return c
    c.check("exit_code", exit_code == EXIT_CODES.get(rep.get("verdict")),
            f"exit {exit_code} for verdict {rep.get('verdict')}")
    if command == "verify":
        c.check("ledger", rep.get("oracle", {}).get("passed") is True, "did not pass")
    try:
        if isinstance(expect, BRoots):
            _check_b(expect, rep, delta, c)
        elif isinstance(expect, ScZeros):
            _check_sc(expect, rep, c)
        else:
            _check_evidence(expect, rep, c)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        c.check("report_format", False, f"{type(e).__name__}: {e}")
    return c
