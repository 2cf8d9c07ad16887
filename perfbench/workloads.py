"""The benchmark's workloads: spec documents, run parameters and the
closed-form expectation each report is checked against.

Only the similarity matrices S of the seeded system specs depend on the
seed.  They are orthogonal, so the coefficient norms, the default mode
cutoff and the tail certificate (and with them the amount of work) are the
same for every seed.  The two 4x4 b systems use a fixed S: they fail
because of the interpolated-determinant fault in
`limitops.IndicialFamily.det_poly`, and a failure counted by the benchmark
must not depend on the seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from expect import BRoots, Evidence, ScZeros

SCHEMA = "fredholm-kit/1"
WEIGHT = 0.3
DET_POLY_FAULT = "det_poly interpolation"


@dataclass(frozen=True)
class Spec:
    name: str
    doc: dict
    expect: object
    cutoff: float | None = None
    known_fault: str | None = None

    def cli_args(self, path: str) -> list[str]:
        """Arguments after the command name, as a user would type them."""
        args = [path, "--weight", repr(WEIGHT), "--format", "json"]
        if self.cutoff is not None:
            args += ["--cutoff", repr(self.cutoff)]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple[Spec, ...]
    checks_per_verify: int  # check sweeps per verify sweep (loop.py)
    cold: bool = False      # every operation is a fresh CLI process


# ---------------------------------------------------------------------------
# spec documents
# ---------------------------------------------------------------------------


def _model(name: str, **params) -> dict:
    return {"schema": SCHEMA, "model": name, "params": params}


def _term(alpha, value, laplacian=0) -> dict:
    t = {"alpha": list(alpha), "coefficient": [{"nu": 0, "value": value}]}
    if laplacian:
        t["laplacian"] = laplacian
    return t


def _explicit(structure: str, cross: dict, order: int, terms: list,
              system_size: int = 1) -> dict:
    doc = {"schema": SCHEMA, "structure": {"kind": structure},
           "cross_section": cross, "order": order, "terms": terms}
    if system_size > 1:
        doc["system_size"] = system_size
    return doc


# numpy is imported inside the helpers: worker.py imports this module
# before it times the import of fredholm_kit, which brings numpy in
def _orthogonal(k: int, seed: int):
    import numpy as np

    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def _similar(s, diag) -> list:
    """S diag(d) S^-1 as a JSON matrix."""
    import numpy as np

    m = s @ np.diag(np.asarray(diag, dtype=float)) @ np.linalg.inv(s)
    return [[float(x) for x in row] for row in m]


def _fixed_s():
    """Condition number 2; the same matrix on every seed."""
    import numpy as np

    return _orthogonal(4, 7) @ np.diag([1.0, 1.5, 2.0, 1.2])


def _b_system_order2(s, b, c) -> dict:
    """Blocks p_i = T^2 + b_i T + L - c_i over the circle (T = r d/dr,
    L the mode Laplacian), conjugated by S."""
    k = len(b)
    eye = [[float(i == j) for j in range(k)] for i in range(k)]
    return _explicit("b", {"kind": "circle"}, 2, [
        _term([2], eye),
        _term([1], _similar(s, b)),
        _term([0], eye, laplacian=1),
        _term([0], _similar(s, [-x for x in c])),
    ], system_size=k)


def _b_system_order4(s, a, c) -> dict:
    """Blocks p_i = (T^2 + L - a_i)(T^2 + L - c_i), conjugated by S."""
    k = len(a)
    eye = [[float(i == j) for j in range(k)] for i in range(k)]
    return _explicit("b", {"kind": "circle"}, 4, [
        _term([4], eye),
        _term([2], [[2 * x for x in row] for row in eye], laplacian=1),
        _term([0], eye, laplacian=2),
        _term([2], _similar(s, [-(x + y) for x, y in zip(a, c)])),
        _term([0], _similar(s, [-(x + y) for x, y in zip(a, c)]), laplacian=1),
        _term([0], _similar(s, [x * y for x, y in zip(a, c)])),
    ], system_size=k)


def _quadratic_roots(b: float, c: float, lam: float) -> list[float]:
    # z^2 + b z - (lam + c) = 0
    disc = math.sqrt(b * b + 4 * (lam + c))
    return [(-b - disc) / 2, (-b + disc) / 2]


def _order2_roots(b, c):
    return lambda k: [z for bi, ci in zip(b, c) for z in _quadratic_roots(bi, ci, k * k)]


def _order4_roots(a, c):
    return lambda k: [z for x in (*a, *c) for z in _quadratic_roots(0.0, x, k * k)]


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

# closed-form Mellin roots z per mode; the mode key is k, (k1, k2) or l
_POLAR = BRoots("circle", lambda k: [-k, k], elliptic=True)
_CYL = BRoots("torus2", lambda k: [-k[0], k[0]], elliptic=False)  # r^2 d_z^2 dies at r = 0
_TORUS = BRoots("torus2", lambda k: [-math.sqrt(k[0] ** 2 + k[1] ** 2 + 0.25),
                                     math.sqrt(k[0] ** 2 + k[1] ** 2 + 0.25)], elliptic=True)


def _sphere_schrodinger(n: int) -> BRoots:
    return BRoots(f"sphere:{n - 1}", lambda l: [l, -(l + n - 2)], elliptic=True)


def _torus_laplacian() -> dict:
    """(r d/dr)^2 + d_1^2 + d_2^2 - 1/4 on T^2 with explicit partials, so
    every signed lattice point is its own channel."""
    return _explicit("b", {"kind": "torus", "dim": 2}, 2, [
        _term([2], 1), _term([0, 2, 0], 1), _term([0, 0, 2], 1), _term([0], -0.25)])


def _sc_torus(shift: float) -> dict:
    """(r^2 d/dr)^2 + (r d_1)^2 + (r d_2)^2 + shift: a 3-D covector grid."""
    return _explicit("sc", {"kind": "torus", "dim": 2}, 2, [
        _term([2], 1), _term([0, 2, 0], 1), _term([0, 0, 2], 1), _term([0], shift)])


def _sc_system(s, c) -> dict:
    """Blocks (r^2 d/dr)^2 + L + c_i on S^2, conjugated by S."""
    eye = [[1.0, 0.0], [0.0, 1.0]]
    return _explicit("sc", {"kind": "sphere", "dim": 2}, 2, [
        _term([2], eye), _term([0], eye, laplacian=1), _term([0], _similar(s, c))],
        system_size=2)


def _cli_cold(seed: int) -> Workload:
    # builtin_suite() instances, default cutoffs
    specs = (
        Spec("polar_laplacian", _model("polar_laplacian"), _POLAR),
        Spec("spherical_schrodinger(3,1)", _model("spherical_schrodinger", n=3, Z=1.0),
             _sphere_schrodinger(3)),
        Spec("black_scholes(1,0)", _model("black_scholes", sigma=1.0, rate=0.0),
             BRoots("point", lambda _: [0.0, 1.0], elliptic=True)),
        Spec("cyl_coord_laplacian", _model("cyl_coord_laplacian"), _CYL),
        Spec("sc_laplacian(2,-1)", _model("sc_laplacian", cross_dim=2, shift=-1.0),
             ScZeros((-1.0,))),
        Spec("hyperbolic_laplacian(1,+1)",
             _model("hyperbolic_laplacian", cross_dim=1, shift=1.0), Evidence("zero")),
        Spec("cgamma_schrodinger(3,2,1)",
             _model("cgamma_schrodinger", n=3, gamma=2.0, V0=1.0), Evidence("c_gamma")),
    )
    return Workload("cli-cold", specs, checks_per_verify=1, cold=True)


def _modes(seed: int) -> Workload:
    specs = (
        Spec("cyl_coord_laplacian@400", _model("cyl_coord_laplacian"), _CYL, cutoff=400.0),
        Spec("torus_laplacian@400", _torus_laplacian(), _TORUS, cutoff=400.0),
        Spec("spherical_schrodinger(4)@4e4", _model("spherical_schrodinger", n=4, Z=1.0),
             _sphere_schrodinger(4), cutoff=4e4),
    )
    return Workload("modes", specs, checks_per_verify=4)


def _systems(seed: int) -> Workload:
    s2 = _orthogonal(2, seed)
    s4 = _fixed_s()
    b2, c2 = (0.0, 0.0), (1.0, 2.0)
    b4, c4 = (0.5, 0.5, -0.25, -0.25), (1.0, 2.0, 3.0, 1.5)
    a4, d4 = (0.25, 0.5, 1.0, 1.5), (2.0, 2.5, 3.0, 3.5)
    specs = (
        Spec("2x2_order2", _b_system_order2(s2, b2, c2),
             BRoots("circle", _order2_roots(b2, c2), elliptic=True)),
        Spec("4x4_order2", _b_system_order2(s4, b4, c4),
             BRoots("circle", _order2_roots(b4, c4), elliptic=True),
             known_fault=DET_POLY_FAULT),
        Spec("4x4_order4", _b_system_order4(s4, a4, d4),
             BRoots("circle", _order4_roots(a4, d4), elliptic=True),
             known_fault=DET_POLY_FAULT),
    )
    return Workload("systems", specs, checks_per_verify=6)


def _symbols(seed: int) -> Workload:
    s2 = _orthogonal(2, seed)
    specs = (
        Spec("sc_laplacian(2,+1)", _model("sc_laplacian", cross_dim=2, shift=1.0),
             ScZeros((1.0,))),
        Spec("sc_laplacian(2,-1)", _model("sc_laplacian", cross_dim=2, shift=-1.0),
             ScZeros((-1.0,))),
        Spec("sc_torus(+1)", _sc_torus(1.0), ScZeros((1.0,))),
        Spec("sc_torus(-1)", _sc_torus(-1.0), ScZeros((-1.0,))),
        Spec("sc_system_2x2", _sc_system(s2, (-1.0, 2.0)), ScZeros((-1.0, 2.0))),
        Spec("cgamma_schrodinger(3)", _model("cgamma_schrodinger", n=3, gamma=2.0, V0=1.0),
             Evidence("c_gamma")),
        Spec("cgamma_schrodinger(4)", _model("cgamma_schrodinger", n=4, gamma=2.0, V0=1.0),
             Evidence("c_gamma")),
        Spec("hyperbolic_laplacian(1)", _model("hyperbolic_laplacian", cross_dim=1, shift=1.0),
             Evidence("zero")),
        Spec("hyperbolic_laplacian(2)", _model("hyperbolic_laplacian", cross_dim=2, shift=1.0),
             Evidence("zero")),
    )
    return Workload("symbols", specs, checks_per_verify=1)


WORKLOADS = {"cli-cold": _cli_cold, "modes": _modes, "systems": _systems,
             "symbols": _symbols}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


def write_specs(wl: Workload, directory: str) -> list[str]:
    """Write one spec file per spec; returns the paths in spec order."""
    paths = []
    for i, spec in enumerate(wl.specs):
        path = os.path.join(directory, f"{i:02d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec.doc, fh, indent=2)
        paths.append(path)
    return paths
