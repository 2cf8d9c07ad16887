"""Degenerate frames on a boundary collar: brackets, isotropy groups, metrics.

The collar is [0, epsilon) x (cross-section), with radial coordinate r and
cross-section coordinates y_1, ..., y_{n-1}.  A structure is given by a
global frame of monomial vector fields c * r^nu * d/d(axis) that are
tangent to (or vanish at) r = 0:

    b        r d/dr,       d/dy_j          (cylindrical ends)
    zero     r d/dr,       r d/dy_j        (hyperbolic ends)
    sc       r^2 d/dr,     r d/dy_j        (Euclidean / conical ends)
    c_gamma  r^g d/dr,     r^(g-1) d/dy_j  (g >= 1; radial/tangential
                                            scalings g and g-1)

Write the frame as e_0 = r^a d/dr and e_j = r^s d/dy_j.  The tangential
fields commute, and [e_0, e_j] = s r^(a-1) e_j.  At r = 0 the factor
r^(a-1) is 1 for a = 1 and vanishes for a > 1, so only a frame with a = 1
and s != 0 keeps a bracket there.  The isotropy algebra is therefore the
dilation semidirect product for zero (a = s = 1), and abelian for b
(s = 0), sc (a = 2) and c_gamma (a = g > 1, or g = 1 and s = 0).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from ._util import Record

RADIAL = -1  # axis tag for the d/dr direction

_NU_KEY_DECIMALS = 10

MAX_COLLAR_DIM = 32  # of a bracket table, which holds collar_dim^3 numbers


class FredholmKitError(Exception):
    """Base error for this package."""


class NotRepresentableError(FredholmKitError):
    """A coefficient left the supported r^nu (nu >= 0) monomial class."""


def _nu_key(nu: float) -> float:
    return round(float(nu), _NU_KEY_DECIMALS)


class FrameField(Record):
    """A monomial vector field r^r_exponent * d/d(axis)."""

    r_exponent: float
    axis: int  # RADIAL or a cross-section coordinate index >= 0

    def __post_init__(self):
        if self.r_exponent < 0:
            raise ValueError("frame field exponent must be nonnegative")
        if self.axis == RADIAL and self.r_exponent == 0:
            raise ValueError(
                "radial frame fields need r_exponent > 0 to stay tangent at r = 0"
            )
        if self.axis < RADIAL:
            raise ValueError(f"invalid axis {self.axis}")

    def __str__(self) -> str:
        var = "r" if self.axis == RADIAL else f"y{self.axis + 1}"
        if self.r_exponent == 0:
            return f"d/d{var}"
        power = "r" if self.r_exponent == 1 else f"r^{self.r_exponent:g}"
        return f"{power} d/d{var}"


class StructureKind(Enum):
    B = "b"
    ZERO = "zero"
    SC = "sc"
    C_GAMMA = "c_gamma"


class GroupKind(Enum):
    ABELIAN = "abelian"
    SEMIDIRECT_DILATION = "semidirect_dilation"


_RADIAL_EXP = {StructureKind.B: 1.0, StructureKind.ZERO: 1.0, StructureKind.SC: 2.0}
_CROSS_EXP = {StructureKind.B: 0.0, StructureKind.ZERO: 1.0, StructureKind.SC: 1.0}


class LieStructure(Record):
    """A degenerate frame on a collar of dimension collar_dim = 1 + cross dim."""

    kind: StructureKind
    collar_dim: int
    gamma: float | None = None

    def __post_init__(self):
        if self.collar_dim < 1:
            raise ValueError("collar_dim must be a positive integer")
        if self.kind is StructureKind.C_GAMMA:
            if self.gamma is None:
                raise ValueError("c_gamma structures need a gamma parameter")
            if not math.isfinite(self.gamma):
                raise FredholmKitError(
                    f"c_gamma exponent must be finite, got gamma={self.gamma}")
            if self.gamma < 1:
                raise NotRepresentableError(
                    f"c_gamma frame with gamma={self.gamma:g} is not closed under "
                    "brackets (coefficients r^(gamma-1) leave the nu >= 0 class); "
                    "gamma in {0, 1/2, 1} is handled in the b frame instead"
                )
        elif self.gamma is not None:
            raise ValueError("gamma is only meaningful for c_gamma structures")

    # ---- convenience constructors -------------------------------------

    @staticmethod
    def b(cross_dim: int) -> "LieStructure":
        return LieStructure(StructureKind.B, cross_dim + 1)

    @staticmethod
    def zero(cross_dim: int) -> "LieStructure":
        return LieStructure(StructureKind.ZERO, cross_dim + 1)

    @staticmethod
    def sc(cross_dim: int) -> "LieStructure":
        return LieStructure(StructureKind.SC, cross_dim + 1)

    @staticmethod
    def c_gamma(gamma: float, cross_dim: int) -> "LieStructure":
        return LieStructure(StructureKind.C_GAMMA, cross_dim + 1, gamma=float(gamma))

    # ---- frame data ----------------------------------------------------

    @property
    def cross_dim(self) -> int:
        return self.collar_dim - 1

    @property
    def radial_exponent(self) -> float:
        """Exponent a in the radial frame field r^a d/dr."""
        if self.kind is StructureKind.C_GAMMA:
            return float(self.gamma)
        return _RADIAL_EXP[self.kind]

    @property
    def cross_exponent(self) -> float:
        """Exponent s in the tangential frame fields r^s d/dy_j."""
        if self.kind is StructureKind.C_GAMMA:
            return float(self.gamma) - 1.0
        return _CROSS_EXP[self.kind]

    @property
    def frame(self) -> tuple[FrameField, ...]:
        fields = [FrameField(self.radial_exponent, RADIAL)]
        fields += [FrameField(self.cross_exponent, j) for j in range(self.cross_dim)]
        return tuple(fields)


def structure_constants(s: LieStructure) -> np.ndarray:
    """Bracket table of the frame evaluated at r = 0: [e_i, e_j] = c[i,j,k] e_k.

    Of the brackets (module docstring), only [e_0, e_j] = s r^(a-1) e_j,
    a = `radial_exponent` and s = `cross_exponent`, can be nonzero, and at
    r = 0 it is for a = 1 and s != 0 alone; every other entry is +0.0.
    A collar dim past MAX_COLLAR_DIM raises `FredholmKitError`."""
    n = s.collar_dim
    if n > MAX_COLLAR_DIM:
        raise FredholmKitError(
            f"a bracket table takes a collar dim of at most {MAX_COLLAR_DIM}, got {n}")
    c = np.zeros((n, n, n))
    if s.radial_exponent == 1 and s.cross_exponent != 0:
        j = np.arange(1, n)
        c[0, j, j] = s.cross_exponent
        c[j, 0, j] = -s.cross_exponent
    return c


class IsotropyDescriptor(Record):
    """The boundary isotropy Lie algebra of a structure, with its group type.

    structure_constants[i, j, k] is the e_k coefficient of [e_i, e_j] at
    r = 0.  orbit and group_dim describe the boundary orbits: the whole
    boundary component with a 1-dimensional transverse group for b, a
    point with the full collar-dimensional group otherwise.
    """

    structure_constants: np.ndarray
    group_kind: GroupKind
    orbit: str
    group_dim: int
    group: str

    def __post_init__(self):
        c = self.structure_constants
        if not np.array_equal(c, -np.swapaxes(c, 0, 1)):
            raise ValueError("structure constants must be antisymmetric")
        # Jacobi: sum_m c[i,j,m] c[m,k,l] + c[j,k,m] c[m,i,l] + c[k,i,m] c[m,j,l] = 0,
        # over (j, k, l) at once for each i: n^3 sums, as many as the table holds
        for i in range(c.shape[0]):
            total = (np.tensordot(c[i], c, 1) + np.tensordot(c, c[:, i], 1)
                     + np.tensordot(c[:, i], c, 1).transpose(1, 0, 2))
            if np.max(np.abs(total)) > 1e-12:
                raise ValueError("structure constants violate the Jacobi identity")


def isotropy(s: LieStructure) -> IsotropyDescriptor:
    """Isotropy data at a boundary point: bracket table mod r, group type."""
    c = structure_constants(s)
    abelian = not np.any(c)
    group_kind = GroupKind.ABELIAN if abelian else GroupKind.SEMIDIRECT_DILATION
    if s.kind is StructureKind.B:
        orbit, group_dim, group = "boundary component", 1, "R"
    elif s.kind is StructureKind.ZERO:
        orbit, group_dim, group = "point", s.collar_dim, "T(dM) x| R (dilations)"
    else:
        orbit, group_dim, group = "point", s.collar_dim, "T(dM) x R"
    return IsotropyDescriptor(c, group_kind, orbit, group_dim, group)


def compatible_metric(s: LieStructure, r: float) -> np.ndarray:
    """Gram matrix of the coordinate fields (d/dr, d/dy_j) at radius r > 0,
    in the inner product that declares the frame orthonormal."""
    if r <= 0:
        raise ValueError("compatible metrics are defined for r > 0 only")
    a, c = s.radial_exponent, s.cross_exponent
    diag = [float(r) ** (-2 * a)] + [float(r) ** (-2 * c)] * s.cross_dim
    return np.diag(diag)
