"""Spectral backends for boundary cross-sections.

Mode tables hold the eigenvalues of the nonnegative Laplace-Beltrami
operator of the cross-section as an array, with multiplicities; channel
tables split them into arrays of the blocks an operator acts on.  The
operator algebra consumes them with the analyst sign convention (a
Laplacian power acts as -lambda on a mode).  Sphere and circle spectra are closed-form;
eigenfunctions are never materialized.  Arbitrary cross-section operators
must be pre-discretized into a Hermitian matrix (the "generic" kind).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from ._util import Record
from .liestruct import FredholmKitError

_HERMITIAN_TOL = 1e-12

# Most mode channels one cutoff may give a run: distinct eigenvalues of the
# cross-section, or signed frequencies when tangential partials split them.
# Each channel can carry its own polynomial to solve, so the budget bounds
# the work of a run whatever cutoff a user or a spec asks for.  At the
# budget, a b-operator with a distinct polynomial per channel takes 0.5-1 s
# to check and 4-40 s to verify on a 2-core host, alike for the circle,
# T^2 to T^4 and signed T^2 and T^3 channels.
MODE_BUDGET = 10_000

# Torus shells are counted up to this |k|^2; beyond it every torus of
# dimension >= 2 already has more than MODE_BUDGET distinct eigenvalues.
_SHELL_CAP = 8 * MODE_BUDGET


class CrossKind(Enum):
    CIRCLE = "circle"
    TORUS = "torus"
    SPHERE = "sphere"
    GENERIC = "generic"


class CrossSection(Record):
    kind: CrossKind
    dim: int
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind is CrossKind.CIRCLE and self.dim != 1:
            raise ValueError("a circle is 1-dimensional")
        if self.kind is CrossKind.TORUS and self.dim < 1:
            raise ValueError("torus dimension must be >= 1")
        if self.kind is CrossKind.SPHERE and self.dim < 1:
            raise ValueError("sphere dimension must be >= 1")
        if self.kind is CrossKind.GENERIC:
            h = self.matrix
            if h is None or h.ndim != 2 or h.shape[0] != h.shape[1]:
                raise ValueError("generic cross-sections need a square matrix")
            scale = max(1.0, float(np.max(np.abs(h))))
            if np.max(np.abs(h - h.conj().T)) > _HERMITIAN_TOL * scale:
                raise FredholmKitError("generic cross-section matrix is not Hermitian")
        elif self.matrix is not None:
            raise ValueError("only generic cross-sections carry a matrix")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def circle() -> "CrossSection":
        return CrossSection(CrossKind.CIRCLE, 1)

    @staticmethod
    def torus(d: int) -> "CrossSection":
        return CrossSection(CrossKind.TORUS, int(d))

    @staticmethod
    def sphere(dim: int) -> "CrossSection":
        return CrossSection(CrossKind.SPHERE, int(dim))

    @staticmethod
    def generic(matrix, dimension: int | None = None) -> "CrossSection":
        h = np.array(matrix, dtype=complex)
        h.setflags(write=False)
        if dimension is None:
            dimension = 1 if h.shape[0] > 1 else 0
        return CrossSection(CrossKind.GENERIC, int(dimension), h)

    # -- bookkeeping -----------------------------------------------------

    @property
    def dimension(self) -> int:
        """Manifold dimension (0 for a point-like generic section)."""
        return self.dim

    @property
    def coordinate_count(self) -> int:
        """Number of explicit tangential coordinates (circle/torus only)."""
        if self.kind in (CrossKind.CIRCLE, CrossKind.TORUS):
            return self.dim
        return 0

    def __eq__(self, other):
        if not isinstance(other, CrossSection):
            return NotImplemented
        if (self.kind, self.dim) != (other.kind, other.dim):
            return False
        if self.kind is CrossKind.GENERIC:
            return np.array_equal(self.matrix, other.matrix)
        return True

    def __hash__(self):
        extra = self.matrix.tobytes() if self.matrix is not None else b""
        return hash((self.kind, self.dim, extra))

    def __str__(self) -> str:
        if self.kind is CrossKind.CIRCLE:
            return "S^1"
        if self.kind is CrossKind.TORUS:
            return f"T^{self.dim}"
        if self.kind is CrossKind.SPHERE:
            return f"S^{self.dim}"
        return f"generic({self.matrix.shape[0]}x{self.matrix.shape[0]})"


class ModeTable(Record, eq=False):
    """The Laplace eigenvalues <= cutoff, ascending, as a read-only float64
    array, with their multiplicities as exact Python ints (a sphere's pass
    2^63 at high degree)."""

    eigenvalues: np.ndarray
    multiplicities: tuple[int, ...]
    cutoff: float
    cross_section: CrossSection

    def __post_init__(self):
        evs = self.eigenvalues
        if np.any(evs < 0):
            raise ValueError("Laplace eigenvalues are nonnegative")
        if np.any(evs[1:] < evs[:-1]):
            raise ValueError("mode table must be sorted by eigenvalue")
        evs.setflags(write=False)

    def __len__(self):
        return len(self.multiplicities)


def sphere_multiplicity(dim: int, l: int) -> int:
    """Dimension of the degree-l spherical harmonics on S^dim."""
    if dim < 1:
        raise ValueError("sphere dimension must be >= 1")
    if l < 0:
        raise ValueError("degree must be nonnegative")
    if l == 0:
        return 1
    if dim == 1:
        return 2
    return math.comb(l + dim, dim) - math.comb(l - 2 + dim, dim)


def _signed_points(d: int, cutoff: float) -> np.ndarray | None:
    """The lattice ball |k|^2 <= cutoff of Z^d as the rows of an int array,
    in lexicographic order, built one coordinate at a time; None when it
    has more than MODE_BUDGET points.  Every point of one step starts at
    least one point of the ball, so no step holds more than MODE_BUDGET."""
    n = int(cutoff)
    k = math.isqrt(n)
    if 2 * k + 1 > MODE_BUDGET:
        return None
    pts = np.arange(-k, k + 1)[:, None]
    rest = n - pts[:, 0] ** 2
    for _ in range(d - 1):
        s = np.sqrt(rest).astype(np.int64)  # floor: rest < 2^52 here
        span = 2 * s + 1
        total = int(span.sum())
        if total > MODE_BUDGET:
            return None
        # coordinate j runs from -s to s after each point, in order
        j = np.arange(total) - np.repeat(np.cumsum(span) - span + s, span)
        pts = np.column_stack([np.repeat(pts, span, axis=0), j])
        rest = np.repeat(rest, span) - j * j
    return pts


def _torus_shells(d: int, n: int) -> np.ndarray:
    """r[m] = number of points of Z^d with |k|^2 = m, for 0 <= m <= n, by
    adding one coordinate at a time."""
    k = math.isqrt(n)
    r = np.zeros(n + 1, dtype=np.int64 if (2 * k + 1) ** d < 2 ** 63 else object)
    r[0] = 1
    for _ in range(d):
        nxt = r.copy()
        for j in range(1, k + 1):
            nxt[j * j:] += 2 * r[:n + 1 - j * j]
        r = nxt
    return r


def mode_count(x: CrossSection, cutoff: float, signed: bool = False) -> int:
    """Number of mode channels a finite cutoff >= 0 gives: the entries of
    `spectrum` (modes of a circle or sphere, distinct |k|^2 of a torus,
    eigenvalues of a generic matrix), or with `signed` the channels of
    `channels` on a circle or torus.  Counts above MODE_BUDGET are only
    known to be above it."""
    k = math.isqrt(int(cutoff))
    if x.coordinate_count == 1:  # circle or T^1
        return 2 * k + 1 if signed else k + 1
    if x.kind is CrossKind.SPHERE:
        # l(l + a) <= cutoff iff (2l + a)^2 <= a^2 + 4 floor(cutoff), a = d - 1
        a = x.dim - 1
        return (math.isqrt(a * a + 4 * int(cutoff)) - a) // 2 + 1
    if x.kind is CrossKind.TORUS:
        if signed:
            pts = _signed_points(x.dim, cutoff)
            return MODE_BUDGET + 1 if pts is None else len(pts)
        return int(np.count_nonzero(_torus_shells(x.dim, min(int(cutoff), _SHELL_CAP))))
    return x.matrix.shape[0]


def _over_budget(x: CrossSection, cutoff: float, what: str) -> FredholmKitError:
    return FredholmKitError(f"mode cutoff {cutoff:.6g} on {x} gives more than the "
                            f"budget of {MODE_BUDGET} {what}")


def check_cutoff(cutoff: float) -> None:
    """Raise FredholmKitError unless the mode cutoff is finite and positive."""
    if not (math.isfinite(cutoff) and cutoff > 0):
        raise FredholmKitError(f"mode cutoff must be finite and positive, got {cutoff}")


def spectrum(x: CrossSection, cutoff: float) -> ModeTable:
    """All Laplace eigenvalues <= cutoff with multiplicities.

    The lowest mode is always included, even when cutoff sits below it.
    A cutoff that is not finite and positive, or that would enumerate more
    than MODE_BUDGET entries, is an error.
    """
    check_cutoff(cutoff)
    n = mode_count(x, cutoff)
    if n > MODE_BUDGET:
        raise _over_budget(x, cutoff, "modes")
    if x.coordinate_count == 1:  # circle or T^1
        k = np.arange(n)
        evs, mults = k * k, [1] + [2] * (n - 1)
    elif x.kind is CrossKind.SPHERE:
        # Python ints: l (l + dim - 1) may pass int64 on a high-dimensional sphere
        evs = [l * (l + x.dim - 1) for l in range(n)]
        mults = [sphere_multiplicity(x.dim, l) for l in range(n)]
    elif x.kind is CrossKind.TORUS:
        shells = _torus_shells(x.dim, int(cutoff))
        evs = np.flatnonzero(shells)
        mults = shells[evs].tolist()
    else:
        evs = np.linalg.eigvalsh(x.matrix)
        scale = max(1.0, float(np.max(np.abs(evs))))
        clusters = np.split(evs, np.flatnonzero(np.diff(evs) > 1e-10 * scale) + 1)
        evs = np.array([np.mean(c) for c in clusters])
        mults = [c.size for c in clusters]
        if np.any(evs < 0):
            raise FredholmKitError(
                "generic cross-section matrix must be positive semidefinite "
                "(it stands in for a Laplacian)"
            )
        n = max(1, int(np.count_nonzero(evs <= cutoff)))
        evs, mults = evs[:n], mults[:n]
    return ModeTable(np.array(evs, dtype=float), tuple(mults), float(cutoff), x)


class ChannelTable(Record, eq=False):
    """The diagonal blocks of the mode decomposition, in channel order: a
    label and a Laplace eigenvalue per channel, and the signed lattice
    frequencies, one row per channel, when explicit circle/torus partial
    derivatives force the modes apart (None when the operator only sees
    the eigenvalue)."""

    labels: tuple[str, ...]
    eigenvalues: np.ndarray  # float64, shape (C,)
    vectors: np.ndarray | None = None  # int, shape (C, d)

    def __len__(self):
        return len(self.labels)


def channels(x: CrossSection, table: ModeTable, signed: bool) -> ChannelTable:
    """Split a mode table into the blocks an operator acts on diagonally.

    Unsigned channels are the table's modes.  Signed ones are the lattice
    points: on a circle k=0, k=+1, k=-1, k=+2, ...; on a torus ordered by
    |k|^2, lexicographically within a shell."""
    if not (signed and x.coordinate_count):
        if x.kind is CrossKind.TORUS:
            labels = [f"|k|^2={int(e)}" for e in table.eigenvalues.tolist()]
        else:
            prefix = {CrossKind.CIRCLE: "k=", CrossKind.SPHERE: "l="}.get(x.kind, "mode")
            labels = [f"{prefix}{i}" for i in range(len(table))]
        return ChannelTable(tuple(labels), table.eigenvalues)
    if x.kind is CrossKind.CIRCLE:
        if 2 * len(table) - 1 > MODE_BUDGET:
            raise _over_budget(x, table.cutoff, "signed mode channels")
        k = np.arange(1, len(table))
        vectors = np.zeros((2 * len(table) - 1, 1), dtype=np.int64)
        vectors[1::2, 0], vectors[2::2, 0] = k, -k
        labels = ["k=0"] + [f"k={v:+d}" for v in vectors[1:, 0].tolist()]
    else:
        pts = _signed_points(x.dim, table.cutoff)
        if pts is None:
            raise _over_budget(x, table.cutoff, "signed mode channels")
        vectors = pts[np.argsort((pts * pts).sum(axis=1), kind="stable")]
        k = math.isqrt(int(table.cutoff))
        names = np.array([f"{j:+d}" if j else "0" for j in range(-k, k + 1)], dtype=object)
        labels = ["k=(" + ",".join(row) + ")" for row in names[vectors + k].tolist()]
    return ChannelTable(tuple(labels), (vectors * vectors).sum(axis=1).astype(float), vectors)
