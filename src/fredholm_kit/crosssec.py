"""Spectral backends for boundary cross-sections.

Mode tables list the eigenvalues of the nonnegative Laplace-Beltrami
operator of the cross-section, with multiplicities.  The operator algebra
consumes them with the analyst sign convention (a Laplacian power acts as
-lambda on a mode).  Sphere and circle spectra are closed-form;
eigenfunctions are never materialized.  Arbitrary cross-section operators
must be pre-discretized into a Hermitian matrix (the "generic" kind).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

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


@dataclass(frozen=True)
class CrossSection:
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


@dataclass(frozen=True)
class Mode:
    mode_id: int
    eigenvalue: float
    multiplicity: int


@dataclass(frozen=True)
class ModeTable:
    entries: tuple[Mode, ...]
    cutoff: float
    cross_section: CrossSection

    def __post_init__(self):
        evs = [m.eigenvalue for m in self.entries]
        if any(e < 0 for e in evs):
            raise ValueError("Laplace eigenvalues are nonnegative")
        if sorted(evs) != evs:
            raise ValueError("mode table must be sorted by eigenvalue")

    def eigenvalues(self) -> np.ndarray:
        return np.array([m.eigenvalue for m in self.entries])

    def __len__(self):
        return len(self.entries)


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


def _torus_lattice(d: int, n: int):
    """Points of Z^d with |k|^2 <= n, in lexicographic order, one
    coordinate at a time (the walk never leaves the ball)."""
    if d == 0:
        yield ()
        return
    k = math.isqrt(n)
    for j in range(-k, k + 1):
        for rest in _torus_lattice(d - 1, n - j * j):
            yield (j,) + rest


def _signed_points(d: int, cutoff: float) -> list[tuple[int, ...]]:
    """The lattice ball of a torus, at most MODE_BUDGET + 1 points of it."""
    return list(itertools.islice(_torus_lattice(d, int(cutoff)), MODE_BUDGET + 1))


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
        while k * (k + x.dim - 1) > cutoff:
            k -= 1
        return k + 1
    if x.kind is CrossKind.TORUS:
        if signed:
            return len(_signed_points(x.dim, cutoff))
        return int(np.count_nonzero(_torus_shells(x.dim, min(int(cutoff), _SHELL_CAP))))
    return x.matrix.shape[0]


def _over_budget(x: CrossSection, cutoff: float, what: str) -> FredholmKitError:
    return FredholmKitError(f"mode cutoff {cutoff:.6g} on {x} gives more than the "
                            f"budget of {MODE_BUDGET} {what}")


def spectrum(x: CrossSection, cutoff: float) -> ModeTable:
    """All Laplace eigenvalues <= cutoff with multiplicities.

    The lowest mode is always included, even when cutoff sits below it.
    A cutoff that would enumerate more than MODE_BUDGET entries is an error.
    """
    if not math.isfinite(cutoff):
        raise FredholmKitError(f"mode cutoff must be finite, got {cutoff}")
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    if mode_count(x, cutoff) > MODE_BUDGET:
        raise _over_budget(x, cutoff, "modes")
    modes: list[tuple[float, int]] = []
    if x.coordinate_count == 1:  # circle or T^1
        k = 0
        while k * k <= cutoff:
            modes.append((float(k * k), 1 if k == 0 else 2))
            k += 1
    elif x.kind is CrossKind.SPHERE:
        l = 0
        while l * (l + x.dim - 1) <= cutoff:
            modes.append((float(l * (l + x.dim - 1)), sphere_multiplicity(x.dim, l)))
            l += 1
    elif x.kind is CrossKind.TORUS:
        shells = _torus_shells(x.dim, int(cutoff))
        modes = [(float(n2), int(shells[n2])) for n2 in np.flatnonzero(shells)]
    else:
        evs = np.linalg.eigvalsh(x.matrix)
        scale = max(1.0, float(np.max(np.abs(evs))))
        clusters: list[list[float]] = []
        for e in evs:
            if clusters and abs(e - clusters[-1][-1]) <= 1e-10 * scale:
                clusters[-1].append(float(e))
            else:
                clusters.append([float(e)])
        modes = [(float(np.mean(c)), len(c)) for c in clusters]
        if any(e < 0 for e, _ in modes):
            raise FredholmKitError(
                "generic cross-section matrix must be positive semidefinite "
                "(it stands in for a Laplacian)"
            )
        kept = [(e, m) for e, m in modes if e <= cutoff]
        modes = kept if kept else modes[:1]
    entries = tuple(Mode(i, e, m) for i, (e, m) in enumerate(modes))
    return ModeTable(entries, float(cutoff), x)


@dataclass(frozen=True)
class Channel:
    """One diagonal block of the mode decomposition.

    vector is the signed lattice frequency when explicit circle/torus
    partial derivatives force the table apart, None when the operator only
    sees the eigenvalue.  weight entries sum back to the multiplicities.
    """

    label: str
    eigenvalue: float
    weight: int
    mode_id: int
    vector: tuple[int, ...] | None = None


def channels(x: CrossSection, table: ModeTable, signed: bool) -> tuple[Channel, ...]:
    """Split a mode table into the blocks an operator acts on diagonally."""
    out: list[Channel] = []
    signed = signed and x.coordinate_count > 0
    if signed and mode_count(x, table.cutoff, signed=True) > MODE_BUDGET:
        raise _over_budget(x, table.cutoff, "signed mode channels")
    if not signed:
        for m in table.entries:
            if x.kind is CrossKind.CIRCLE:
                label = f"k={m.mode_id}"
            elif x.kind is CrossKind.SPHERE:
                label = f"l={m.mode_id}"
            elif x.kind is CrossKind.TORUS:
                label = f"|k|^2={int(m.eigenvalue)}"
            else:
                label = f"mode{m.mode_id}"
            out.append(Channel(label, m.eigenvalue, m.multiplicity, m.mode_id))
        return tuple(out)
    if x.kind is CrossKind.CIRCLE:
        for m in table.entries:
            k = m.mode_id
            vecs = [(0,)] if k == 0 else [(k,), (-k,)]
            for v in vecs:
                out.append(Channel(f"k={v[0]:+d}" if k else "k=0", m.eigenvalue, 1, k, v))
        return tuple(out)
    # torus: enumerate the lattice points of each norm shell
    shells: dict[int, list[tuple[int, ...]]] = {}
    for vec in _signed_points(x.dim, table.cutoff):
        shells.setdefault(sum(k * k for k in vec), []).append(vec)
    for m in table.entries:
        for vec in sorted(shells.get(int(m.eigenvalue), [])):
            label = "k=(" + ",".join(f"{k:+d}" if k else "0" for k in vec) + ")"
            out.append(Channel(label, m.eigenvalue, 1, m.mode_id, vec))
    return tuple(out)
