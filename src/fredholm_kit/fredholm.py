"""Fredholm decision engine: ellipticity plus invertibility of every limit
operator, with indicial roots, weight-line tests, and safe weight windows.

Weight convention: delta is the exponent in r^delta times the base scale,
and the tested line is Im(tau) = -delta, equivalently Re(z) = delta for
the Mellin variable z = i tau.  This is pinned by the exact identity
r^(-delta) (r d/dr) r^delta = r d/dr + delta.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._util import round12, round12_all
from .crosssec import MODE_BUDGET, check_cutoff, mode_count, spectrum
from .liestruct import FredholmKitError, StructureKind
from .limitops import (
    IndicialFamily,
    cluster_counts,
    disc_components,
    freeze_coefficients,
    inclusion_discs,
    indicial_family,
    newton_correction,
    normal_operator,
)
from .opalg import (
    FLOOR_DIRECTIONS,
    BoundaryOperator,
    EllipticityResult,
    MultiIndex,
    _covector_dim,
    _is_matrix,
    _symbol_stack,
    default_mode_cutoff,
    is_elliptic,
    symbol_min_singular,
    symbol_monomial,
)

_ROOT_STEP_TOL = 1e-9
_NEWTON_STEPS = 16  # the most Newton steps an approximation of a root takes
_ON_LINE_TOL = 1e-12
_BORDERLINE_TOL = 1e-8
_WEIGHT_CAP = 2.0 ** 20  # the largest certified weight range reported

VERDICT_FREDHOLM = "Fredholm"
VERDICT_NOT = "NotFredholm"
VERDICT_UNDECIDED = "Undecided"

WEIGHT_CONVENTION = "line Re(z) = delta"

ROOTS_NOT_COMPUTED = "indicial roots not computed"  # a caveat; `cross_check` skips those roots


@dataclass(frozen=True)
class IndicialRoot:
    """A zero of the per-mode determinant polynomial, in both the Fourier
    variable tau and the Mellin variable z = i tau."""

    mode: str
    tau: complex
    mellin: complex
    multiplicity: int

    def as_dict(self):
        return {
            "mode": self.mode,
            "tau": [round12(self.tau.real), round12(self.tau.imag)],
            "mellin": [round12(self.mellin.real), round12(self.mellin.imag)],
            "multiplicity": self.multiplicity,
        }


@dataclass(frozen=True, eq=False)
class RootTable(Sequence):
    """Indicial roots listed per class root, as `indicial_roots` finds
    them: the channel `labels`; the class-root arrays `tau`, `mellin` and
    `multiplicity`; and for every listed root, in order, its `channel`
    (an index into labels) and its `class_root` (an index into the
    class-root arrays).  As a sequence it lists each root as an
    `IndicialRoot`, built on demand; a slice is a table of the same class
    roots.  Readers that go through every root read the arrays instead,
    and do the work of a class root once."""

    labels: tuple[str, ...]
    tau: np.ndarray
    mellin: np.ndarray
    multiplicity: np.ndarray
    channel: np.ndarray
    class_root: np.ndarray

    @classmethod
    def from_roots(cls, roots: Sequence[IndicialRoot]) -> RootTable:
        """The table of any sequence of roots, one class root per root (a
        table is returned as it is)."""
        if isinstance(roots, RootTable):
            return roots
        index: dict[str, int] = {}
        channel = [index.setdefault(r.mode, len(index)) for r in roots]
        return cls(tuple(index), np.array([r.tau for r in roots], dtype=complex),
                   np.array([r.mellin for r in roots], dtype=complex),
                   np.array([r.multiplicity for r in roots], dtype=np.intp),
                   np.array(channel, dtype=np.intp), np.arange(len(channel)))

    def __len__(self) -> int:
        return len(self.channel)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return RootTable(self.labels, self.tau, self.mellin, self.multiplicity,
                             self.channel[i], self.class_root[i])
        j = self.class_root[i]
        return IndicialRoot(self.labels[self.channel[i]], complex(self.tau[j]),
                            complex(self.mellin[j]), int(self.multiplicity[j]))

    def class_roots(self) -> list[tuple[complex, complex, int]]:
        """(tau, mellin, multiplicity) of every class root."""
        return list(zip(self.tau.tolist(), self.mellin.tolist(), self.multiplicity.tolist()))

    def listed(self):
        """(channel, class root) of every listed root, in order."""
        return zip(self.channel.tolist(), self.class_root.tolist())

    def mellin_real(self) -> list[float]:
        """Re(z) of every listed root, in order."""
        return self.mellin.real[self.class_root].tolist()


def _resolve_roots(coeffs: np.ndarray, points: np.ndarray) -> list[tuple[list | None, str | None]]:
    """Roots of det P_b for a batch of matrix polynomials, coeffs[:, b] of
    shape (m + 1, k, k), from approximations points[b], one per root
    counted with multiplicity: for each b, (roots, None) with roots a list
    of (tau, multiplicity) pairs, or (None, failure detail).

    Each approximation takes Newton steps while they exceed _ROOT_STEP_TOL
    of the root, at most _NEWTON_STEPS, and gets the oracle's inclusion
    disc (`limitops.inclusion_discs`); where discs meet, the discs of the
    iterates replace them if they only split components and their lone
    iterates settled.  A lone disc grows to reach its iterate; one still
    alone is a simple root there, and a component of p discs one root of
    multiplicity p at the mean of its approximations once a winding number
    confirms p (`limitops.cluster_counts`).  A polynomial fails alone: on a disc that
    is not finite, a simple root whose steps did not settle, or a count."""
    points = np.sort(points, axis=-1)
    tol = _ROOT_STEP_TOL * np.maximum(1.0, np.abs(points))
    roots, steps = points.copy(), np.zeros_like(points)
    moving = np.ones(points.shape, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        rows, cols = np.nonzero(moving)
        if rows.size == 0:
            break
        with np.errstate(over="ignore", invalid="ignore"):  # a value that overflows: a NaN step
            steps[rows, cols] = step = newton_correction(coeffs[:, rows], roots[rows, cols])
        roots[rows, cols] -= np.where(np.isfinite(step), step, 0)
        moving[rows, cols] = np.abs(step) > tol[rows, cols]
    settled = np.abs(steps) <= tol
    z, radius, _, finite, label = inclusion_discs(coeffs, points)
    # close simple roots may part at the iterates (unmoved ones give the same discs)
    again = np.flatnonzero(finite & (label != np.arange(points.shape[1])).any(axis=1)
                           & (roots != points).any(axis=1))
    if again.size:
        z2, radius2, _, finite2, label2 = inclusion_discs(coeffs[:, again], roots[again])
        same, same2 = (lab[:, :, None] == lab[:, None, :] for lab in (label[again], label2))
        take = (finite2 & (same2 <= same).all(axis=(1, 2))
                & (settled[again] | (same2.sum(axis=2) > 1)).all(axis=1))
        z[again[take]], radius[again[take]], label[again[take]] = \
            z2[take], radius2[take], label2[take]
    lone = (label[:, :, None] == label[:, None, :]).sum(axis=2) == 1
    # a lone disc grows to reach its iterate; a component of grown discs
    # still holds as many roots as it has discs
    grow = finite[:, None] & lone & (np.abs(roots - z) > radius)
    if grow.any():
        radius = np.where(grow, np.abs(roots - z), radius)
        label = disc_components(z, radius)
        lone = (label[:, :, None] == label[:, None, :]).sum(axis=2) == 1
    failed = lone & ~settled
    failures: list = [None] * len(points)
    for b in np.flatnonzero(~finite).tolist():
        failures[b] = f"inclusion disc not finite at tau={z[b][~np.isfinite(radius[b])][0]:.6g}"
    for b in np.flatnonzero(finite & failed.any(axis=1)).tolist():
        bad = failed[b]
        failures[b] = f"Newton step {abs(steps[b][bad][0]):.2e} at tau={points[b][bad][0]:.6g}"
    # 0 + turns a signed zero into +0
    out = [[(tau, 1) for tau, alone in zip(row, keep) if alone]
           for row, keep in zip((0 + roots).tolist(), lone.tolist())]
    grouped = np.flatnonzero(finite & ~lone.all(axis=1) & ~failed.any(axis=1))
    for b, (parts, _, counts) in cluster_counts(coeffs, z, radius, grouped).items():
        if None in counts:
            failures[b] = "contour counting failed to stabilize"
            continue
        for g, count in zip([g for g in parts if g.size > 1], counts):
            c = points[b, g].mean()
            if count != g.size:
                failures[b] = (f"winding number {count} around tau={c:.6g} "
                               f"disagrees with {g.size} merged roots")
                break
            out[b].append((complex(c), g.size))
    return [(None, failure) if failure else (roots, None)
            for roots, failure in zip(out, failures)]


def _linearized_roots(coeffs: np.ndarray) -> list[tuple[list | None, str | None]]:
    """`_resolve_roots` of a batch of matrix polynomials, coeffs[:, b] of
    shape (m + 1, k, k), from the eigenvalues of their reduced block
    companion matrices [[0, I, ...], [-A_m^-1 A_0, ..., -A_m^-1 A_(m-1)]].
    A polynomial fails alone when its leading matrix A_m is singular
    (numerically rank-deficient; a trimmed nonzero scalar never is) or
    its companion matrix is not finite (A_m^-1 A_j overflows, or A_m
    itself is not finite)."""
    m, n, k = coeffs.shape[0] - 1, coeffs.shape[1], coeffs.shape[2]
    if m == 0:
        return [([], None) for _ in range(n)]
    finite = np.isfinite(coeffs[-1]).all(axis=(1, 2))  # the SVD refuses inf and NaN
    full = finite.copy()
    if k > 1:
        full[finite] = np.linalg.matrix_rank(coeffs[-1, finite]) == k
    companion = np.zeros((n, m * k, m * k), dtype=complex)
    companion[:, :-k, k:] = np.eye((m - 1) * k)
    companion[full, -k:] = -np.linalg.solve(coeffs[-1, full],
                                            np.concatenate(coeffs[:-1, full], axis=-1))
    ok = full & np.isfinite(companion).all(axis=(1, 2))
    out: list = [(None, "the leading matrix is singular" if f and not g else
                  "the block companion matrix is not finite")
                 for f, g in zip(finite.tolist(), full.tolist())]
    for b, found in zip(np.flatnonzero(ok).tolist(),
                        _resolve_roots(coeffs[:, ok], np.linalg.eigvals(companion[ok]))):
        out[b] = found
    return out


def indicial_roots(f: IndicialFamily) -> RootTable:
    """All tau roots of the per-mode determinants det P(tau), with
    multiplicities, resolved by `_resolve_roots`, sorted by (Re z, Im z,
    mode) with ties in channel order.  Each distinct mode polynomial (a
    class) is solved once, for its first label.  Exact zero top
    coefficients are dropped; the approximations are the eigenvalues of
    the block companion matrices (`_linearized_roots`), one batch per
    degree.  A singular leading matrix fails: for an elliptic operator of
    order m the tau^m coefficient of every mode is i^m sigma_m(P)(0; 1, 0),
    at a covector `is_elliptic` samples, so only an operator whose verdict
    needs no roots has one.  The first failing class, in order of degree
    batch and then of class, raises FredholmKitError.

    The roots stay per class root: the result is a `RootTable` of the
    class roots, and one `np.lexsort` over (label rank, Im z, Re z) of the
    class roots repeated to their channels gives the channel and the
    class root of every listed root.  No `IndicialRoot` is built here."""
    first, class_of = f.class_rows
    reps = f.coeffs[first]
    labels = f.channels.labels
    nonzero = reps.any(axis=(2, 3))
    zero = ~nonzero.any(axis=1)
    if zero.any():
        raise FredholmKitError(f"indicial polynomial of mode {labels[first[np.argmax(zero)]]} "
                               "is identically zero")
    degree = nonzero.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    by_class: list = [None] * len(first)
    for deg in dict.fromkeys(degree.tolist()):  # in order of first appearance
        members = np.flatnonzero(degree == deg)
        solved = _linearized_roots(reps[members, :deg + 1].swapaxes(0, 1))
        for c, (roots, failure) in zip(members.tolist(), solved):
            if failure is not None:
                raise FredholmKitError(
                    f"root refinement failed on mode {labels[first[c]]}: {failure}")
            by_class[c] = roots
    # the class roots, then the index of every channel's root into them
    tau = np.array([tau for roots in by_class for tau, _ in roots], dtype=complex)
    mult = np.array([mult for roots in by_class for _, mult in roots], dtype=np.intp)
    mellin = 1j * tau
    count = np.array([len(roots) for roots in by_class], dtype=np.intp)
    per_channel = count[class_of]
    channel = np.repeat(np.arange(len(labels)), per_channel)
    shift = np.cumsum(per_channel) - per_channel - (np.cumsum(count) - count)[class_of]
    class_root = np.arange(channel.size) - np.repeat(shift, per_channel)
    rank = np.empty(len(labels), dtype=np.intp)
    rank[sorted(range(len(labels)), key=labels.__getitem__)] = np.arange(len(labels))
    order = np.lexsort((rank[channel], mellin.imag[class_root], mellin.real[class_root]))
    return RootTable(labels, tau, mellin, mult, channel[order], class_root[order])


@dataclass(frozen=True)
class LineVerdict:
    status: str  # yes | no | borderline | numerical-evidence (no roots)
    distance: float
    witness: IndicialRoot | None

    def as_dict(self):
        return {
            "status": self.status,
            "distance_to_line": round12(self.distance),
            "witness": self.witness.as_dict() if self.witness else None,
        }


def normal_invertible(roots: RootTable, delta: float) -> LineVerdict:
    """Invertibility of the normal operator on the weight-delta line: yes
    iff no indicial root satisfies Re(z) = delta.  Roots within 1e-8 of
    the line are reported as borderline rather than guessed.  The witness
    is the first listed root nearest the line."""
    if not roots:
        return LineVerdict("yes", math.inf, None)
    re = roots.mellin.real[roots.class_root]
    best = int(np.argmin(np.abs(re - delta)))
    dist = float(abs(re[best] - delta))
    witness = roots[best]
    if dist <= _ON_LINE_TOL * max(1.0, abs(witness.tau)):
        return LineVerdict("no", dist, witness)
    if dist <= _BORDERLINE_TOL:
        return LineVerdict("borderline", dist, witness)
    return LineVerdict("yes", dist, None)


# ---------------------------------------------------------------------------
# quantitative mode-tail certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailBound:
    """Leading-term domination bound for modes above the cutoff.

    With s^2 = tau^2 + lambda, the shifted mode polynomial satisfies
    sigma_min >= mu0 * s^m - sum_d B_d * s^d, so every mode with
    lambda > s0^2 is invertible on the tested line.
    """

    mu0: float
    order: int
    envelope: tuple[tuple[int, float], ...]
    s0: float
    lambda_certified: float

    def as_dict(self):
        return {
            "mu0": round12(self.mu0),
            "order": self.order,
            "envelope": [[d, round12(w)] for d, w in self.envelope],
            "s0": round12(self.s0),
            "lambda_certified": round12(self.lambda_certified),
            "direction_samples": FLOOR_DIRECTIONS,
        }


def _positive_root(coeffs: np.ndarray) -> float:
    """Largest positive real root of a polynomial whose leading coefficient
    is positive and whose lower coefficients are <= 0 (one sign change);
    inf, a bound that certifies nothing, when a coefficient over the
    leading one overflows."""
    with np.errstate(over="ignore"):
        if not np.isfinite(coeffs[:-1] / coeffs[-1]).all():
            return math.inf
    roots = np.polynomial.polynomial.polyroots(coeffs)
    best = 0.0
    for z in roots:
        if abs(z.imag) <= 1e-9 * (1 + abs(z.real)) and z.real > best:
            best = float(z.real)
    return best


def _collect(pieces: list[tuple[int, int, float]], x: float) -> dict[int, float]:
    """Sums of w * x^e over the pieces (key, e, w), by key."""
    out: dict[int, float] = {}
    for key, e, w in pieces:
        try:
            power = x ** e
        except OverflowError:
            power = math.inf
        out[key] = out.get(key, 0.0) + w * power
    return out


def tail_bound(base: BoundaryOperator, delta_abs: float, mu0: float) -> TailBound:
    """Certificate that high modes stay invertible on every line
    |Re z| <= delta_abs, from the coefficient norms of the normal operator
    `base` (as `normal_operator` returns it) and the symbol floor mu0
    (`symbol_min_singular` of base at r = 0), with the pieces of its
    `tail_envelope` summed at delta_abs.  Without a positive floor, or
    when an envelope weight overflows, the tail is uncertified: s0 and
    lambda_certified are infinite."""
    m = base.order
    envelope = _collect(base.tail_envelope, delta_abs)
    if mu0 <= 0 or not all(math.isfinite(w) for w in envelope.values()):
        return TailBound(mu0, m, tuple(sorted(envelope.items())), math.inf, math.inf)
    coeffs = np.zeros(m + 1)
    coeffs[m] = mu0
    for d, w in envelope.items():
        coeffs[d] -= w
    s0 = max(1.0, _positive_root(coeffs) * (1 + 1e-9))
    return TailBound(mu0, m, tuple(sorted(envelope.items())), s0, s0 * s0)


def certified_weight_range(base: BoundaryOperator, cutoff: float, mu0: float) -> float:
    """Largest W with tail certification for all |delta| <= W at this
    cutoff, for the normal operator `base` and the symbol floor mu0 of
    `tail_bound`, which certifies delta when s0 <= sqrt(cutoff): when
    f(delta) = mu0 - sum w * delta^e * S^(d - m) >= 0 over the
    `tail_envelope` pieces (d, e, w), S = sqrt(cutoff) / (1 + 1e-9).  W is
    the positive root of f, and no root of f is smaller in modulus, so
    1/W is the largest root of f reversed.  W is 0 when the cutoff is
    below 1 or f(0) <= 0 (as when mu0 <= 0 or a piece is not finite), and
    2^20 when it is larger or when no piece depends on delta."""
    if cutoff < 1:
        return 0.0
    by_power = _collect([(e, d - base.order, w) for d, e, w in base.tail_envelope],
                        math.sqrt(cutoff) / (1 + 1e-9))
    f = np.zeros(max(by_power, default=0) + 1)
    f[list(by_power)] -= list(by_power.values())
    f[0] += mu0
    if not (np.isfinite(f).all() and f[0] > 0):
        return 0.0
    y = _positive_root(f[::-1])  # 1/W, or 0 when no piece depends on delta
    return 1.0 / y if y * _WEIGHT_CAP > 1 else _WEIGHT_CAP


def safe_weight_intervals(roots: Sequence[IndicialRoot], lo: float, hi: float,
                          ) -> list[tuple[float, float]]:
    """Maximal open delta intervals inside [lo, hi] avoiding every
    Re(mellin) of the given roots (which must be complete on that range,
    and sorted by Re(mellin), as `indicial_roots` returns them).  Values
    within 1e-9 of the last one kept are one value."""
    if hi <= lo:
        return []
    re = RootTable.from_roots(roots).mellin_real()
    bad: list[float] = []
    i = bisect_left(re, lo - 1e-12)
    while i < len(re) and (x := re[i]) <= hi + 1e-12:
        bad.append(x)
        i = bisect_right(re, 1e-9, lo=i, key=lambda v: v - x)
    points = [lo] + bad + [hi]
    out = []
    for a, b in zip(points[:-1], points[1:]):
        if b - a > 1e-12:
            out.append((a, b))
    return out


# ---------------------------------------------------------------------------
# sc-type symbol invertibility
# ---------------------------------------------------------------------------


_SC_THRESHOLD = 1e-6  # on min |det| of the full symbol, absolute
# points per axis of the sc scan's finer base grid, by covector dimension (21 above 3)
_SC_AXIS_POINTS = {1: 4001, 2: 201, 3: 61}


@dataclass(frozen=True)
class ScVerdict:
    status: str  # yes | no | undecided
    min_abs_det: float
    witness: tuple[float, ...] | None
    radius: float
    resolutions: tuple[tuple[int, float, str], ...]

    def as_dict(self):
        return {
            "status": self.status,
            "min_abs_det": round12(self.min_abs_det),
            "witness": [round12(x) for x in self.witness] if self.witness else None,
            "search_radius": round12(self.radius),
            "resolutions": [[n, round12(v), s] for n, v, s in self.resolutions],
            "threshold": _SC_THRESHOLD,
        }


def _sc_axes(frozen: BoundaryOperator, radius: float, n_axis: int) -> list[np.ndarray]:
    dim_total, magnitude_slot = _covector_dim(frozen)
    axes = [np.linspace(-radius, radius, n_axis)]
    for _ in range(dim_total - 1):
        if magnitude_slot:
            axes.append(np.linspace(0.0, radius, (n_axis + 1) // 2))
        else:
            axes.append(np.linspace(-radius, radius, n_axis))
    return axes


def _sc_eval_grid(frozen: BoundaryOperator, axes: list[np.ndarray]):
    pts = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    eta = pts[:, 1:]
    eta2 = sum((e * e for e in eta.T), np.zeros(pts.shape[0]))
    vals = _symbol_stack(frozen, 0.0, pts[:, 0], eta, eta2, principal=False)
    dets = np.abs(vals if frozen.system_size == 1 else np.linalg.det(vals))
    idx = int(np.argmin(dets))
    return float(dets[idx]), tuple(float(x) for x in pts[idx])


def _sc_scan(frozen: BoundaryOperator, radius: float, n_axis: int, zooms: int):
    magnitude_slot = _covector_dim(frozen)[1]
    axes = _sc_axes(frozen, radius, n_axis)
    best, point = _sc_eval_grid(frozen, axes)
    width = 2 * radius / max(1, n_axis - 1)
    for _ in range(zooms):
        zoom_axes = []
        for d, x in enumerate(point):
            lo_lim = 0.0 if (magnitude_slot and d > 0) else -radius
            a = max(lo_lim, x - 2 * width)
            b = min(radius, x + 2 * width)
            zoom_axes.append(np.linspace(a, b, 33))
        v, p = _sc_eval_grid(frozen, zoom_axes)
        if v < best:
            best, point = v, p
        width = (zoom_axes[0][-1] - zoom_axes[0][0]) / 32
    return best, point


def sc_invertible(frozen: BoundaryOperator, zooms: int = 8) -> ScVerdict:
    """Invertibility of the limit operator of an sc or c_gamma operator p
    at a boundary point: the full symbol of the frozen operator
    `frozen = freeze_coefficients(p)` on the abelian tangent group, a
    constant-coefficient polynomial in the covector (`_symbol_stack` with
    principal=False).  Coefficient polynomials q(lambda) act on
    cross-section modes and have no pointwise value there; they raise.

    |det| of the full symbol is evaluated on a grid over the box
    |xi_j| <= R, where R is the radius beyond which the principal symbol
    floor (`symbol_min_singular`) keeps |det| above _SC_THRESHOLD against
    the lower-order coefficient norms (`tail_envelope` at delta = 0).
    Each of `zooms` rounds re-grids a box of four grid steps around the
    running minimum with 33 points per axis, so the step shrinks eightfold
    per round.  The scan runs at two base resolutions, about 2n/3 and n
    points per axis with n from _SC_AXIS_POINTS; the status is "no"
    when the minimum is at most _SC_THRESHOLD, "yes" above it, and
    "undecided" when the two resolutions disagree, or when there is no
    finite radius to scan."""
    if any(ct.lam_degree for _, co in frozen.terms for ct in co.terms):
        raise FredholmKitError(
            "mode-diagonal coefficient polynomials have no pointwise "
            "boundary value; pre-discretize via a generic cross-section")
    k = frozen.system_size
    mu0 = symbol_min_singular(frozen)
    if mu0 <= 1e-12:
        return ScVerdict("undecided", math.nan, None, math.nan, ())
    coeffs = np.zeros(frozen.order + 1)
    coeffs[frozen.order] = mu0
    for d, w in _collect(frozen.tail_envelope, 0.0).items():
        coeffs[d] -= w
    coeffs[0] -= _SC_THRESHOLD ** (1.0 / k)
    radius = max(1.0, _positive_root(coeffs) * 1.01)
    if math.isinf(radius):
        return ScVerdict("undecided", math.nan, None, radius, ())
    n_axis = _SC_AXIS_POINTS.get(_covector_dim(frozen)[0], 21)
    resolutions = []
    final = None
    for n in (max(5, (2 * n_axis) // 3) | 1, n_axis | 1):
        v, p = _sc_scan(frozen, radius, n, zooms)
        status = "yes" if v > _SC_THRESHOLD else "no"
        resolutions.append((n, v, status))
        final = (v, p, status)
    statuses = {s for _, _, s in resolutions}
    if len(statuses) > 1:
        return ScVerdict("undecided", final[0], final[1], radius, tuple(resolutions))
    v, p, status = final
    witness = p if status == "no" else None
    return ScVerdict(status, v, witness, radius, tuple(resolutions))


# ---------------------------------------------------------------------------
# zero-structure half-space sampling
# ---------------------------------------------------------------------------


def _check_samples(samples: Sequence[float], global_min: float) -> None:
    """Reject sampled smallest singular values that are negative, or whose
    minimum is not global_min."""
    # one reduction; a NaN sample makes the minimum NaN, equal to no global_min
    low = np.fromiter(samples, float, len(samples)).min()
    if low < 0:
        raise ValueError("singular values are nonnegative")
    if not low == global_min:
        raise ValueError("global_min must be the minimum of the samples")


@dataclass(frozen=True)
class HalfSpaceSample:
    """Smallest singular values of a frozen half-space model, one per
    point (T, n, eta) of `half_space_sample`, with one ladder level per
    truncation (T, n).  The samples are validated here."""

    points: tuple[tuple, ...]
    min_singular: tuple[float, ...]
    global_min: float
    argmin: tuple
    ladder: tuple[dict, ...]

    def __post_init__(self):
        _check_samples(self.min_singular, self.global_min)

    def argmin_label(self) -> str:
        return ";".join(f"{x}" for x in self.argmin)

    def as_dict(self) -> dict:
        return {
            "global_min": round12(self.global_min),
            "argmin": self.argmin_label(),
            "ladder": list(self.ladder),
            "samples": len(self.points),
            "caveat": "half-space truncation on flat log-coordinate L2; numerical evidence only",
        }


def _chebyshev_matrix(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev collocation differentiation matrix on [-1, 1], n+1 nodes."""
    if n < 2:
        raise ValueError("need at least 3 collocation nodes")
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[n] = 2.0
    c = c * (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    d = d - np.diag(d.sum(axis=1))
    return d, x


def _halfspace_matrix(frozen: BoundaryOperator, eta: np.ndarray,
                      T: float, n: int) -> np.ndarray:
    """Spectral discretization of the frozen zero-frame operator at
    tangential frequency eta, on sigma = log s in [-T, T] with Dirichlet
    truncation."""
    d, x = _chebyshev_matrix(n)
    d = d / T
    sigma = T * x
    k = frozen.system_size
    size = n + 1
    spatial_total = np.zeros((k * size, k * size), dtype=complex)
    es = np.exp(sigma)
    # the tangential symbol at the frequency es * eta seen at s = e^sigma
    eta_s = es[:, None] * eta
    eta2_s = es ** 2 * float(np.dot(eta, eta))
    for mi, co in frozen.terms:
        mat = np.eye(size, dtype=complex)
        for _ in range(mi.radial):
            mat = d @ mat
        diag = symbol_monomial(MultiIndex(0, mi.cross, mi.laplacian),
                               np.zeros(size), eta_s, eta2_s)
        mat = mat * diag  # scales column j by diag[j]
        for ct in co.terms:
            if ct.lam_degree:
                raise FredholmKitError(
                    "mode-diagonal coefficient polynomials cannot be frozen "
                    "onto the half-space model")
            value = ct.value if _is_matrix(ct.value) else np.array([[ct.value]])
            if value.shape[0] != k:
                value = value[0, 0] * np.eye(k)
            spatial_total += np.kron(value, mat)
    keep = [b * size + i for b in range(k) for i in range(1, size - 1)]
    return spatial_total[np.ix_(keep, keep)]


_HALFSPACE_TRUNCATIONS = ((4.0, 48), (6.0, 72), (8.0, 96))  # (T, n): window [-T, T], n + 1 nodes
_HALFSPACE_ETA = (0.0, 0.5, 1.0, 2.0)  # tangential frequency magnitudes


def half_space_sample(frozen: BoundaryOperator) -> HalfSpaceSample:
    """Smallest singular values of the frozen half-space operator (a
    zero-structure operator after `freeze_coefficients`) across the window
    sizes of _HALFSPACE_TRUNCATIONS and the tangential frequencies of
    _HALFSPACE_ETA.

    The discretization lives on the flat L2 of the log coordinates (the
    window is truncated with Dirichlet ends), so the numbers are evidence
    about the model operator, not a theorem-grade invertibility test; the
    caveat of `HalfSpaceSample.as_dict` says so.
    """
    if frozen.structure.kind is not StructureKind.ZERO:
        raise FredholmKitError("half-space sampling applies to zero-structure "
                               "limit operators")
    dcross = frozen.cross_section.coordinate_count
    vectors: list[np.ndarray] = []
    for magnitude in _HALFSPACE_ETA:
        if dcross == 0:
            vectors.append(np.array([float(magnitude)]))
        else:
            v = np.zeros(dcross)
            v[0] = magnitude
            vectors.append(v)
            if dcross >= 2 and magnitude:
                vectors.append(np.full(dcross, float(magnitude) / math.sqrt(dcross)))
    points = []
    mins = []
    ladder = []
    for T, n in _HALFSPACE_TRUNCATIONS:
        local = []
        for eta in vectors:
            a = _halfspace_matrix(frozen, eta, T, n)
            smin = float(np.linalg.svd(a, compute_uv=False)[-1])
            points.append((T, n, tuple(round12(float(x)) for x in eta)))
            mins.append(smin)
            local.append(smin)
        ladder.append({"T": T, "n": n,
                       "global_min": round12(min(local))})
    i = int(np.argmin(mins))
    return HalfSpaceSample(tuple(points), tuple(mins), float(mins[i]), points[i],
                           tuple(ladder))


# ---------------------------------------------------------------------------
# the decision engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FredholmOptions:
    mode_cutoff: float | None = None
    tau_range: tuple[float, float] = (-10.0, 10.0)
    pts: int = 2001
    empty_boundary: bool = False

    def __post_init__(self):
        if self.mode_cutoff is not None:
            check_cutoff(self.mode_cutoff)
        lo, hi = self.tau_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise FredholmKitError(
                f"tau range must be finite and nonempty, got ({lo}, {hi})")
        if self.pts < 2:
            raise FredholmKitError(f"a line scan needs at least 2 points, got {self.pts}")


@dataclass(frozen=True)
class LimitVerdict:
    orbit: str
    mechanism: str
    status: str  # yes | no | borderline | numerical-evidence
    witness: dict | None
    detail: dict

    def as_dict(self):
        return {
            "orbit": self.orbit,
            "mechanism": self.mechanism,
            "invertible": self.status,
            "witness": self.witness,
            "detail": self.detail,
        }


# the structures whose limit operator is a full symbol on an abelian tangent
# group: the report's mechanism, and the caveat that makes the symbol scan
# numerical evidence only (None where the scan is the criterion)
_SYMBOL_LIMITS = {
    StructureKind.SC: ("sc full symbol on the abelian tangent group", None),
    StructureKind.C_GAMMA: (
        "c_gamma frozen symbol (abelian isotropy)",
        "c_gamma limit operators fall outside the cylindrical and scattering "
        "frames; the symbol test below is numerical evidence, not a criterion"),
}


@dataclass(frozen=True)
class FredholmReport:
    """A verdict with its evidence.  `roots` holds the `RootTable` of
    `indicial_roots` as it is; a report built by hand may hold any
    sequence of roots (readers go through `RootTable.from_roots`)."""

    verdict: str
    delta: float
    convention: str
    elliptic: EllipticityResult
    limit_verdicts: tuple[LimitVerdict, ...]
    roots: Sequence[IndicialRoot]
    safe_weights: tuple[tuple[float, float], ...]
    cutoffs: dict
    caveats: tuple[str, ...]
    structure_kind: str
    cross_section: str
    operator: str
    system_size: int
    order: int

    def __post_init__(self):
        statuses = [lv.status for lv in self.limit_verdicts]
        if self.verdict == VERDICT_FREDHOLM:
            if not self.elliptic.elliptic or any(s != "yes" for s in statuses):
                raise FredholmKitError("inconsistent Fredholm verdict")
        if self.verdict == VERDICT_UNDECIDED:
            if not any(s in ("numerical-evidence", "borderline") for s in statuses):
                raise FredholmKitError(
                    "Undecided verdicts require borderline or numerical evidence")

    def to_dict(self) -> dict:
        """The report as JSON-ready values.  Each root's entry is its
        `as_dict()`, read from the roots' `RootTable` with the numbers of
        every class root rounded in one batch (`round12_all`); no
        `IndicialRoot` is built."""
        table = RootTable.from_roots(self.roots)
        n = len(table.multiplicity)
        nums = round12_all(np.stack([table.tau.real, table.tau.imag,
                                     table.mellin.real, table.mellin.imag]).ravel())
        parts = list(zip(*(nums[col * n:(col + 1) * n] for col in range(4)),
                         table.multiplicity.tolist()))
        return {**self._dict_without_roots(), "indicial_roots": [
            {"mode": table.labels[i], "tau": [t, u], "mellin": [z, w], "multiplicity": m}
            for i, j in table.listed() for t, u, z, w, m in (parts[j],)]}

    def _dict_without_roots(self) -> dict:
        """`to_dict` less its root list, which the JSON renderer writes
        from a template."""
        return {
            "verdict": self.verdict,
            "weight": {"delta": round12(self.delta), "convention": self.convention},
            "operator": {
                "structure": self.structure_kind,
                "cross_section": self.cross_section,
                "order": self.order,
                "system_size": self.system_size,
                "display": self.operator,
            },
            "elliptic": self.elliptic.as_dict(),
            "limit_operators": [lv.as_dict() for lv in self.limit_verdicts],
            "safe_weight_intervals": [[round12(a), round12(b)] for a, b in self.safe_weights],
            "cutoffs": self.cutoffs,
            "caveats": list(self.caveats),
        }


def _root_witness(v: LineVerdict) -> dict | None:
    if v.witness is None:
        return None
    return v.witness.as_dict()


def fredholm_check(p: BoundaryOperator, delta: float = 0.0,
                   opts: FredholmOptions | None = None) -> FredholmReport:
    """Decide Fredholmness of p on the weight-delta scale: ellipticity
    plus invertibility of all limit operators, dispatched by structure.

    b: exact indicial-root test on the line Re(z) = delta, with a
    quantitative tail certificate above the mode cutoff.  sc: symbol scan
    on the abelian tangent group.  zero and c_gamma: numerical evidence
    only, so the verdict is at best Undecided.
    """
    opts = opts or FredholmOptions()
    delta = float(delta)
    if not math.isfinite(delta):
        raise FredholmKitError(f"weight delta must be finite, got {delta}")
    ell = is_elliptic(p)
    caveats = ["verdicts treat the Sobolev order s as irrelevant to "
               "Fredholmness; this convention is surfaced, not tested"]
    if p.symbolic_only:
        caveats.append("operator is flagged symbolic-only: its frame mixes "
                       "scaling types, so verdicts are indicative")
    cutoffs: dict = {}
    roots: Sequence[IndicialRoot] = ()
    safe: tuple[tuple[float, float], ...] = ()
    limit_verdicts: list[LimitVerdict] = []

    if opts.empty_boundary:
        verdict = VERDICT_FREDHOLM if ell.elliptic else VERDICT_NOT
        caveats.append("empty boundary: no limit operators; Fredholmness "
                       "reduces to ellipticity")
        return FredholmReport(
            verdict, delta, WEIGHT_CONVENTION, ell, (), (), (), cutoffs,
            tuple(caveats), p.structure.kind.value, str(p.cross_section),
            str(p), p.system_size, p.order)

    kind = p.structure.kind
    if kind is StructureKind.B:
        nop = normal_operator(p)
        # a floor on a symbol that is not elliptic is rounding noise: no tail
        mu0 = symbol_min_singular(nop) if ell.elliptic else 0.0
        tb = tail_bound(nop, abs(delta), mu0)
        cutoff = opts.mode_cutoff if opts.mode_cutoff is not None else default_mode_cutoff(p)
        needed = tb.lambda_certified * 1.05
        signed = nop.needs_signed_modes()
        tail_fits = (math.isfinite(needed)
                     and mode_count(p.cross_section, needed, signed) <= MODE_BUDGET)
        if tail_fits:
            cutoff = max(cutoff, needed)
        check_cutoff(cutoff)
        # the report states the cutoff to 12 digits and cross_check rebuilds
        # the spectrum from that value, so the engine uses it too
        cutoff = round12(cutoff)
        table = spectrum(p.cross_section, cutoff)
        fam = indicial_family(nop, table)
        w_cert = certified_weight_range(nop, cutoff, mu0)
        try:
            roots = indicial_roots(fam)
        except FredholmKitError as e:
            if ell.elliptic:
                raise
            # the symbol alone decides NotFredholm: keep that verdict, list
            # no roots and no safe weights, and say why
            line = LineVerdict("numerical-evidence", math.inf, None)
            caveats.append(f"{ROOTS_NOT_COMPUTED} ({e}); the verdict "
                           "rests on the failed ellipticity alone")
        else:
            line = normal_invertible(roots, delta)
            safe = tuple(safe_weight_intervals(roots, -w_cert, w_cert))
        cutoffs = {
            "mode_cutoff": cutoff,
            "tail": tb.as_dict(),
            "certified_weight_range": [round12(-w_cert), round12(w_cert)],
        }
        status = line.status
        if ell.elliptic and not tail_fits:
            # a root on the line decides "no" by itself; "yes" needs the tail
            if status == "yes":
                status = "numerical-evidence"
            if math.isfinite(needed):
                why = (f"the mode-tail certificate needs mode cutoff {needed:.6g}, "
                       f"over the budget of {MODE_BUDGET} modes")
            else:
                why = "the mode tail could not be certified at this weight"
            caveats.append(f"{why}; modes above the cutoff {cutoff:.6g} are not certified")
        limit_verdicts.append(LimitVerdict(
            "boundary:0", "b normal operator / indicial roots", status,
            _root_witness(line), line.as_dict()))
        if line.status == "borderline":
            caveats.append("an indicial root sits within 1e-8 of the tested "
                           "line; refusing to guess")
    elif kind is StructureKind.ZERO:
        sample = half_space_sample(freeze_coefficients(p))
        limit_verdicts.append(LimitVerdict(
            "point:x0", "zero half-space model, sampled min singular values",
            "numerical-evidence",
            {"argmin": sample.argmin_label()},
            sample.as_dict()))
        cutoffs = {"halfspace_truncations": [[lv["T"], lv["n"]] for lv in sample.ladder]}
        caveats.append("zero-structure limit operators live on a "
                       "noncommutative group; min-singular-value samples on "
                       "the flat log-coordinate L2 of the model half-space "
                       "are numerical evidence, not a criterion")
    else:  # sc and c_gamma
        mechanism, evidence_only = _SYMBOL_LIMITS[kind]
        sv = sc_invertible(freeze_coefficients(p))
        limit_verdicts.append(LimitVerdict(
            "point:x0", mechanism,
            "numerical-evidence" if evidence_only or sv.status == "undecided" else sv.status,
            {"covector": [round12(x) for x in sv.witness]} if sv.witness else None,
            sv.as_dict()))
        cutoffs = {"sc_search_radius": round12(sv.radius)}
        if evidence_only:
            caveats.append(evidence_only)
        elif sv.status == "undecided":
            caveats.append("sc symbol scan was inconclusive")

    if not ell.elliptic:
        verdict = VERDICT_NOT
    else:
        statuses = [lv.status for lv in limit_verdicts]
        if any(s == "no" for s in statuses):
            verdict = VERDICT_NOT
        elif all(s == "yes" for s in statuses):
            verdict = VERDICT_FREDHOLM
        else:
            verdict = VERDICT_UNDECIDED
    return FredholmReport(
        verdict, delta, WEIGHT_CONVENTION, ell, tuple(limit_verdicts),
        roots, safe, cutoffs, tuple(caveats), p.structure.kind.value,
        str(p.cross_section), str(p), p.system_size, p.order)
