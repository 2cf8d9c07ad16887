"""Limit operators at the boundary: frozen coefficients and indicial
families.  Every limit operator is the frozen `BoundaryOperator` that
`freeze_coefficients` returns, read in the frame of its end.

For the b frame it is the normal operator (`normal_operator`); it is
translation invariant on the cylinder, and its Fourier transform in t is
the indicial family, one polynomial in tau per row of the
`crosssec.channels` table, held as one coefficient array.  For the sc
frame (and the rescaled c_gamma frames, whose isotropy is likewise
abelian) the frozen operator acts on the tangent group, and its Fourier
transform there is its full symbol, a constant-coefficient polynomial in
the covector; `fredholm.sc_invertible` scans it through the same term
walker as the principal symbol (`opalg._symbol_stack`).  For the zero
frame it is read in the half-space frame {s d/ds, s d/dw_j}; no
closed-form invertibility criterion is implemented for it, only
numerical sampling (`fredholm.half_space_sample`).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .crosssec import ChannelTable, ModeTable
from .liestruct import FredholmKitError, StructureKind, _nu_key
from .opalg import (
    BoundaryOperator,
    Coefficient,
    _cmul,
    _is_matrix,
    _mode_factor,
)


def freeze_coefficients(p: BoundaryOperator) -> BoundaryOperator:
    """Drop every coefficient monomial r^nu with nu > 0, keeping the
    boundary values a_alpha(0, .)."""
    frozen = []
    for mi, co in p.terms:
        kept = [t for t in co.terms if _nu_key(t.nu) == 0.0]
        if kept:
            frozen.append((mi, Coefficient(kept)))
    if not frozen:
        raise FredholmKitError(
            "every coefficient vanishes at the boundary; the frozen operator "
            "is identically zero")
    return BoundaryOperator(p.structure, p.cross_section, frozen,
                            symbolic_only=p.symbolic_only)


def normal_operator(p: BoundaryOperator) -> BoundaryOperator:
    """The normal operator of a b (or c_gamma) operator: its frozen
    coefficients, translation-invariant in t = log r."""
    if p.structure.kind not in (StructureKind.B, StructureKind.C_GAMMA):
        raise FredholmKitError(
            "normal operators are defined for the b and c_gamma frames; zero "
            "and sc structures freeze to a half-space operator or a full symbol")
    return freeze_coefficients(p)


def matrix_polyval(coeffs: np.ndarray, taus, derivative: bool = False):
    """sum_j coeffs[j] tau^j for every tau, with coeffs of shape
    (m + 1, k, k) ascending in the power: an array of shape
    taus.shape + (k, k), one batched Horner step per coefficient.  A
    coefficient stack of shape (m + 1) + taus.shape + (k, k) gives each
    tau its own polynomial.  With derivative, the pair (P, P') from the
    same pass."""
    t = np.asarray(taus)[..., None, None]
    out = np.zeros(np.broadcast_shapes(t.shape, coeffs.shape[1:]), dtype=np.result_type(coeffs, t))
    slope = np.zeros_like(out) if derivative else None
    for c in coeffs[::-1]:
        if derivative:
            slope = slope * t + out
        out = out * t + c
    return (out, slope) if derivative else out


def newton_correction(coeffs: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """The Newton step det P / (det P)' = 1 / tr(P^-1 P') of the matrix
    polynomial at every tau (`newton_from_values` of one Horner pass).
    coeffs is an (m + 1, k, k) stack, or a stack that broadcasts against
    taus as in `matrix_polyval`."""
    return newton_from_values(*matrix_polyval(coeffs, taus, derivative=True))


def newton_from_values(p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """1 / tr(P^-1 P') for every pair of values P, P' of two (..., k, k)
    stacks, from one batched LU solve: 0 where P is exactly singular (tau
    is a root), inf where the trace vanishes, inf or NaN (no warning) where
    a value overflows.  A 1 x 1 P is singular where it is 0, which the
    exact roots of scalar modes hit often, so those are
    left out of the solve from the start.  A k x k one rarely is: only when
    the solve meets one does a `det` pass find the regular ones, which are
    solved again on their own."""
    out = np.zeros(p.shape[:-2], dtype=complex)
    regular = p[..., 0, 0] != 0 if p.shape[-1] == 1 else ...
    try:
        ratio = np.linalg.solve(p[regular], dp[regular])
    except np.linalg.LinAlgError:
        with np.errstate(over="ignore", invalid="ignore"):  # one past the largest float is not 0
            regular = np.linalg.det(p) != 0
        ratio = np.linalg.solve(p[regular], dp[regular])
    trace = np.trace(ratio, axis1=-2, axis2=-1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out[regular] = np.divide(1, trace, out=np.full_like(trace, np.inf), where=trace != 0)
        if p.shape[-1] == 1:
            # the solve's complex division of subnormal values gives NaN
            redo = np.isnan(out) & (dp[..., 0, 0] != 0)
            out[redo] = p[redo, 0, 0] / dp[redo, 0, 0]
    return out


ROOT_TOL = 1e-7  # relative to max(1, |tau|): the least half-width of a cluster's box
_RESOLUTIONS = (64, 256, 1024, 4096)  # contour points per box side
_CONTOUR_CHUNK = 2 ** 14  # matrix entries per pass of the coarsest resolution
_UNIT_SEGMENTS = {n: np.linspace(0.0, 1.0, n, endpoint=False)
                  for n in _RESOLUTIONS}


def binary_scaled(coeffs: np.ndarray) -> np.ndarray:
    """Each polynomial coeffs[:, b] of an (m + 1, B, k, k) batch times the
    power of two that puts its largest coefficient modulus in [1, 2).  A
    power of two scales without rounding (short of the subnormals), so the
    roots and every ratio of values stay as they are, but neither the
    determinant of a value nor its product with the gaps between roots
    overflows or underflows on the scale of P alone."""
    with np.errstate(over="ignore", invalid="ignore"):  # a modulus past the floats: exponent 0
        shift = (1 - np.frexp(np.max(np.abs(coeffs), axis=(0, 2, 3)))[1])[:, None, None]
    out = np.empty(coeffs.shape, dtype=complex)
    out.real, out.imag = np.ldexp(coeffs.real, shift), np.ldexp(coeffs.imag, shift)
    return out


def _det(stack: np.ndarray) -> np.ndarray:
    """Determinants of a (..., k, k) stack.  A 1 x 1 determinant is read
    directly: np.linalg.det runs LAPACK on each matrix and returns
    sign * exp(log|a|), which need not round back to the entry a."""
    return stack[..., 0, 0] if stack.shape[-1] == 1 else np.linalg.det(stack)


def _contour_counts(coeffs: np.ndarray, boxes, n_side: int) -> list:
    """Boundary winding numbers of det P on the rectangles (x0, x1, y0, y1)
    at n_side points per side, or None for a box this resolution cannot
    settle; all boxes go through one Horner pass of the (m + 1, k, k)
    coefficient stack, or of an (m + 1, len(boxes), 1, k, k) stack that
    gives each box its own polynomial.  The determinants come from `_det`,
    so a scalar polynomial's values are used as they are."""
    x0, x1, y0, y1 = np.array(boxes, dtype=float).T
    corners = np.stack([x0 + 1j * y0, x1 + 1j * y0, x1 + 1j * y1, x0 + 1j * y1], axis=1)
    steps = np.roll(corners, -1, axis=1) - corners
    sides = corners[:, :, None] + steps[:, :, None] * _UNIT_SEGMENTS[n_side]
    path = np.concatenate([sides.reshape(len(boxes), -1), corners[:, :1]], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: unsettled below
        vals = _det(matrix_polyval(coeffs, path))
    absvals = np.abs(vals)
    scale = absvals.max(axis=1)
    low = absvals.min(axis=1)
    # a zero sits on (or hugs) the contour
    unsettled = (scale == 0) | (low < 1e-12 * scale)
    if n_side < _RESOLUTIONS[-1]:
        # a zero hugs the contour; coarse steps can hop over it.  The
        # median is at most the max, so only these rows can qualify
        near = ~unsettled & (low < 1e-6 * scale)
        if near.any():
            unsettled[near] = low[near] < 1e-6 * np.median(absvals[near], axis=1)
    # rows with a zero on the contour are already unsettled; their
    # divisions by zero must not warn
    with np.errstate(divide="ignore", invalid="ignore"):
        dargs = np.angle(vals[:, 1:] / vals[:, :-1])
    total = dargs.sum(axis=1) / (2 * np.pi)
    k = np.round(total)
    # phase steps too coarse to trust, or a count far from an integer (or
    # not finite: an overflowing determinant)
    unsettled |= (np.abs(dargs).max(axis=1) > 1.8) | ~(np.abs(total - k) <= 0.25)
    return [None if u else int(c) for u, c in zip(unsettled, k)]


def _winding_counts(coeffs: np.ndarray, boxes, owners) -> list[int | None]:
    """Zeros of det P inside each rectangle (x0, x1, y0, y1), counted with
    multiplicity via the boundary winding number, one count per box.

    coeffs is an (m + 1, B, k, k) batch in which box i belongs to
    polynomial owners[i].  All boxes share the coarsest resolution, in
    passes of at most _CONTOUR_CHUNK matrix entries (boxes x contour
    points x k^2), which bounds peak memory.  A box it cannot settle
    climbs the finer resolutions on its own, in box order.  A box that
    never settles counts None, and the later unsettled boxes of its
    polynomial do not climb.
    """
    owners = np.asarray(owners)
    k = coeffs.shape[-1]
    per_pass = max(1, _CONTOUR_CHUNK // ((4 * _RESOLUTIONS[0] + 1) * k * k))
    counts = []
    for lo in range(0, len(boxes), per_pass):
        counts += _contour_counts(coeffs[:, owners[lo:lo + per_pass], None],
                                  boxes[lo:lo + per_pass], _RESOLUTIONS[0])
    failed = set()
    for i, box in enumerate(boxes):
        if counts[i] is not None or owners[i] in failed:
            continue
        for n_side in _RESOLUTIONS[1:]:
            counts[i] = _contour_counts(coeffs[:, owners[i:i + 1], None], [box], n_side)[0]
            if counts[i] is not None:
                break
        else:
            failed.add(owners[i])
    return counts


def root_boxes(centers: np.ndarray, half: np.ndarray) -> list[tuple]:
    """Squares (x0, x1, y0, y1) of half-width half around the centers,
    each capped at 0.45 of the distance to the nearest other center so
    that no two overlap."""
    gaps = np.abs(centers[:, None] - centers[None, :]) + np.diag(np.full(centers.size, np.inf))
    half = np.minimum(half, 0.45 * gaps.min(axis=1, initial=np.inf))
    return [(c.real - h, c.real + h, c.imag - h, c.imag + h) for c, h in zip(centers, half)]


def components(touch: np.ndarray) -> np.ndarray:
    """The connected components of the graph of every row b of a boolean
    (B, n, n) adjacency with a true diagonal, as the least index of each
    vertex's component."""
    n = touch.shape[-1]
    label = np.broadcast_to(np.arange(n), touch.shape[:-1])
    while True:
        wider = np.where(touch, label[:, None, :], n).min(axis=2)
        if (wider == label).all():
            return label
        label = wider


def disc_components(points: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """`components` of the discs D(points[b, i], radii[b, i]) that meet."""
    return components(np.abs(points[:, :, None] - points[:, None, :])
                      <= radii[:, :, None] + radii[:, None, :])


_SPLIT = 1e-10  # relative: how far apart points that coincide exactly are moved
_EXTENDED_EPS = float(np.finfo(np.longdouble).eps)  # machine epsilon of a scalar's Horner pass
_EVAL_ROUNDING = 2.0 ** -46  # a system's evaluation error, relative to sum_j ||A_j||_F |z|^j
_QUOTIENT_ROUNDING = 1e-12  # relative: the rounding of a radius's product and quotient


def inclusion_discs(coeffs: np.ndarray, points: np.ndarray):
    """(z, radii, residuals, finite, label): the inclusion discs of det P_b,
    coeffs[:, b] of shape (m + 1, k, k), around approximations points[b]
    of its roots counted with multiplicity.  Exact repeats move apart, the
    t-th by t * _SPLIT * max(1, |z|); where discs meet, clusters are spread
    (`_spread_clusters`) and their discs taken again.  z holds the centers,
    finite[b] whether all radii of b are finite, and label the
    `disc_components`: p discs of one hold exactly p roots."""
    repeat = np.tril(points[:, :, None] == points[:, None, :], -1).sum(axis=2)
    z = points + repeat * _SPLIT * np.maximum(1.0, np.abs(points))
    radii, residuals = _inclusion_radii(coeffs, z)
    label = disc_components(z, radii)
    again = np.flatnonzero(np.isfinite(radii).all(axis=1)
                           & (label != np.arange(z.shape[1])).any(axis=1))
    if again.size:
        z[again] = _spread_clusters(z[again], radii[again])
        radii[again], residuals[again] = _inclusion_radii(coeffs[:, again], z[again])
        label = disc_components(z, radii)
    return z, radii, residuals, np.isfinite(radii).all(axis=1), label


def _det_spread(singular: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """prod_i (s_i + eta) - prod_i s_i over the singular values s of a
    matrix, summed as eta sum_i prod_(j < i) (s_j + eta) prod_(j > i) s_j,
    without cancellation: the bound of Ipsen and Rehman on
    |det(A + E) - det A| for ||E||_2 <= eta."""
    eta = eta[..., None]
    one = np.ones_like(eta)
    before = np.cumprod(np.concatenate([one, singular[..., :-1] + eta], axis=-1), axis=-1)
    after = np.cumprod(np.concatenate([one, singular[..., :0:-1]], axis=-1), axis=-1)[..., ::-1]
    return eta[..., 0] * np.sum(before * after, axis=-1)


def _inclusion_radii(coeffs: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(radii, residuals) at distinct points z[b] of det P_b, one per root
    counted with multiplicity, for polynomials coeffs[:, b] of shape
    (m + 1, k, k): the radius n |W_i| of the inclusion disc of every point
    and the computed |det P_b(z_i)|.

    W_i = det P(z_i) / (det A_m prod_(j != i) (z_i - z_j)) is the
    Weierstrass correction.  The matrix diag(z) - W 1^T has the
    characteristic polynomial det P / det A_m, and its Gerschgorin discs
    D(z_i - W_i, (n - 1) |W_i|) lie in D(z_i, n |W_i|): a connected
    component of p of these discs holds exactly p roots of det P
    (Braess-Hadeler; Carstensen, Numer. Math. 59 (1991)).  |det P(z_i)|
    takes a rounding allowance so that this holds for computed values:
    for a system, `_det_spread` of the singular values of the computed
    P(z_i) at eta = _EVAL_ROUNDING sum_j ||A_j||_F |z_i|^j, which covers
    the Horner pass, the LU factorization and the singular values (det A_m
    takes off its own); for a scalar, evaluated in extended precision,
    4 m eps sum_j |a_j| |z_i|^j, eps the machine epsilon of np.longdouble.
    The radius takes _QUOTIENT_ROUNDING more, relative, for the product
    and the quotient.  A radius is inf or NaN, without a warning, where a
    value or the product overflows or det A_m is within its allowance of 0."""
    m, k = coeffs.shape[0] - 1, coeffs.shape[-1]
    # P scaled exactly, so that its scale alone overflows nothing
    coeffs = binary_scaled(coeffs)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        stack = coeffs[:, :, None]
        values = matrix_polyval(stack, z)
        residuals = np.abs(_det(values))
        # Frobenius norms that neither overflow nor underflow
        norms = np.hypot.reduce(np.abs(coeffs).reshape(*coeffs.shape[:2], k * k), axis=-1)
        size = np.polynomial.polynomial.polyval(np.abs(z), norms[:, :, None], tensor=False)
        lead = np.abs(_det(coeffs[-1]))
        if k == 1:
            dets = np.abs(matrix_polyval(stack.astype(np.clongdouble), z)[..., 0, 0]).astype(float)
            dets += 4 * m * _EXTENDED_EPS * size
        else:
            finite = np.isfinite(values).all(axis=(-2, -1))
            singular = np.full(values.shape[:-1], np.inf)
            singular[finite] = np.linalg.svd(values[finite], compute_uv=False)
            dets = residuals + _det_spread(singular, _EVAL_ROUNDING * size)
            lead = np.maximum(lead - _det_spread(np.linalg.svd(coeffs[-1], compute_uv=False),
                                                 _EVAL_ROUNDING * norms[-1]), 0.0)
        gaps = z[:, :, None] - z[:, None, :]
        gaps[:, np.arange(z.shape[1]), np.arange(z.shape[1])] = 1.0
        bound = lead[:, None] * np.abs(gaps.prod(axis=2))
        radii = (z.shape[1] * (1 + _QUOTIENT_ROUNDING)) * dets / bound
    radii[np.isinf(bound)] = np.inf  # a product past the largest float bounds nothing
    return radii, residuals


def _spread_clusters(z: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """z with the points of every cluster moved onto a circle around their
    mean, so that its inclusion discs come out tight.  rho_q(i) =
    (|W_i| d_1 ... d_(q-1))^(1/q), d_t the distance from z_i to its t-th
    nearest point, estimates the radius within which |det P| keeps its
    size at z_i if z_i belongs with its q - 1 nearest points (|W_i| grows
    as the points of a p-fold root close in).  Point i takes the least q
    whose next point lies beyond 4 rho_q (1 + n / q); points so linked,
    either way, form a cluster.  Its p points go onto the circle of radius
    2 rho_p (the largest over its points, and at least their spread)
    around their mean, at angles 2 pi (j + 1/2) / p, where the cluster's
    discs reach about 2 rho_p (1 + n / p).  Any distinct points give valid
    discs; these give tight ones."""
    z = z.copy()
    n = z.shape[1]
    q = np.arange(1, n + 1)
    dist = np.abs(z[:, :, None] - z[:, None, :])
    order = np.argsort(dist, axis=2)  # the point itself first
    near = np.take_along_axis(dist, order, axis=2)
    rho = np.cumprod(np.concatenate([radii[:, :, None] / n, near[:, :, 1:]], axis=2),
                     axis=2) ** (1 / q)
    beyond = np.concatenate([near[:, :, 1:], np.full(near.shape[:2] + (1,), np.inf)], axis=2)
    size = np.argmax(beyond > 4 * rho * (1 + n / q), axis=2) + 1
    link = np.take_along_axis(np.arange(n) < size[:, :, None], np.argsort(order, axis=2), axis=2)
    label = components(link | link.swapaxes(1, 2))
    for b, row in enumerate(label):
        for lead in np.flatnonzero(np.bincount(row, minlength=n) > 1):
            g = np.flatnonzero(row == lead)
            center = z[b, g].mean()
            reach = max(np.max(rho[b, g, g.size - 1]), np.max(np.abs(z[b, g] - center)))
            z[b, g] = center + 2 * reach * np.exp(2j * np.pi * (np.arange(g.size) + 0.5) / g.size)
    return z


def cluster_counts(coeffs: np.ndarray, points: np.ndarray, radii: np.ndarray,
                   polys) -> dict[int, tuple[list, list, list]]:
    """b -> (parts, boxes, counts) for every b of polys: parts are the
    `disc_components` of the discs D(points[b, i], radii[b, i]) around
    approximations of the roots of det P_b, coeffs[:, b] of shape
    (m + 1, k, k), as index arrays in order of least member.  A component
    of more than one disc is a cluster; its box is a square around the
    mean of its points that holds all its discs, at least
    ROOT_TOL * max(1, |mean|) in half-width and capped by `root_boxes`,
    and its count the zeros of det P_b there (None if it does not
    settle), from one `_winding_counts` call for all boxes on the
    `binary_scaled` polynomials, whose determinants on a box neither
    overflow nor underflow on the scale of P alone."""
    out = {}
    for b, label in zip(polys, disc_components(points[polys], radii[polys])):
        parts = [np.flatnonzero(label == c) for c in np.flatnonzero(label == np.arange(label.size))]
        centers = np.array([points[b, g].mean() for g in parts])
        reach = [np.max(np.abs(points[b, g] - c) + radii[b, g]) for g, c in zip(parts, centers)]
        half = np.maximum(ROOT_TOL * np.maximum(1.0, np.abs(centers)), reach)
        out[b] = parts, [box for g, box in zip(parts, root_boxes(centers, half)) if g.size > 1]
    owners = [i for i, (_, boxes) in enumerate(out.values()) for _ in boxes]
    counts = iter(_winding_counts(binary_scaled(coeffs[:, list(out)]),
                                  [box for _, boxes in out.values() for box in boxes], owners))
    return {b: (parts, boxes, [next(counts) for _ in boxes]) for b, (parts, boxes) in out.items()}


@dataclass(frozen=True)
class IndicialFamily:
    """Per-mode polynomials in tau obtained from the normal operator by the
    radial substitution (frame radial derivative -> i tau).

    coeffs is one complex array of shape (C, m + 1, k, k): row i holds the
    k x k coefficients of channel i of the table `channels`, ascending in
    the tau power, and every consumer reads slices of it; treat it as
    read-only.  The label-keyed `polys` view stays because the benchmark's
    tracer (perfbench/tracing.py) counts distinct rows through it.
    `det_poly` is no root path: it stays only as a reference for tests and
    because the tracer wraps it by name."""

    channels: ChannelTable
    coeffs: np.ndarray
    source_cutoff: float
    system_size: int
    structure_kind: StructureKind
    warning: str | None = None

    @cached_property
    def polys(self) -> Mapping[str, np.ndarray]:
        """Read-only label -> coefficient row view, built on first use."""
        return MappingProxyType(dict(zip(self.channels.labels, self.coeffs)))

    def poly(self, label: str) -> np.ndarray:
        return self.polys[label]

    @cached_property
    def class_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, class_of): the row of the first channel of every class
        of byte-identical coefficient rows, in order of first appearance,
        and the class of every channel.  Rows that differ only in the sign
        of a zero are two classes."""
        flat = np.ascontiguousarray(self.coeffs).reshape(len(self.channels),
                                                         math.prod(self.coeffs.shape[1:]))
        keys = flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return first[order], rank[inverse.ravel()]

    def stack(self, label: str, taus: np.ndarray) -> np.ndarray:
        """The mode polynomial at every tau, as an (n, k, k) stack."""
        return matrix_polyval(self.poly(label), taus)

    def det_poly(self, label: str) -> np.ndarray:
        """Determinant of the mode polynomial, as a scalar polynomial in tau
        (exact for scalars; interpolated for systems, inaccurate at high
        degree).  Nothing in the kit takes roots from it."""
        coeffs = self.poly(label)
        if self.system_size == 1:
            return coeffs[:, 0, 0].copy()
        deg = (coeffs.shape[0] - 1) * self.system_size
        xs = np.arange(deg + 1, dtype=float) - deg / 2.0
        ys = np.linalg.det(self.stack(label, xs))
        return np.polynomial.polynomial.polyfit(xs, ys, deg).astype(complex)

    def shifted(self, delta: float) -> "IndicialFamily":
        """The family evaluated at tau - i delta, as exact polynomials."""
        w = -1j * float(delta)
        out = np.zeros_like(self.coeffs)
        for m in range(self.coeffs.shape[1]):
            # each power's rows made contiguous, as one channel's array was
            cm = np.ascontiguousarray(self.coeffs[:, m])
            wp = 1.0 + 0j
            for d in range(m + 1):
                out[:, m - d] = out[:, m - d] + cm * (math.comb(m, d) * wp)
                wp = wp * w
        return replace(self, coeffs=out)


def indicial_family(base: BoundaryOperator, table: ModeTable) -> IndicialFamily:
    """Fourier transform of the normal operator `base` (as `normal_operator`
    returns it) in the cylinder direction: per mode of eigenvalue lambda,
    substitute the radial frame derivative by i tau, Laplacian powers by
    -lambda, tangential partials by the signed frequencies.

    Mode-diagonal coefficients are the only tangential dependence the
    algebra admits, so the family is block-diagonal by construction;
    anything else must be pre-discretized as a generic cross-section.

    The (C, m + 1, k, k) array, in channel order, is filled by one numpy
    pass per frozen (multi-index, coefficient term) over the eigenvalue
    and frequency arrays of the channel table, each added into
    coeffs[:, radial] in term order.  Every coefficient equals, bit for
    bit, the one a channel-by-channel Python loop gives: the factor
    q(lambda) (-lambda)^l (partials) of `opalg._mode_factor`, the same
    one `BoundaryOperator.apply` uses, times i^radial by CPython's complex
    product (`_cmul`); only the product of the factor with a matrix value
    is numpy's, as it was in the loop.
    """
    chans = base.mode_channels(table)
    k = base.system_size
    warning = None
    if base.structure.kind is StructureKind.C_GAMMA:
        warning = ("c_gamma frame: the indicial substitution is formal; "
                   "no invertibility criterion is attached to it here")
    deg = max(mi.radial for mi, _ in base.terms)
    coeffs = np.zeros((len(chans), deg + 1, k, k), dtype=complex)
    eye = np.eye(k)
    # a coefficient past the largest float is inf or NaN: the roots refuse it
    with np.errstate(over="ignore", invalid="ignore"):
        for mi, co in base.terms:
            for ct in co.terms:
                factor = _cmul(_mode_factor(ct.lam_poly, mi.cross, mi.laplacian, chans),
                               1j ** mi.radial)
                if _is_matrix(ct.value):
                    coeffs[:, mi.radial] += factor[:, None, None] * ct.value
                else:
                    coeffs[:, mi.radial] += _cmul(factor, ct.value)[:, None, None] * eye
    return IndicialFamily(chans, coeffs, table.cutoff, k,
                          base.structure.kind, warning)
