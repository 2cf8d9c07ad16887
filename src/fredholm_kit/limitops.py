"""Limit operators at the boundary: frozen coefficients, indicial families
and full symbols.  Each kind of end has its own plain object, and every
one starts from `freeze_coefficients`.

For the b frame the limit operator is the normal operator, the frozen
`BoundaryOperator` that `normal_operator` returns; it is translation
invariant on the cylinder, and its Fourier transform in t is the indicial
family, one polynomial in tau per row of the `crosssec.channels` table,
held as one coefficient array.  For the sc frame (and
the rescaled c_gamma frames, whose isotropy is likewise abelian) the limit
operator at a boundary point is the constant-coefficient full symbol
`full_symbol(freeze_coefficients(p))` on the tangent group.  For the zero
frame it is the frozen operator itself, read in the half-space frame
{s d/ds, s d/dw_j}; no closed-form invertibility criterion is implemented
for it, only numerical sampling (`numoracle.half_space_sample`).
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
    MultiIndex,
    _cmul,
    _covector_dim,
    _is_matrix,
    _value_norm,
    symbol_monomial,
    symbol_stack,
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
    polynomial at every tau: 0 where P(tau) is exactly singular (tau is a
    root), inf where the trace vanishes.  coeffs is an (m + 1, k, k)
    stack, or a stack that broadcasts against taus as in `matrix_polyval`."""
    p, dp = matrix_polyval(coeffs, taus, derivative=True)
    out = np.zeros(p.shape[:-2], dtype=complex)
    regular = np.linalg.det(p) != 0
    trace = np.trace(np.linalg.solve(p[regular], dp[regular]), axis1=-2, axis2=-1)
    out[regular] = np.divide(1, trace, out=np.full_like(trace, np.inf), where=trace != 0)
    return out


def root_sensitivity(coeffs: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """sum_j |A_j| |tau|^j / |y* P'(tau) x| at every tau, with x and y the
    singular vectors of the smallest singular value of P(tau): the
    first-order distance a simple root there moves per unit relative
    change of the coefficients (inf where the slope y* P' x vanishes).
    coeffs as for `newton_correction`."""
    p, dp = matrix_polyval(coeffs, taus, derivative=True)
    u, _, vh = np.linalg.svd(p)
    slope = np.abs(np.einsum("...j,...jl,...l->...", u[..., -1].conj(), dp, vh[..., -1, :].conj()))
    norms = np.linalg.norm(coeffs, axis=(-2, -1))
    size = sum(norm * np.abs(taus) ** j for j, norm in enumerate(norms))
    return np.divide(size, slope, out=np.full(slope.shape, np.inf), where=slope > 0)


class _ContourError(Exception):
    pass


_RESOLUTIONS = (64, 256, 1024, 4096)  # contour points per box side
_CONTOUR_CHUNK = 2 ** 14  # matrix entries per pass of the coarsest resolution
_UNIT_SEGMENTS = {n: np.linspace(0.0, 1.0, n, endpoint=False)
                  for n in _RESOLUTIONS}


def _contour_counts(coeffs: np.ndarray, boxes, n_side: int) -> list:
    """Boundary winding numbers of det P on the rectangles (x0, x1, y0, y1)
    at n_side points per side, or None for a box this resolution cannot
    settle; all boxes go through one Horner pass of the (m + 1, k, k)
    coefficient stack, or of an (m + 1, len(boxes), 1, k, k) stack that
    gives each box its own polynomial."""
    corners = np.array([[x0 + 1j * y0, x1 + 1j * y0, x1 + 1j * y1, x0 + 1j * y1]
                        for x0, x1, y0, y1 in boxes])
    steps = np.roll(corners, -1, axis=1) - corners
    sides = corners[:, :, None] + steps[:, :, None] * _UNIT_SEGMENTS[n_side]
    path = np.concatenate([sides.reshape(len(boxes), -1), corners[:, :1]], axis=1)
    vals = np.linalg.det(matrix_polyval(coeffs, path))
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


def _winding_counts(coeffs: np.ndarray, boxes, owners=None) -> list[int | None]:
    """Zeros of det P inside each rectangle (x0, x1, y0, y1), counted with
    multiplicity via the boundary winding number.

    coeffs is one (m + 1, k, k) stack for every box or, with owners, an
    (m + 1, B, k, k) batch in which box i belongs to polynomial owners[i].
    All boxes share the coarsest resolution, in passes of at most
    _CONTOUR_CHUNK matrix entries (boxes x contour points x k^2), which
    bounds peak memory.  A box it cannot settle climbs the finer
    resolutions on its own, in box order.  A box that never settles
    counts None, and the later unsettled boxes of its polynomial do not
    climb; with a single stack it raises _ContourError instead.
    """
    if owners is None:
        counts = _winding_counts(coeffs[:, None], boxes, np.zeros(len(boxes), dtype=int))
        if None in counts:
            raise _ContourError
        return counts
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


@dataclass(frozen=True)
class IndicialFamily:
    """Per-mode polynomials in tau obtained from the normal operator by the
    radial substitution (frame radial derivative -> i tau).

    coeffs is one complex array of shape (C, m + 1, k, k): row i holds the
    k x k coefficients of channel i of the table `channels`, ascending in
    the tau power, and every consumer reads slices of it; treat it as
    read-only.  The label-keyed `polys` view stays because the benchmark's
    tracer (perfbench/tracing.py) counts distinct rows through it;
    `det_poly` stays for the singular-leading root path, and the tracer
    wraps it by name."""

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

    def classes(self) -> list[tuple[str, ...]]:
        """Channel labels grouped by identical coefficient arrays, in order
        of first appearance; every label of a class has the same roots."""
        first, class_of = self.class_rows
        groups: list[list[str]] = [[] for _ in first]
        for label, c in zip(self.channels.labels, class_of.tolist()):
            groups[c].append(label)
        return [tuple(g) for g in groups]

    def stack(self, label: str, taus: np.ndarray) -> np.ndarray:
        """The mode polynomial at every tau, as an (n, k, k) stack."""
        return matrix_polyval(self.poly(label), taus)

    def det_poly(self, label: str) -> np.ndarray:
        """Determinant of the mode polynomial, as a scalar polynomial in tau
        (exact for scalars; interpolated for systems, inaccurate at high
        degree, and used for roots only when the leading matrix is singular)."""
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


def _cpow(x: np.ndarray, n: int) -> np.ndarray:
    """x ** n for an integer n >= 1 by CPython's binary powering of a
    complex (c_powu), product for product."""
    out = np.ones_like(x)
    mask = 1
    while mask <= n:
        if n & mask:
            out = _cmul(out, x)
        mask <<= 1
        x = _cmul(x, x)
    return out


def _mode_factors(mi: MultiIndex, chans: ChannelTable) -> list[np.ndarray]:
    """The Laplacian power and the tangential partials of one multi-index
    on every channel, as float or complex arrays to multiply in turn."""
    lams = chans.eigenvalues.tolist()  # Python floats: CPython float powers
    out = []
    if mi.laplacian:
        out.append(np.array([(-lam) ** mi.laplacian for lam in lams]))
    if any(mi.cross):
        factor = np.ones(len(chans), dtype=complex)
        for j, p in enumerate(mi.cross):
            if not p:
                continue
            if chans.vectors is not None:
                factor = _cmul(factor, _cpow(_cmul(1j, chans.vectors[:, j].astype(float)), p))
            elif p % 2 == 0 and len(mi.cross) == 1:
                h = p // 2
                factor = _cmul(factor, (-1.0) ** h * np.array([lam ** h for lam in lams]))
            else:
                raise FredholmKitError(
                    "explicit tangential partials need signed mode channels")
        out.append(factor)
    return out


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
    q(lambda) (-lambda)^l (partials) i^radial is multiplied up in that
    order by CPython's complex product (`_cmul`); the Laplacian
    and unsigned even-partial powers are CPython float powers, element by
    element; the signed partials (i v)^p use CPython's binary powering
    (`_cpow`); and only the product of the factor with a matrix value is
    numpy's, as it was in the loop.
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
    for mi, co in base.terms:
        mode = _mode_factors(mi, chans)
        for ct in co.terms:
            if ct.lam_poly is None:
                factor = np.ones(len(chans), dtype=complex)
            else:  # Horner, as CoeffTerm.lam_value
                factor = np.zeros(len(chans), dtype=complex)
                for c in reversed(ct.lam_poly):
                    factor = _cmul(factor, chans.eigenvalues) + c
            for f in mode:
                factor = _cmul(factor, f)
            factor = _cmul(factor, 1j ** mi.radial)
            if _is_matrix(ct.value):
                coeffs[:, mi.radial] += factor[:, None, None] * ct.value
            else:
                coeffs[:, mi.radial] += _cmul(factor, ct.value)[:, None, None] * eye
    return IndicialFamily(chans, coeffs, table.cutoff, k,
                          base.structure.kind, warning)


@dataclass(frozen=True)
class ScSymbol:
    """Constant-coefficient full symbol on the abelian tangent group
    R x T_x(dM): a polynomial in (xi, eta)."""

    terms: tuple[tuple[MultiIndex, complex | np.ndarray], ...]
    system_size: int
    order: int
    covector_dim: int
    magnitude_slot: bool

    def stack(self, xi: np.ndarray, eta: np.ndarray, eta2: np.ndarray,
              principal: bool = False) -> np.ndarray:
        """The symbol (or its principal part, the terms of top order) at n
        covectors, as an opalg.symbol_stack."""
        pieces = ((symbol_monomial(mi, xi, eta, eta2), value)
                  for mi, value in self.terms
                  if not principal or mi.total == self.order)
        return symbol_stack(pieces, self.system_size, xi.shape[0])

    def eval(self, xi: float, eta=()) -> complex | np.ndarray:
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        v = self.stack(np.array([xi], dtype=float), eta[None, :],
                       np.array([np.dot(eta, eta)]))[0]
        return v if self.system_size > 1 else complex(v)

    def det_at(self, xi: float, eta=()) -> complex:
        v = self.eval(xi, eta)
        return complex(np.linalg.det(v)) if _is_matrix(v) else complex(v)

    def coefficient_norms_by_degree(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for mi, value in self.terms:
            out[mi.total] = out.get(mi.total, 0.0) + _value_norm(value)
        return out


def full_symbol(frozen: BoundaryOperator) -> ScSymbol:
    """Full Fourier symbol of a frozen operator on the abelian tangent
    group: frame radial derivative -> i xi, frame tangential -> i eta_j,
    Laplacian powers -> -|eta|^2."""
    terms = []
    for mi, co in frozen.terms:
        for ct in co.terms:
            if _nu_key(ct.nu) != 0.0:
                raise FredholmKitError("full symbols need frozen coefficients")
            if ct.lam_degree:
                raise FredholmKitError(
                    "mode-diagonal coefficient polynomials have no pointwise "
                    "boundary value; pre-discretize via a generic cross-section")
            terms.append((mi, ct.value))
    d, mag = _covector_dim(frozen)
    return ScSymbol(tuple(terms), frozen.system_size, frozen.order, d, mag)

