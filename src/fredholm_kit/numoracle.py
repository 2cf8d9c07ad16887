"""Numerical cross-checks of the symbolic verdicts.

The oracle shares with the decision engine only the disc theorem with
its rounding allowance (`limitops.inclusion_discs`: a connected component
of p discs holds exactly p roots) and the step from discs to counted
clusters (`limitops.cluster_counts`); its points, cluster centers,
matching of the report and line scans are its own.  Where the engine
resolves the eigenvalues of a mode's companion matrix
(`fredholm._resolve_roots`), the oracle re-finds the roots of det P by
Aberth-Ehrlich iteration on tr(P^-1 P'), and takes the discs of its
iterates, one determinant per root.  As a verification method does
(Rump, Acta Numerica 19 (2010)), `cross_check` starts the iteration next
to the roots the report claims, and on the circles of the tropical roots
of the norms ||A_j|| (the Newton polygon of log ||A_j||) wherever the
report claims fewer roots than the polynomial has, or a root past
Fujiwara's bound on the roots.  A claim only says
where to look: every start takes at least one step, and the disc theorem
holds for any distinct points (Carstensen, Numer. Math. 59 (1991)), so
a wrong claim costs steps, never a wrong pass.  A
component of one disc is a simple root.  A cluster, a component of more
(a multiple root, or roots closer than rounding lets det P resolve), has
its count confirmed by the winding number of det P around one box, and
its center is a contour moment.  Line verdicts are confirmed by scanning
smallest singular values of the indicial family on the tested line.

The oracle solves all mode classes of a family in one batch per
polynomial shape (m + 1, k, k): one stacked SVD for the floor on the
leading coefficients, one Aberth-Ehrlich iteration over every iterate of
every polynomial, one pass of inclusion discs, and one winding count
over the boxes of every cluster.  One step of the iteration is one
batched product of the power rows [1, z, ..., z^m] and their derivative
rows against the coefficients, for P and P' at every iterate of every
polynomial with an iterate still moving, and one batched LU solve for
the Newton corrections of the moving iterates.  Each stage reports one
(roots, failure) pair per polynomial, so a polynomial that fails any of
these fails alone, with the message it would give on its own, and its
neighbours' roots stay bit-identical.  The winding count runs in passes
of at most `limitops._CONTOUR_CHUNK` matrix entries, which bounds peak
memory.  A 1x1 determinant, on a contour or at a root, is the entry
itself (`limitops._det`), not a LAPACK call per point.  The found roots
are matched against the report once per class and reported root list:
channels that share both take one result.

A line scan reads the coarser levels of its resolution ladder off its
finest grid as strided subsets, and the ledger reads only each level's
minimum and argmin.  Those it finds exactly, bit for bit as a full
evaluation of every class at every point would, but it computes
sigma_min only at the (class, point) pairs that a rigorous lower bound
on the computed value cannot rule out.  A pair is ruled out when its
bound exceeds U, the least value computed at the anchors (every 64th
point and the last, which lie on every level).  At
a point, Weyl's inequality bounds sigma_min(P(tau)) below by
|d(tau)| - sum_j ||A_j - d_j I|| |tau|^j, with d_j = tr(A_j) / k; between
two anchors, the Lipschitz bound of Piyavskii and Shubert reads the
class's anchor values and L = sum_j j ||A_j|| R^(j-1).  A rounding
allowance of 1e-12 sum_j ||A_j|| |tau|^j per computed value makes both
bounds hold for computed values.  The full samples, for `--scan-csv`,
are computed only when read, by the same evaluator.  The bounds read
only the class's own coefficients, none of the engine's machinery."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from ._util import round12
from .crosssec import spectrum
# half_space_sample is unused here; perfbench/tracing.py wraps it under this module's name
from .fredholm import (ROOTS_NOT_COMPUTED, FredholmOptions, RootTable, _check_samples,
                       half_space_sample, sc_invertible)
from .liestruct import FredholmKitError, StructureKind
from .limitops import (
    ROOT_TOL,
    IndicialFamily,
    _det,
    binary_scaled,
    cluster_counts,
    freeze_coefficients,
    inclusion_discs,
    indicial_family,
    matrix_polyval,
    newton_correction,
    newton_from_values,
    normal_operator,
    root_boxes,
)
from .opalg import BoundaryOperator, _symbol_stack

_YES_FLOOR = 1e-4   # scan minima above this confirm "yes"
_NO_CEILING = 1e-6  # scan minima below this confirm "no"
_SCAN_CHUNK = 1 << 13  # matrix entries per chunk of a scan's evaluation: 512 4x4 pairs


# ---------------------------------------------------------------------------
# scan results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanResult:
    """A line scan (`scan_line`): points hold the finest grid of tau, and
    each ladder level is a strided subset of it, so the global minimum is
    monotone under refinement.  The scan finds its minima without the
    samples at every point; `samples` computes them when `min_singular` is
    first read (for the CSV), and they are validated then."""

    points: tuple[float, ...]
    samples: Callable[[], np.ndarray]
    global_min: float
    argmin: float
    ladder: tuple[dict, ...]

    @cached_property
    def min_singular(self) -> tuple[float, ...]:
        values = tuple(self.samples().tolist())
        _check_samples(values, self.global_min)
        return values

    def to_csv(self) -> str:
        lines = ["point,minSingular"]
        lines += [f"{p:.12g},{v:.12g}" for p, v in zip(self.points, self.min_singular)]
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


# ---------------------------------------------------------------------------
# weight-line scans
# ---------------------------------------------------------------------------


_ROUNDING = 1e-12  # allowance, relative to sum_j ||A_j|| |tau|^j, for the computed sigma_min
_ANCHOR_STRIDE = 64  # finest-grid points between the anchors of a bounded line scan
_PAIR_BATCH = 1 << 13  # (class, point) pairs expanded at once from the open intervals


def _norm_terms(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, w, size) of an (..., m + 1, k, k) stack, each with the power
    first: d_j = tr(A_j) / k, w_j = ||A_j - d_j I||_2 + 1e-12 ||A_j||_2 and
    size_j = ||A_j||_2."""
    k = coeffs.shape[-1]
    d = np.trace(coeffs, axis1=-2, axis2=-1) / k
    if k == 1:  # a 1x1 norm is the modulus, and the spread is 0
        size = np.abs(d)
        return d.T, (_ROUNDING * size).T, size.T
    size = np.linalg.norm(coeffs, 2, axis=(-2, -1))
    spread = np.linalg.norm(coeffs - d[..., None, None] * np.eye(k), 2, axis=(-2, -1))
    return d.T, (spread + _ROUNDING * size).T, size.T


def _weyl_bound(d: np.ndarray, w: np.ndarray, taus: np.ndarray,
                tensor: bool = False) -> np.ndarray:
    """|d(tau)| - w(|tau|) for the coefficient columns d and w of
    `_norm_terms`: at every tau for one column, at each tau for its own
    column, or with tensor, at every tau for every column (one row each)."""
    polyval = np.polynomial.polynomial.polyval
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(polyval(taus, d, tensor)) - polyval(np.abs(taus), w, tensor)


def _weyl_lower_bound(coeffs: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """A lower bound on the computed smallest singular value of
    P(tau) = sum_j A_j tau^j at every tau, for an (m + 1, k, k) stack.

    With d_j = tr(A_j) / k and d(tau) = sum_j d_j tau^j, Weyl's inequality
    gives sigma_min(P) >= |d(tau)| - sum_j ||A_j - d_j I||_2 |tau|^j.  The
    bound also subtracts 1e-12 * sum_j ||A_j||_2 |tau|^j, far more than the
    Horner evaluation and the backward-stable SVD can move the computed
    value, so the computed value is never below the bound.  inf - inf
    gives NaN, which callers must read as "no bound"."""
    d, w, _ = _norm_terms(coeffs)
    return _weyl_bound(d, w, taus)


def _pair_min_singular(reps: np.ndarray, classes: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """The computed smallest singular value of P_c(tau) for every pair
    (classes[i], taus[i]), with reps the (C, m + 1, k, k) class stack.

    A system takes a batched Horner step (`matrix_polyval`) and one
    stacked SVD per chunk of _SCAN_CHUNK matrix entries, a scalar
    |Horner|; each value is the one that evaluator gives at that point
    alone, bit for bit, wherever the pair sits in the batch.  An
    overflowing value is kept: inf for a scalar, NaN from a system's SVD."""
    k = reps.shape[-1]
    chunk = _SCAN_CHUNK // (k * k)
    out = np.empty(taus.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, taus.shape[0], chunk):
            c, t = classes[lo:lo + chunk], taus[lo:lo + chunk]
            if k == 1:
                vals = np.polynomial.polynomial.polyval(t, reps[c, :, 0, 0].T, tensor=False)
                out[lo:lo + chunk] = np.abs(vals)
            else:
                stack = matrix_polyval(np.moveaxis(reps[c], 0, 1), t)
                out[lo:lo + chunk] = np.linalg.svd(stack, compute_uv=False)[:, -1]
    return out


def _family_min_singular(f: IndicialFamily, taus: np.ndarray) -> np.ndarray:
    """min over distinct mode polynomials of the smallest singular value
    at every complex tau: the full samples of a line scan.

    A system class is evaluated only at the points where its
    `_weyl_lower_bound` does not exceed the running minimum: elsewhere the
    computed value is at least the bound, so it could not lower the
    minimum, and every returned value is the one an SVD at every point of
    every class would give, bit for bit."""
    reps = f.coeffs[f.class_rows[0]]
    out = np.full(taus.shape, np.inf)
    for c in range(reps.shape[0]):
        if f.system_size == 1:
            todo = np.arange(taus.shape[0])
        else:  # a NaN bound is no bound: those points are evaluated
            todo = np.flatnonzero(~(_weyl_lower_bound(reps[c], taus) > out))
        vals = _pair_min_singular(reps, np.full(todo.shape, c), taus[todo])
        out[todo] = np.minimum(out[todo], vals)
    return out


def _ruled_out(bound: np.ndarray, ceiling: float) -> np.ndarray:
    """Where a lower bound proves the computed value above the ceiling: a
    finite bound above it.  A NaN or infinite bound proves nothing."""
    return np.isfinite(bound) & (bound > ceiling)


def _bounded_line_min(reps: np.ndarray, taus: np.ndarray, stride: int) -> np.ndarray:
    """Per point of a line scan, the least computed sigma_min over the
    classes evaluated there (inf where none is): equal to the full sample
    wherever that sample is at most U, and above U elsewhere.

    U is the least value computed at the anchors, every stride-th point
    and the last.  The stride is a multiple of every ladder level's, so
    the anchors lie on every level and U is at or above each level's
    minimum; a level's minimum and the points attaining it are therefore
    those of the full samples.  A (class, point) pair is evaluated unless
    a finite lower bound on its computed value exceeds U:

    - at an anchor, `_weyl_lower_bound` (a scalar is evaluated outright);
      the class with the lowest bound is evaluated first, to set U;
    - inside the interval between anchors a and b, the Lipschitz bound of
      Piyavskii and Shubert, (v(a) + v(b) - L |b - a|) / 2, with v the
      class's value (or bound) at the anchors and
      L = sum_j j ||A_j|| R^(j-1), R = max(|tau_a|, |tau_b|), a Lipschitz
      constant of sigma_min(P(tau)) on the segment; it subtracts
      2e-12 sum_j ||A_j|| R^j for the rounding of the three computed
      values, as `_weyl_lower_bound` does for one.  A point the interval
      bound keeps must still pass its own Weyl bound.

    A value that overflows has a non-finite bound, so every NaN sample is
    evaluated."""
    (n_cls, n_coef), n = reps.shape[:2], taus.shape[0]
    scalar = reps.shape[-1] == 1
    d, w, size = _norm_terms(reps)
    anchors = np.minimum(np.arange(0, n - 1 + stride, stride), n - 1)
    n_anc = anchors.shape[0]
    classes, points = np.repeat(np.arange(n_cls), n_anc), np.tile(anchors, n_cls)
    if scalar:  # a scalar's value is its own bound
        vals = _pair_min_singular(reps, classes, taus[points])
        done = np.ones(vals.shape, dtype=bool)
    else:
        vals = _weyl_bound(d, w, taus[anchors], tensor=True).ravel()
        lowest = np.argmin(vals.reshape(n_cls, n_anc), axis=0) * n_anc + np.arange(n_anc)
        vals[lowest] = _pair_min_singular(reps, classes[lowest], taus[anchors])
        done = ~_ruled_out(vals, np.min(vals[lowest]))
        done[lowest] = False
        vals[done] = _pair_min_singular(reps, classes[done], taus[points[done]])
        done[lowest] = True
    ceiling = np.min(vals[done])
    best = np.full(n, np.inf)
    best[anchors] = np.where(done, vals, np.inf).reshape(n_cls, n_anc).min(axis=0)
    # one row per class, one column per interval between anchors
    vals = vals.reshape(n_cls, n_anc)
    radius = np.maximum(np.abs(taus[anchors[:-1]]), np.abs(taus[anchors[1:]]))
    width = (taus[anchors[1:]] - taus[anchors[:-1]]).real
    polyval = np.polynomial.polynomial.polyval
    lipschitz = polyval(radius, np.arange(1, n_coef)[:, None] * size[1:]) if n_coef > 1 else 0.0
    rounding = 2 * _ROUNDING * polyval(radius, size)
    bound = (vals[:, :-1] + vals[:, 1:] - lipschitz * width) / 2 - rounding
    cls, interval = np.nonzero(~_ruled_out(bound, ceiling))
    inner = anchors[interval + 1] - anchors[interval] - 1
    step = max(1, _PAIR_BATCH // stride)
    for lo in range(0, cls.shape[0], step):
        counts = inner[lo:lo + step]
        pair_cls = np.repeat(cls[lo:lo + step], counts)
        # the inner points a + 1, ..., b - 1 of each open interval, end to end
        pair_pts = (np.repeat(anchors[interval[lo:lo + step]] + 1 + counts - np.cumsum(counts),
                              counts) + np.arange(pair_cls.shape[0]))
        if not scalar:
            bound = _weyl_bound(d[:, pair_cls], w[:, pair_cls], taus[pair_pts])
            keep = ~_ruled_out(bound, ceiling)
            pair_cls, pair_pts = pair_cls[keep], pair_pts[keep]
        np.minimum.at(best, pair_pts, _pair_min_singular(reps, pair_cls, taus[pair_pts]))
    return best


def scan_line(f: IndicialFamily, delta: float, trange=(-10.0, 10.0),
              pts: int = 2001, refinements: int = 2) -> ScanResult:
    """Scan the family along tau - i delta on nested grids over trange.

    Ladder level j is every 2**(refinements - j)-th point of the finest
    grid, which is bit for bit the linspace grid of that level because
    halving a linspace step is exact.  Each level's minimum and argmin,
    and the scan's, are those of a full evaluation of every class at
    every point, bit for bit, but `_bounded_line_min` evaluates only the
    (class, point) pairs that a lower bound cannot rule out, a few hundred
    of the 8,001 points per class of a default scan.  The full samples
    (`ScanResult.min_singular`, the CSV) are computed on first use, by
    `_family_min_singular`.  A NaN value (an overflowing system) fails the
    scan at the first such point.
    """
    if pts < 2:
        raise ValueError("need at least two scan points")
    if refinements < 0:
        raise ValueError("refinements must be nonnegative")
    a, b = float(trange[0]), float(trange[1])
    if not b > a:
        raise ValueError("scan range must be nondegenerate")
    grid = np.linspace(a, b, (pts - 1) * 2 ** refinements + 1)
    taus = grid - 1j * delta
    stride = max(_ANCHOR_STRIDE, 2 ** refinements)
    # an overflowing value is kept: inf for a scalar, NaN from a system's SVD
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _bounded_line_min(f.coeffs[f.class_rows[0]], taus, stride)
    if np.isnan(vals).any():
        tau = taus[np.isnan(vals).argmax()]
        raise FredholmKitError(f"line scan overflows at tau={tau:.6g}; use a narrower --tau-range")
    ladder = []
    for level in range(refinements, -1, -1):
        g, v = grid[::2 ** level], vals[::2 ** level]
        i = int(np.argmin(v))
        ladder.append({"points": g.shape[0], "global_min": round12(float(v[i])),
                       "argmin_tau": round12(float(g[i]))})
    i = int(np.argmin(vals))
    return ScanResult(tuple(grid.tolist()), lambda: _family_min_singular(f, taus),
                      float(vals[i]), float(grid[i]), tuple(ladder))


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------


_ABERTH_STEPS = 100  # iterations before the iterates are taken as they stand
_START_OFFSET = 1e-6  # relative: how far a start sits from the claimed root it seeds
_UNIT_CIRCLE = np.exp(2j * np.pi * np.arange(64) / 64)  # moment quadrature nodes


def brute_roots(coeffs) -> list[tuple[complex, int, float]]:
    """Roots of det P for a matrix polynomial P, independent of the
    engine's companion matrices: the batch of one of `_brute_roots_batch`,
    which `cross_check` runs on all classes of a family at once (Aberth
    iteration, inclusion discs, and winding counts on clusters only).

    coeffs is a scalar coefficient row or an (m + 1, k, k) stack, ascending
    in the power.  Returns (root, multiplicity, residual) triples, one per
    connected component of the inclusion discs: a simple root, or a
    cluster of as many roots as its multiplicity, centered at their mean.
    The residual is |det| at the root of P(2^e sigma) scaled by the power
    of two that puts its largest coefficient modulus in [1, 2)
    (`_brute_roots_batch`).  Raises
    FredholmKitError when the roots cannot be found or confirmed.
    """
    (roots, failure), = _brute_roots_batch([coeffs])
    if failure is not None:
        raise FredholmKitError(failure)
    return [root[:3] for root in roots]


def _brute_roots_batch(polys, near: np.ndarray | None = None) -> list[tuple[list | None, str | None]]:
    """`brute_roots` of many matrix polynomials at once, as (roots, None)
    or (None, failure detail) per polynomial, in order.  Each root is a
    (center, multiplicity, residual, discs) tuple, discs holding the
    (point, radius) pairs of its component of inclusion discs.

    near, if given, says where to look: row i holds claimed roots of
    polys[i], one per root counted with multiplicity, padded with NaN.
    The first n finite ones of a polynomial of n roots seed its iteration
    where they lie within Fujiwara's bound (`_brute_roots_group`); the
    rest of its starts stay tropical.

    The polynomials are trimmed of exact zero top coefficients.  Each
    takes tau = 2^e sigma, with 2^e the power of two nearest to
    (|A_0| / |A_m|)^(1/m) (largest entries; e = 0 when A_0 = 0), so that
    its end coefficients are of one size and the floor below does not
    depend on the scale of tau.  The polynomials in sigma are scaled by
    the power of two that puts their largest coefficient modulus in
    [1, 2) (`limitops.binary_scaled`) and grouped by shape (m + 1, k, k).
    Each group takes one stacked SVD for the floor of 1e-14, relative to
    that largest modulus, on the smallest singular value of its leading
    coefficients and runs as one batch.  Powers of two scale exactly, so
    a multiple root stays one and the roots map back to tau without
    rounding.  A failure fails only its own polynomial, with the detail
    `brute_roots` raises for it alone."""
    out: list = [([], None) for _ in polys]  # a constant has no roots
    groups: dict[tuple, list] = {}
    for i, coeffs in enumerate(polys):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim == 1:
            coeffs = coeffs[:, None, None]
        n = coeffs.shape[0]
        while n > 1 and not coeffs[n - 1].any():
            n -= 1
        if n > 1:
            groups.setdefault((n, coeffs.shape[-1]), []).append((i, coeffs[:n]))
    for (n, _), members in groups.items():
        index = np.array([i for i, _ in members])
        coeffs = np.stack([c for _, c in members], axis=1)
        ends = np.max(np.abs(coeffs[[0, -1]]), axis=(2, 3))
        with np.errstate(divide="ignore"):
            ratio = np.log2(ends[0]) - np.log2(ends[1])
        e = np.rint(np.where(ends[0] > 0, ratio, 0.0) / (n - 1)).astype(int)
        shift = (np.arange(n)[:, None] * e)[:, :, None, None]
        scaled = np.empty_like(coeffs)
        scaled.real, scaled.imag = np.ldexp(coeffs.real, shift), np.ldexp(coeffs.imag, shift)
        coeffs = binary_scaled(scaled)
        top = np.max(np.abs(coeffs), axis=(0, 2, 3))
        floor = np.linalg.svd(coeffs[-1], compute_uv=False)[:, -1]
        low = floor < 1e-14 * top
        for i in index[low]:
            out[i] = (None, "leading coefficient below 1e-14")
        if not low.all():
            index = index[~low]
            starts = np.full((index.size, (n - 1) * coeffs.shape[-1]), np.nan, dtype=complex)
            if near is not None:
                width = min(near.shape[1], starts.shape[1])
                starts[:, :width] = near[index, :width]
            for i, result in zip(index, _brute_roots_group(coeffs[:, ~low], floor[~low],
                                                           np.ldexp(1.0, e[~low]), starts)):
                out[i] = result
    return out


def _tropical_starts(coeffs: np.ndarray) -> np.ndarray:
    """The n = m k starting points of the Aberth-Ehrlich iteration of each
    polynomial coeffs[:, b] of shape (m + 1, k, k), as a (B, n) array: k
    points per unit of multiplicity on the circle of every tropical root
    of the norms ||A_j||_2 (Bini, Noferini and Sharify, SIAM J. Matrix
    Anal. Appl. 34 (2013)).

    The tropical roots are exp(-s), s the slopes of the upper convex hull
    (the Newton polygon) of the points (j, log ||A_j||).  Its slope on
    [t - 1, t] is the least over i < t of the greatest chord slope from i
    to any l >= t, so the whole batch takes array operations only.  A zero
    coefficient has height -inf: when A_0 = ... = A_(t-1) = 0 the slope is
    inf and the circle has radius 0.  Each run of equal slopes is one
    circle, numbered h = 0, 1, ... from the inside; its p points sit evenly
    at angles 2 pi (i / p + h / n) + 0.7, the layout of Bini's polzeros
    (Numer. Algorithms 13 (1996)), so no two points coincide."""
    m, k = coeffs.shape[0] - 1, coeffs.shape[-1]
    n = m * k
    norms = np.abs(coeffs[..., 0, 0]) if k == 1 else np.linalg.norm(coeffs, 2, axis=(-2, -1))
    j = np.arange(m + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        height = np.log(norms.T)
        chord = (height[:, None, :] - height[:, :, None]) / (j - j[:, None])  # [b, i, l]
    chord[np.isnan(chord)] = -np.inf  # two zero coefficients bound nothing
    t = np.arange(1, m + 1)[:, None]
    reach = np.where((j >= t)[:, None], chord[:, None], -np.inf).max(axis=3)  # [b, t - 1, i]
    slope = np.where(j < t, reach, np.inf).min(axis=2)
    # unit segment t - 1 of circle h, the rank-th of its mult, takes the
    # points i mult + rank of the circle's k mult, i < k
    seg = np.arange(m)
    new = np.ones(slope.shape, dtype=bool)
    new[:, 1:] = slope[:, 1:] != slope[:, :-1]
    circle = np.cumsum(new, axis=1) - 1
    mult = (circle[:, :, None] == circle[:, None, :]).sum(axis=2)
    rank = seg - np.maximum.accumulate(np.where(new, seg, 0), axis=1)
    point = np.arange(k)[:, None] * mult[:, None] + rank[:, None]  # [b, i, t - 1]
    angle = 2 * np.pi * (point / (k * mult[:, None]) + circle[:, None] / n) + 0.7
    return (np.exp(-slope)[:, None] * np.exp(1j * angle)).reshape(-1, n)


def _values_and_slopes(block: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_b(z[b, i]), P_b'(z[b, i])) as two (B, n, k, k) stacks, for the
    coefficients of each polynomial P_b as a (B, m + 1, k, k) block: one
    batched product of the power rows [1, z, ..., z^m] and the derivative
    rows [0, 1, 2 z, ..., m z^(m-1)] of its n points against its block."""
    (b, n), (m, k) = z.shape, (block.shape[1] - 1, block.shape[-1])
    rows = np.zeros((b, 2, n, m + 1), dtype=complex)
    rows[:, 0, :, 0] = 1
    rows[:, 0, :, 1:] = np.cumprod(np.repeat(z[:, :, None], m, axis=2), axis=2)
    rows[:, 1, :, 1:] = rows[:, 0, :, :-1] * np.arange(1, m + 1)
    values = rows.reshape(b, 2 * n, m + 1) @ block.reshape(b, m + 1, k * k)
    values = values.reshape(b, 2, n, k, k)
    return values[:, 0], values[:, 1]


def _brute_roots_group(coeffs: np.ndarray, floor: np.ndarray, scale: np.ndarray,
                       near: np.ndarray) -> list[tuple[list | None, str | None]]:
    """Roots of det P_b(scale_b sigma) for a batch of polynomials
    coeffs[:, b] in sigma of one shape (m + 1, k, k), m >= 1, with
    invertible leading coefficients, reported in tau = scale_b sigma as
    `_brute_roots_batch` pairs; floor[b] is the smallest singular value
    of the leading coefficient of P_b.

    Aberth-Ehrlich iteration on tr(P^-1 P') gives n = m k iterates per
    polynomial.  Iterate i starts near the claimed root near[b, i] (in
    tau) where that start lies within Fujiwara's bound on the roots,
    |sigma| <= 2 max_j (||A_(m-j)||_F / floor)^(1/j) (rigorous with
    Frobenius norms: Higham and Tisseur, Linear Algebra Appl. 358 (2003)),
    and on the circles of the tropical roots of the coefficient norms
    (`_tropical_starts`) elsewhere: a start far past every root can stall
    where the trace vanishes.  A claimed root
    tau is moved by _START_OFFSET max(1, |tau|) at the angle
    0.7 + 2 pi (i + 1/2) / n, so no two starts coincide and no start is
    taken as a root before it steps: each root is still found by this
    iteration, and a claim only says where to look.  Nor do the discs
    below depend on the starts, since the disc theorem holds for any
    distinct points.  One step costs one batched
    product of power rows against the coefficients of every polynomial
    with an iterate still moving, for P and P' at all its iterates
    (`_values_and_slopes`), and one batched LU solve for the Newton
    corrections of the moving iterates (`limitops.newton_from_values`).
    `limitops.inclusion_discs` gives their inclusion discs, whose
    connected components are the roots.  A component of one disc is a
    simple root at its point, with no contour and no Newton step.  A
    component of p > 1 discs, a cluster, must have its count confirmed by
    the winding number of det P around one box that holds all its discs,
    for every polynomial with a cluster in one `limitops.cluster_counts`
    call.  A
    polynomial fails alone: on a disc that is not finite (a value that
    overflows), a count that does not settle, or a count other than p.
    Iterates converge only linearly to a multiple root, so a cluster is
    centered at a contour moment (`_cluster_roots`)."""
    z = _tropical_starts(coeffs)
    turn = np.exp(1j * (0.7 + 2 * np.pi * (np.arange(z.shape[1]) + 0.5) / z.shape[1]))
    ratio = np.linalg.norm(coeffs[-2::-1], axis=(2, 3)) / floor  # [j - 1, b]: j = 1..m
    bound = 2 * np.max(ratio ** (1 / np.arange(1, ratio.shape[0] + 1))[:, None], axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # a claim past the floats seeds nothing
        start = (near + _START_OFFSET * np.maximum(1.0, np.abs(near)) * turn) / scale[:, None]
        warm = np.abs(start) <= bound[:, None]
    z[warm] = start[warm]
    block = np.moveaxis(coeffs, 0, 1)
    active = np.ones(z.shape, dtype=bool)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_ABERTH_STEPS):
            live = np.flatnonzero(active.any(axis=1))
            if live.size == 0:
                break
            values, slopes = _values_and_slopes(block[live], z[live])
            mine = active[live]
            newton = newton_from_values(values[mine], slopes[mine])
            rows, cols = np.nonzero(mine)
            rows = live[rows]
            gaps = z[rows, cols, None] - z[rows]
            gaps[np.arange(rows.size), cols] = np.inf
            step = newton / (1 - newton * (1 / gaps).sum(axis=1))
            # coinciding iterates, a vanishing trace or an overflowing
            # value: stop that iterate
            step[~np.isfinite(step)] = 0
            z[rows, cols] -= step
            active[rows, cols] = np.abs(step) > 1e-13 * np.maximum(1.0, np.abs(z[rows, cols]))
    z, radii, residuals, finite, label = inclusion_discs(coeffs, np.sort(z, axis=1))
    clusters = cluster_counts(coeffs, z, radii,
                              np.flatnonzero(finite & (label != np.arange(z.shape[1])).any(axis=1)))
    results = []
    for b, s in enumerate(scale):
        if not finite[b]:
            i = int(np.argmin(np.isfinite(radii[b])))
            results.append((None, f"inclusion disc not finite at tau={z[b, i] * s:.6g}"))
            continue
        if b not in clusters:  # every disc is a simple root
            results.append(([(t, 1, res, ((t, r),)) for t, res, r in zip(
                (z[b] * s).tolist(), residuals[b].tolist(), (radii[b] * s).tolist())], None))
            continue
        parts, boxes, counts = clusters[b]
        wrong = next(((g, count) for g, count in zip([g for g in parts if g.size > 1], counts)
                      if count != g.size), None)
        if None in counts:
            results.append((None, "contour counting failed to stabilize"))
        elif wrong is not None:
            g, count = wrong
            results.append((None, f"winding number {count} around tau={z[b, g].mean() * s:.9g} "
                                  f"disagrees with {g.size} converged iterates"))
        else:
            results.append((_cluster_roots(coeffs[:, b], z[b], radii[b], residuals[b],
                                           parts, boxes, s), None))
    return results


def _cluster_roots(own: np.ndarray, z: np.ndarray, radii: np.ndarray, residuals: np.ndarray,
                   parts: list, boxes: list, scale: float) -> list[tuple]:
    """The roots of one polynomial of `_brute_roots_group` whose cluster
    counts were confirmed, in tau = scale sigma: a simple root at its point,
    with the residual there; a cluster at the first moment of tr(P^-1 P')
    over its count on the circle of 0.45 times the distance to the
    nearest other component (the half-width of its box when it is
    alone), with the residual |det P| there."""
    centers = np.array([z[g].mean() for g in parts])
    wide = root_boxes(centers, np.full(centers.size, np.inf))
    boxes = iter(boxes)
    for i, g in enumerate(parts):
        if g.size > 1:
            c, (x0, x1, _, _) = centers[i], next(boxes)
            reach = wide[i][1] - c.real
            ring = c + (reach if math.isfinite(reach) else (x1 - x0) / 2) * _UNIT_CIRCLE
            centers[i] = c + np.mean((ring - c) ** 2 / newton_correction(own, ring)) / g.size
    moved = np.abs(_det(matrix_polyval(own, centers)))
    return [(complex(centers[i] * scale), int(g.size),
             float(residuals[g[0]] if g.size == 1 else moved[i]),
             tuple((complex(z[j] * scale), float(radii[j] * scale)) for j in g))
            for i, g in enumerate(parts)]


# ---------------------------------------------------------------------------
# the cross-check ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LedgerEntry:
    name: str
    status: str  # pass | fail | inconclusive | skipped
    detail: str

    def as_dict(self):
        return {"name": self.name, "status": self.status, "detail": self.detail}


@dataclass(frozen=True)
class CheckLedger:
    entries: tuple[LedgerEntry, ...]
    scans: dict

    @property
    def passed(self) -> bool:
        return all(e.status != "fail" for e in self.entries)

    def first_failure(self) -> LedgerEntry | None:
        for e in self.entries:
            if e.status == "fail":
                return e
        return None

    def as_dict(self):
        return {"passed": self.passed,
                "entries": [e.as_dict() for e in self.entries]}

    def __str__(self):
        lines = [f"[{e.status:>12}] {e.name}: {e.detail}" for e in self.entries]
        lines.append(f"oracle ledger: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _match_roots(found, reported):
    """Match the reported (tau, multiplicity) pairs of one mode against
    the oracle's roots (`_brute_roots_batch`).  Each reported root is
    assigned to the root whose component of inclusion discs it lies
    nearest, if it lies within ROOT_TOL * max(1, |z|) of one of them,
    z that disc's point (a distance that overflows matches nothing); the
    multiplicities assigned to a root must sum to its count."""
    problems = []
    discs = [(i, z, r + ROOT_TOL * max(1.0, abs(z)))
             for i, (*_, ds) in enumerate(found) for z, r in ds]
    totals = [None] * len(found)  # reported multiplicity per root, None if none
    stray = []
    for tau, mult in reported:
        best, owner = 0.0, None
        for i, z, reach in discs:
            try:
                gap = abs(tau - z) - reach
            except OverflowError:  # |tau - z| is past the largest float
                continue
            if gap <= best:
                best, owner = gap, i
        if owner is None:
            stray.append(tau)
        else:
            totals[owner] = (totals[owner] or 0) + mult
    for (z, mult, _, _), total in zip(found, totals):
        if total is None:
            problems.append(f"brute root tau={z:.9g} (x{mult}) missing from report")
        elif total != mult:
            problems.append(
                f"multiplicity mismatch at tau={z:.9g}: "
                f"report {total} vs contour {mult}")
    problems += [f"reported root tau={tau:.9g} not re-found by contours" for tau in stray]
    return problems


def _witness_resolution(coeffs: np.ndarray, tau: complex) -> float:
    """How far from 0 a scan can read |P| at a reported witness tau of an
    (m + 1, k, k) stack: the report's 12 significant digits put tau up to
    5e-12 |tau| from the root, where sigma_min can reach
    5e-12 sum_j j ||A_j|| |tau|^j, and the computed value carries up to
    1e-12 sum_j ||A_j|| |tau|^j of rounding (`_weyl_lower_bound`)."""
    size = np.linalg.norm(coeffs, 2, axis=(-2, -1))
    j = np.arange(size.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum((5e-12 * j + _ROUNDING) * size * abs(tau) ** j))


def _witness_entry(fam: IndicialFamily, delta: float, line, scans: dict) -> LedgerEntry:
    """The line-verdict entry of a "no" or "borderline" verdict: a local
    scan of 801 points, refined once, over the witness +-0.02, or
    +-0.02 |Re tau| beyond |Re tau| = 1, where a fixed window would shrink
    below the spacing of the floats.  A local minimum below _NO_CEILING
    confirms the witness; one within `_witness_resolution` of 0 is
    inconclusive, and so is a scan that overflows (coefficients near the
    largest float)."""
    witness = line.witness or {}
    tau_w = complex(*witness.get("tau", (0.0, 0.0)))
    half = 0.02 * max(1.0, abs(tau_w.real))
    try:
        local = scan_line(fam, delta, (tau_w.real - half, tau_w.real + half), 801,
                          refinements=1)
    except FredholmKitError:
        return LedgerEntry("line-verdict", "inconclusive",
                           f"the local scan around the witness tau={tau_w:.6g} overflows")
    scans["line-local"] = local
    if local.global_min < _NO_CEILING:
        return LedgerEntry("line-verdict", "pass",
                           f"witness confirmed: local scan min {local.global_min:.3e}")
    labels = fam.channels.labels
    mode = witness.get("mode")
    resolution = _witness_resolution(fam.coeffs[labels.index(mode)], tau_w) \
        if mode in labels else 0.0
    if local.global_min <= resolution:
        return LedgerEntry("line-verdict", "inconclusive",
                           f"local scan min {local.global_min:.3e} near the witness "
                           f"tau={tau_w:.6g} is within its resolution {resolution:.3e} "
                           f"of 0")
    return LedgerEntry("line-verdict", "fail",
                       f"'{line.status}' verdict but no scan point near the "
                       f"witness drops below {_NO_CEILING:g} "
                       f"(local min {local.global_min:.3e})")


def _reported_starts(table: RootTable, lists: list, width: int) -> np.ndarray:
    """The claimed roots of each polynomial, for `_brute_roots_batch`: row
    i holds the class roots table.tau[j], j in lists[i], each repeated as
    often as its multiplicity, in order, cut at width and padded with
    NaN."""
    counts = np.array([len(js) for js in lists], dtype=np.intp)
    flat = np.fromiter(chain.from_iterable(lists), dtype=np.intp, count=int(counts.sum()))
    # no row holds more than width roots, whatever multiplicity a report claims
    times = np.clip(table.multiplicity[flat], 0, width)
    row = np.repeat(np.repeat(np.arange(len(lists)), counts), times)
    per_row = np.bincount(row, minlength=len(lists))
    col = np.arange(row.size) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    keep = col < width
    near = np.full((len(lists), width), np.nan, dtype=complex)
    near[row[keep], col[keep]] = np.repeat(table.tau[flat], times)[keep]
    return near


def cross_check(p: BoundaryOperator, report, opts=None) -> CheckLedger:
    """Re-derive every verdict in a report with independent machinery:
    roots re-found by Aberth iteration on the true matrix polynomial,
    started next to the roots the report claims, and certified by
    inclusion discs, with a winding count on every cluster;
    line scans for yes/no verdicts; a symbol rescan and |det| of the full
    symbol at the report's own witness covector.  Any mismatch fails the
    ledger with the first discrepancy spelled out.

    The roots of every nonzero class polynomial come from one call of
    `_brute_roots_batch`, which starts each class at the roots its first
    channel reports (`_reported_starts`); a class whose roots cannot be
    found or certified fails the entries of its own channels only.  Each
    reported root belongs to the component of discs it lies within
    ROOT_TOL of, and the reported multiplicities in a component must sum
    to its count (`_match_roots`).  The report's roots are read from their `RootTable`,
    without building an `IndicialRoot`, and matching runs once per class
    and list of reported class roots: a channel whose class and reported
    class roots equal an earlier channel's takes its result (a hand-built
    list of roots has one class root per root).  The detail of a passing
    entry is written once per class.  A non-elliptic report without roots
    and with the caveat `fredholm.ROOTS_NOT_COMPUTED` gets one skipped
    `roots` entry holding that caveat instead.
    """
    opts = opts or FredholmOptions()
    entries: list[LedgerEntry] = []
    scans: dict[str, ScanResult] = {}
    kind = p.structure.kind
    delta = report.delta

    if kind is StructureKind.B:
        cutoff = float(report.cutoffs.get("mode_cutoff", 0) or 0)
        if cutoff <= 0:
            entries.append(LedgerEntry("setup", "fail",
                                       "report carries no mode cutoff"))
            return CheckLedger(tuple(entries), scans)
        table = spectrum(p.cross_section, cutoff)
        fam = indicial_family(normal_operator(p), table)

        # roots that failed on an operator that is not elliptic decide nothing
        not_computed = [c for c in report.caveats if c.startswith(ROOTS_NOT_COMPUTED)]
        if not_computed and not report.roots and not report.elliptic.elliptic:
            entries.append(LedgerEntry("roots", "skipped", not_computed[0]))
        else:
            # certified roots of every nonzero class polynomial in one batch, as
            # (roots, None) or (None, failure detail), shared by every channel
            # of the class
            first, class_of = fam.class_rows
            reps = fam.coeffs[first]
            nonzero = np.flatnonzero(reps.any(axis=(1, 2, 3)))
            # the reported class roots of every channel, in listed order
            table = RootTable.from_roots(report.roots)
            reported: dict[str, list] = {}
            for i, j in table.listed():
                reported.setdefault(table.labels[i], []).append(j)
            near = _reported_starts(table, [reported.get(fam.channels.labels[f], ())
                                            for f in first[nonzero].tolist()],
                                    (reps.shape[1] - 1) * reps.shape[-1])
            by_class = [(None, "identically zero mode polynomial")] * len(first)
            for c, found in zip(nonzero, _brute_roots_batch(list(reps[nonzero]), near)):
                by_class[c] = found
            passed = [None if found is None else
                      f"{sum(root[1] for root in found)} roots re-found by contours"
                      for found, _ in by_class]
            taus, mults = table.tau.tolist(), table.multiplicity.tolist()
            matched: dict[tuple, str | None] = {}  # (class, reported class roots) -> failure
            for label, c in zip(fam.channels.labels, class_of.tolist()):
                found, failure = by_class[c]
                if failure is None:
                    key = (c, tuple(reported.get(label, ())))
                    if key not in matched:
                        problems = _match_roots(found, [(taus[j], mults[j]) for j in key[1]])
                        matched[key] = problems[0] if problems else None
                    failure = matched[key]
                if failure is None:
                    entries.append(LedgerEntry(f"roots[{label}]", "pass", passed[c]))
                else:
                    entries.append(LedgerEntry(f"roots[{label}]", "fail", failure))

        line = next((lv for lv in report.limit_verdicts
                     if lv.mechanism.startswith("b normal")), None)
        # an elliptic family whose tail could not be certified is shifted
        # past overflow (a weight of 1e300, say): its scan is all inf
        if line is not None and (line.status != "numerical-evidence"
                                 or report.cutoffs["tail"]["lambda_certified"] is not None):
            scan = scan_line(fam, delta, opts.tau_range, opts.pts)
            scans["line"] = scan
            if line.status == "yes":
                if scan.global_min > _YES_FLOOR:
                    entries.append(LedgerEntry(
                        "line-verdict", "pass",
                        f"scan min {scan.global_min:.3e} above {_YES_FLOOR:g}"))
                elif scan.global_min < _NO_CEILING:
                    entries.append(LedgerEntry(
                        "line-verdict", "fail",
                        f"'yes' verdict but scan dips to {scan.global_min:.3e} "
                        f"at tau={scan.argmin:.6g}"))
                else:
                    entries.append(LedgerEntry(
                        "line-verdict", "inconclusive",
                        f"scan min {scan.global_min:.3e} in the gray zone"))
            elif line.status in ("no", "borderline"):
                entries.append(_witness_entry(fam, delta, line, scans))
    elif kind in (StructureKind.SC, StructureKind.C_GAMMA):
        frozen = freeze_coefficients(p)
        lv = report.limit_verdicts[0] if report.limit_verdicts else None
        if lv is None:
            entries.append(LedgerEntry("symbol", "fail", "no limit verdict recorded"))
        else:
            redo = sc_invertible(frozen, zooms=9)
            reported_status = lv.status
            if reported_status == "numerical-evidence":
                reported_status = lv.detail.get("status", reported_status)
            if redo.status == reported_status:
                entries.append(LedgerEntry(
                    "symbol", "pass",
                    f"independent rescan agrees: {redo.status} "
                    f"(min |det| {redo.min_abs_det:.3e})"))
            else:
                entries.append(LedgerEntry(
                    "symbol", "fail",
                    f"rescan says {redo.status}, report says {reported_status}"))
            if lv.witness:
                # the report's own witness, not the rescan's
                xi, *eta = lv.witness["covector"]
                eta = np.array(eta, dtype=float)
                sym = _symbol_stack(frozen, 0.0, np.array([float(xi)]), eta[None, :],
                                    np.array([np.dot(eta, eta)]), principal=False)
                v = abs(complex((sym if sym.ndim == 1 else np.linalg.det(sym))[0]))
                status = "pass" if v < _NO_CEILING else "fail"
                entries.append(LedgerEntry(
                    "symbol-witness", status,
                    f"|det| at witness = {v:.3e}"))
    elif kind is StructureKind.ZERO:
        entries.append(LedgerEntry(
            "half-space", "skipped",
            "zero-structure verdicts are numerical evidence only; nothing "
            "sharper to check against"))
    if report.verdict == "Fredholm" and not report.elliptic.elliptic:
        entries.append(LedgerEntry("ellipticity", "fail",
                                   "Fredholm verdict without ellipticity"))
    return CheckLedger(tuple(entries), scans)
