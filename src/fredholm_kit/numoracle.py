"""Numerical cross-checks of the symbolic verdicts.

The machinery differs from the decision engine's.  Where the engine
solves a mode's matrix polynomial P(tau) through its companion matrix,
the oracle re-finds the roots of det P by Aberth-Ehrlich iteration on
tr(P^-1 P') and confirms each root by the winding number of det P around
a small box (`limitops._winding_counts`).  It evaluates the true
coefficients, never the interpolated `IndicialFamily.det_poly`.  Both
sides resolve their approximations with `fredholm._resolve_roots`: each
gets a disc as wide as rounding can move it, and approximations whose
discs overlap become one multiple root, confirmed by a winding count;
the oracle takes the center of such a root from a contour moment instead
of the mean of its iterates.  Line
verdicts are confirmed by scanning smallest singular values of the
indicial family on the tested line, and zero-structure limit operators
are sampled on a truncated half-space in log coordinates.

The oracle solves all mode classes of a family in one batch per
polynomial shape (m + 1, k, k): one stacked SVD for the floor on the
leading coefficients, one Aberth-Ehrlich iteration over every iterate of
every polynomial, one resolve, and one winding count over every root's
box.  A polynomial that fails any of these fails alone, with the message
it would give on its own, and its neighbours' roots stay bit-identical.
The winding count runs in passes of at most `limitops._CONTOUR_CHUNK`
matrix entries, which bounds peak memory: a single pass over the 928
root boxes of a 4x4 order-4 family would hold 61 MB in each array of
contour values.

A line scan evaluates its finest grid once and reads the coarser levels
of its resolution ladder off it as strided subsets.  For a system it
runs a class's SVD only where that class could lower the running
minimum: Weyl's inequality bounds sigma_min(P(tau)) below by
|d(tau)| - sum_j ||A_j - d_j I|| |tau|^j, with d_j = tr(A_j) / k, and a
rounding allowance of 1e-12 sum_j ||A_j|| |tau|^j makes the bound hold
for the computed value too.  A point skipped on that bound could not
have changed the minimum, so every scanned value is bit-identical to an
SVD of every class at every point.  The bound reads only the class's own
coefficients, none of the engine's machinery."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import round12
from .crosssec import spectrum
from .fredholm import _resolve_roots, _RootFailure
from .liestruct import FredholmKitError, StructureKind
from .limitops import (
    IndicialFamily,
    _winding_counts,
    freeze_coefficients,
    full_symbol,
    indicial_family,
    matrix_polyval,
    newton_correction,
    normal_operator,
    root_boxes,
)
from .opalg import BoundaryOperator, MultiIndex, _is_matrix, symbol_monomial

_YES_FLOOR = 1e-4   # scan minima above this confirm "yes"
_NO_CEILING = 1e-6  # scan minima below this confirm "no"
_SCAN_CHUNK = 1024  # scan points per stacked SVD for systems


# ---------------------------------------------------------------------------
# scan results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanResult:
    """Sampled smallest singular values over a parameter grid, with a
    resolution ladder.  For a line scan, points and min_singular hold the
    finest grid and each ladder level is a strided subset of it, so the
    global minimum is monotone under refinement; for a half-space sample
    the levels are separate truncations."""

    points: tuple
    min_singular: tuple[float, ...]
    global_min: float
    argmin: object
    ladder: tuple[dict, ...]
    caveat: str | None = None

    def __post_init__(self):
        if any(v < 0 for v in self.min_singular):
            raise ValueError("singular values are nonnegative")
        if self.min_singular and not math.isclose(
                self.global_min, min(self.min_singular), rel_tol=0, abs_tol=0):
            raise ValueError("global_min must be the minimum of the samples")

    def argmin_label(self) -> str:
        if isinstance(self.argmin, (tuple, list)):
            return ";".join(f"{x}" for x in self.argmin)
        return f"{self.argmin}"

    def as_dict(self) -> dict:
        d = {
            "global_min": round12(self.global_min),
            "argmin": self.argmin_label(),
            "ladder": list(self.ladder),
            "samples": len(self.min_singular),
        }
        if self.caveat:
            d["caveat"] = self.caveat
        return d

    def to_csv(self) -> str:
        lines = ["point,minSingular"]
        for p, v in zip(self.points, self.min_singular):
            if isinstance(p, (tuple, list)):
                label = ";".join(f"{x:.12g}" if isinstance(x, float) else f"{x}" for x in p)
            elif isinstance(p, float):
                label = f"{p:.12g}"
            else:
                label = f"{p}"
            lines.append(f"{label},{v:.12g}")

        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


# ---------------------------------------------------------------------------
# weight-line scans
# ---------------------------------------------------------------------------


_ROUNDING = 1e-12  # allowance, relative to sum_j ||A_j|| |tau|^j, in `_weyl_lower_bound`


def _weyl_lower_bound(coeffs: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """A lower bound on the computed smallest singular value of
    P(tau) = sum_j A_j tau^j at every tau, for an (m + 1, k, k) stack.

    With d_j = tr(A_j) / k and d(tau) = sum_j d_j tau^j, Weyl's inequality
    gives sigma_min(P) >= |d(tau)| - sum_j ||A_j - d_j I||_2 |tau|^j.  The
    bound also subtracts 1e-12 * sum_j ||A_j||_2 |tau|^j, far more than the
    Horner evaluation and the backward-stable SVD can move the computed
    value, so the computed value is never below the bound.  inf - inf
    gives NaN, which callers must read as "no bound"."""
    k = coeffs.shape[-1]
    d = np.trace(coeffs, axis1=-2, axis2=-1) / k
    spread = np.linalg.norm(coeffs - d[:, None, None] * np.eye(k), 2, axis=(-2, -1))
    size = np.linalg.norm(coeffs, 2, axis=(-2, -1))
    polyval = np.polynomial.polynomial.polyval
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(polyval(taus, d)) - polyval(np.abs(taus), spread + _ROUNDING * size)


def _family_min_singular(f: IndicialFamily, taus: np.ndarray) -> np.ndarray:
    """min over distinct mode polynomials of the smallest singular value
    at each complex tau.

    Systems are evaluated a chunk of points at a time by a batched Horner
    step and one stacked SVD, and only at the points where the class's
    `_weyl_lower_bound` does not exceed the running minimum: elsewhere the
    computed value is at least the bound, so it could not lower the
    minimum, and every returned value is the one an SVD at every point of
    every class would give, bit for bit."""
    out = np.full(taus.shape, np.inf)
    for coeffs in f.coeffs[f.class_rows[0]]:
        if f.system_size == 1:
            vals = np.polynomial.polynomial.polyval(taus, coeffs[:, 0, 0])
            out = np.minimum(out, np.abs(vals))
            continue
        # a NaN bound is no bound: those points are evaluated
        todo = np.flatnonzero(~(_weyl_lower_bound(coeffs, taus) > out))
        for lo in range(0, todo.shape[0], _SCAN_CHUNK):
            idx = todo[lo:lo + _SCAN_CHUNK]
            smin = np.linalg.svd(matrix_polyval(coeffs, taus[idx]), compute_uv=False)[:, -1]
            out[idx] = np.minimum(out[idx], smin)
    return out


def scan_line(f: IndicialFamily, delta: float, trange=(-10.0, 10.0),
              pts: int = 2001, refinements: int = 2) -> ScanResult:
    """Evaluate the family along tau - i delta on nested grids over trange.

    Only the finest grid is evaluated; ladder level j keeps every
    2**(refinements - j)-th sample of it, which is bit for bit the
    linspace grid of that level because halving a linspace step is exact.
    """
    if pts < 2:
        raise ValueError("need at least two scan points")
    if refinements < 0:
        raise ValueError("refinements must be nonnegative")
    a, b = float(trange[0]), float(trange[1])
    if not b > a:
        raise ValueError("scan range must be nondegenerate")
    grid = np.linspace(a, b, (pts - 1) * 2 ** refinements + 1)
    vals = _family_min_singular(f, grid - 1j * delta)
    ladder = []
    for level in range(refinements, -1, -1):
        g, v = grid[::2 ** level], vals[::2 ** level]
        i = int(np.argmin(v))
        ladder.append({"points": g.shape[0], "global_min": round12(float(v[i])),
                       "argmin_tau": round12(float(g[i]))})
    i = int(np.argmin(vals))
    return ScanResult(tuple(float(t) for t in grid),
                      tuple(float(v) for v in vals),
                      float(vals[i]), float(grid[i]), tuple(ladder))


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------


_ABERTH_STEPS = 100  # iterations before the iterates are taken as they stand
_ROOT_TOL = 1e-7  # relative: the least half-width of a root's box, and the match distance
_UNIT_CIRCLE = np.exp(2j * np.pi * np.arange(64) / 64)  # moment quadrature nodes


def brute_roots(coeffs) -> list[tuple[complex, int, float]]:
    """Roots of det P for a matrix polynomial P, independent of the
    engine's companion matrices: the batch of one of `_brute_roots_batch`,
    which `cross_check` runs on all classes of a family at once (Aberth
    iteration, a resolve and winding counts in passes of bounded memory).

    coeffs is a scalar coefficient row or an (m + 1, k, k) stack, ascending
    in the power.  Returns (root, multiplicity, residual |det P(root)|)
    triples, with P scaled to a largest coefficient of magnitude one, and
    raises FredholmKitError when a root cannot be found or confirmed.
    """
    (roots, failure), = _brute_roots_batch([coeffs])
    if failure is not None:
        raise FredholmKitError(failure)
    return roots


def _brute_roots_batch(polys) -> list[tuple[list | None, str | None]]:
    """`brute_roots` of many matrix polynomials at once, as (roots, None)
    or (None, failure detail) per polynomial, in order.

    The polynomials are trimmed of exact zero top coefficients, scaled to
    a largest coefficient of magnitude one and grouped by shape
    (m + 1, k, k).  Each group takes one stacked SVD for the floor on its
    leading coefficients and runs as one batch (`_brute_roots_group`).  A
    failure fails only its own polynomial, with the detail `brute_roots`
    raises for it alone."""
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
    for members in groups.values():
        index = np.array([i for i, _ in members])
        coeffs = np.stack([c for _, c in members], axis=1)
        coeffs = coeffs / np.max(np.abs(coeffs), axis=(0, 2, 3))[:, None, None]
        low = np.linalg.svd(coeffs[-1], compute_uv=False)[:, -1] < 1e-14
        for i in index[low]:
            out[i] = (None, "leading coefficient below 1e-14")
        if not low.all():
            for i, result in zip(index[~low], _brute_roots_group(coeffs[:, ~low])):
                out[i] = result
    return out


def _brute_roots_group(coeffs: np.ndarray) -> list[tuple[list | None, str | None]]:
    """Roots of det P_b for a batch of polynomials coeffs[:, b] of one
    shape (m + 1, k, k), m >= 1, with invertible leading coefficients:
    Aberth-Ehrlich iteration on tr(P^-1 P'), with the iterates resolved by
    `fredholm._resolve_roots` and every root confirmed by the winding
    number of det P around a box of half-width _ROOT_TOL * max(1, |z|), or the
    box on which a root merged from iterates closer than rounding can
    separate was confirmed (less when another root is nearer).

    The iterates of all polynomials move together; one resolve takes them
    all, and a polynomial it fails on is dropped and the rest resolved
    again; the boxes of all polynomials share the chunked passes of one
    `_winding_counts` call."""
    m, k = coeffs.shape[0] - 1, coeffs.shape[-1]
    # every root lies within twice the largest ||A_m^-1 A_j||^(1/(m-j))
    ratios = np.linalg.solve(coeffs[-1, :, None], np.moveaxis(coeffs[:-1], 0, 1))
    powers = 1.0 / (m - np.arange(m))
    radius = 2 * np.max(np.linalg.norm(ratios, 2, axis=(2, 3)) ** powers, axis=1)
    radius[radius == 0] = 1.0
    z = radius[:, None] * np.exp(1j * (2 * np.pi * np.arange(m * k) / (m * k) + 0.4))
    active = np.ones(z.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ABERTH_STEPS):
            rows, cols = np.nonzero(active)
            if rows.size == 0:
                break
            newton = newton_correction(coeffs[:, rows], z[rows, cols])
            gaps = z[rows, cols, None] - z[rows]
            gaps[np.arange(rows.size), cols] = np.inf
            step = newton / (1 - newton * (1 / gaps).sum(axis=1))
            # coinciding iterates or a vanishing trace: stop that iterate
            step[~np.isfinite(step)] = 0
            z[rows, cols] -= step
            active[rows, cols] = np.abs(step) > 1e-13 * np.maximum(1.0, np.abs(z[rows, cols]))
    results: list = [None] * z.shape[0]
    live, roots = np.arange(z.shape[0]), []
    while live.size:
        try:
            roots = _resolve_roots(coeffs[:, live], z[live])
            break
        except _RootFailure as e:
            results[live[e.index]] = (None, str(e))
            live = np.delete(live, e.index)
    centers = [np.array([c for c, _, _ in found]) for found in roots]
    boxes = [root_boxes(c, np.maximum(_ROOT_TOL * np.maximum(1.0, np.abs(c)),
                                      np.array([box for _, _, box in found])))
             for c, found in zip(centers, roots)]
    counts = iter(_winding_counts(coeffs, [box for bs in boxes for box in bs],
                                  [b for b, bs in zip(live, boxes) for _ in bs]))
    for b, found, c in zip(live, roots, centers):
        mine = [next(counts) for _ in found]
        if None in mine:
            results[b] = (None, "contour counting failed to stabilize")
            continue
        wrong = next(((tau, size, count) for (tau, size, _), count in zip(found, mine)
                      if count != size), None)
        if wrong is not None:
            tau, size, count = wrong
            results[b] = (None, f"winding number {count} around tau={tau:.9g} "
                                f"disagrees with {size} converged iterates")
            continue
        # iterates converge only linearly to a multiple root, so the center
        # of a merged root is the first moment of tr(P^-1 P') on the circle
        # of 0.45 times the distance to the nearest other root (its box when
        # it is alone): the mean of the roots inside
        wide = root_boxes(c, np.full(c.size, np.inf))
        for i, (tau, size, box) in enumerate(found):
            if box > 0:
                reach = wide[i][1] - tau.real
                ring = tau + (reach if math.isfinite(reach) else box) * _UNIT_CIRCLE
                c[i] = tau + np.mean((ring - tau) ** 2 / newton_correction(coeffs[:, b], ring)) / size
        residuals = np.abs(np.linalg.det(matrix_polyval(coeffs[:, b], c)))
        results[b] = ([(complex(tau), size, float(r))
                       for tau, (_, size, _), r in zip(c, found, residuals)], None)
    return results


# ---------------------------------------------------------------------------
# zero-structure half-space sampling
# ---------------------------------------------------------------------------


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


def half_space_sample(frozen: BoundaryOperator) -> ScanResult:
    """Smallest singular values of the frozen half-space operator (a
    zero-structure operator after `freeze_coefficients`) across the window
    sizes of _HALFSPACE_TRUNCATIONS and the tangential frequencies of
    _HALFSPACE_ETA.

    The discretization lives on the flat L2 of the log coordinates (the
    window is truncated with Dirichlet ends), so the numbers are evidence
    about the model operator, not a theorem-grade invertibility test; the
    caveat flag says so.
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
    return ScanResult(tuple(points), tuple(mins), float(mins[i]), points[i],
                      tuple(ladder),
                      caveat="half-space truncation on flat log-coordinate L2; "
                             "numerical evidence only")


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


def _match_roots(brute, reported):
    """Match brute-force roots against the reported roots of one mode,
    both directions, with multiplicities, to _ROOT_TOL * max(1, |z|)."""
    problems = []
    used = [False] * len(reported)
    for z, mult, residual in brute:
        hit = None
        for i, r in enumerate(reported):
            if not used[i] and abs(r.tau - z) <= _ROOT_TOL * max(1.0, abs(z)):
                hit = i
                break
        if hit is None:
            problems.append(f"brute root tau={z:.9g} (x{mult}) missing from report")
            continue
        used[hit] = True
        if reported[hit].multiplicity != mult:
            problems.append(
                f"multiplicity mismatch at tau={z:.9g}: "
                f"report {reported[hit].multiplicity} vs contour {mult}")
    for i, r in enumerate(reported):
        if not used[i]:
            problems.append(f"reported root tau={r.tau:.9g} not re-found by contours")
    return problems


def cross_check(p: BoundaryOperator, report, opts=None) -> CheckLedger:
    """Re-derive every verdict in a report with independent machinery:
    roots re-found by Aberth iteration on the true matrix polynomial and
    confirmed by winding counts, line scans for yes/no verdicts, symbol
    re-evaluation at witnesses.  Any mismatch fails the ledger with the
    first discrepancy spelled out.

    The roots of every nonzero class polynomial come from one call of
    `_brute_roots_batch`; a class whose roots cannot be found or confirmed
    fails the entries of its own channels only.
    """
    from .fredholm import FredholmOptions, sc_invertible

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

        # contour roots of every nonzero class polynomial in one batch, as
        # (roots, None) or (None, failure detail), shared by every channel
        # of the class
        first, class_of = fam.class_rows
        reps = fam.coeffs[first]
        nonzero = np.flatnonzero(reps.any(axis=(1, 2, 3)))
        by_class = [(None, "identically zero mode polynomial")] * len(first)
        for c, found in zip(nonzero, _brute_roots_batch(list(reps[nonzero]))):
            by_class[c] = found
        reported_by_mode: dict[str, list] = {}
        for r in report.roots:
            reported_by_mode.setdefault(r.mode, []).append(r)
        for label, c in zip(fam.channels.labels, class_of.tolist()):
            found, failure = by_class[c]
            if failure is None:
                problems = _match_roots(found, reported_by_mode.get(label, []))
                failure = problems[0] if problems else None
            if failure is None:
                entries.append(LedgerEntry(
                    f"roots[{label}]", "pass",
                    f"{sum(m for _, m, _ in found)} roots re-found by contours"))
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
                tau_w = complex(line.witness["tau"][0], line.witness["tau"][1]) \
                    if line.witness else 0.0
                local = scan_line(fam, delta,
                                  (tau_w.real - 0.02, tau_w.real + 0.02), 801,
                                  refinements=1)
                scans["line-local"] = local
                if local.global_min < _NO_CEILING:
                    entries.append(LedgerEntry(
                        "line-verdict", "pass",
                        f"witness confirmed: local scan min {local.global_min:.3e}"))
                else:
                    entries.append(LedgerEntry(
                        "line-verdict", "fail",
                        f"'{line.status}' verdict but no scan point near the "
                        f"witness drops below {_NO_CEILING:g} "
                        f"(local min {local.global_min:.3e})"))
    elif kind in (StructureKind.SC, StructureKind.C_GAMMA):
        sym = full_symbol(freeze_coefficients(p))
        lv = report.limit_verdicts[0] if report.limit_verdicts else None
        if lv is None:
            entries.append(LedgerEntry("symbol", "fail", "no limit verdict recorded"))
        else:
            redo = sc_invertible(sym, zooms=9)
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
            if lv.witness and redo.witness is not None:
                v = abs(sym.det_at(redo.witness[0], redo.witness[1:]))
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
