"""Numerical cross-checks of the symbolic verdicts.

The machinery differs from the decision engine's: roots are re-found by
argument-principle contour counting instead of companion matrices, line
verdicts are confirmed by scanning smallest singular values of the
indicial family on the tested line, and zero-structure limit operators
are sampled on a truncated half-space in log coordinates.  The inputs are
not all independent: `cross_check` feeds `brute_roots` the engine's own
interpolated determinant `IndicialFamily.det_poly`, so a fault in that
polynomial is invisible to the root check.

A line scan evaluates its finest grid once and reads the coarser levels
of its resolution ladder off it as strided subsets.  Contour counting
evaluates the boundaries of all boxes of one quadtree split in a single
polyval and escalates to finer resolutions box by box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import round12
from .crosssec import spectrum
from .liestruct import FredholmKitError, StructureKind
from .limitops import IndicialFamily, LimitOperator, indicial_family, normal_operator
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


def _family_min_singular(f: IndicialFamily, taus: np.ndarray) -> np.ndarray:
    """min over distinct mode polynomials of the smallest singular value
    at each complex tau; systems are evaluated a chunk of points at a time
    by a batched Horner step and one stacked SVD."""
    out = np.full(taus.shape, np.inf)
    for labels in f.classes():
        if f.system_size == 1:
            vals = np.polynomial.polynomial.polyval(taus, f.polys[labels[0]][:, 0, 0])
            out = np.minimum(out, np.abs(vals))
            continue
        for lo in range(0, taus.shape[0], _SCAN_CHUNK):
            mats = f.stack(labels[0], taus[lo:lo + _SCAN_CHUNK])
            smin = np.linalg.svd(mats, compute_uv=False)[:, -1]
            out[lo:lo + _SCAN_CHUNK] = np.minimum(out[lo:lo + _SCAN_CHUNK], smin)
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
# argument-principle root finding
# ---------------------------------------------------------------------------


class _ContourError(Exception):
    pass


_RESOLUTIONS = (64, 256, 1024, 4096)  # contour points per box side
_UNIT_SEGMENTS = {n: np.linspace(0.0, 1.0, n, endpoint=False)
                  for n in _RESOLUTIONS}


def _contour_counts(coeffs: np.ndarray, boxes, n_side: int) -> list:
    """Boundary winding numbers of the rectangles (x0, x1, y0, y1) at
    n_side points per side, or None for a box this resolution cannot
    settle; all boxes go through one polyval."""
    corners = np.array([[x0 + 1j * y0, x1 + 1j * y0, x1 + 1j * y1, x0 + 1j * y1]
                        for x0, x1, y0, y1 in boxes])
    steps = np.roll(corners, -1, axis=1) - corners
    sides = corners[:, :, None] + steps[:, :, None] * _UNIT_SEGMENTS[n_side]
    path = np.concatenate([sides.reshape(len(boxes), -1), corners[:, :1]], axis=1)
    vals = np.polynomial.polynomial.polyval(path, coeffs)
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
    # phase steps too coarse to trust, or a count far from an integer
    unsettled |= (np.abs(dargs).max(axis=1) > 1.8) | (np.abs(total - k) > 0.25)
    return [None if u else int(c) for u, c in zip(unsettled, k)]


def _winding_counts(coeffs: np.ndarray, boxes) -> list[int]:
    """Zeros of the polynomial inside each rectangle (x0, x1, y0, y1),
    counted with multiplicity via the boundary winding number.

    All boxes share the coarsest pass.  A box it cannot settle climbs the
    finer resolutions on its own, in box order, and the first box that
    never settles raises _ContourError before later boxes pay for theirs.
    """
    counts = _contour_counts(coeffs, boxes, _RESOLUTIONS[0])
    for i, box in enumerate(boxes):
        for n_side in _RESOLUTIONS[1:]:
            if counts[i] is not None:
                break
            counts[i] = _contour_counts(coeffs, [box], n_side)[0]
        if counts[i] is None:
            raise _ContourError
    return counts


_SPLIT_FRACTIONS = (0.5, 0.53, 0.461, 0.55, 0.437, 0.519)


def _subdivide(coeffs, x0, x1, y0, y1, count, coarse_tol, fine_tol, out, depth=0):
    """Quadtree refinement; single-root boxes stop at coarse_tol (they get
    Newton-polished later), clusters are driven down to fine_tol."""
    if count <= 0:
        return
    tol = coarse_tol if count == 1 else fine_tol
    if max(x1 - x0, y1 - y0) < tol or depth > 80:
        z = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
        out.append((z, count, max(x1 - x0, y1 - y0)))
        return
    for frac in _SPLIT_FRACTIONS:
        xm = x0 + frac * (x1 - x0)
        ym = y0 + frac * (y1 - y0)
        boxes = [(x0, xm, y0, ym), (xm, x1, y0, ym),
                 (x0, xm, ym, y1), (xm, x1, ym, y1)]
        try:
            counts = _winding_counts(coeffs, boxes)
        except _ContourError:
            continue
        if sum(counts) != count:
            continue
        for b, c in zip(boxes, counts):
            _subdivide(coeffs, *b, c, coarse_tol, fine_tol, out, depth + 1)
        return
    # every split line kept hitting a zero; report the box center
    z = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
    out.append((z, count, max(x1 - x0, y1 - y0)))


def brute_roots(coeffs, tol: float = 1e-9) -> list[tuple[complex, int, float]]:
    """Polynomial roots by argument-principle counting on rectangles with
    bisection refinement, independent of the companion-matrix path.

    Returns (root, multiplicity, residual |p(root)|) triples.
    """
    coeffs = np.asarray(coeffs, dtype=complex).ravel()
    n = coeffs.shape[0]
    while n > 1 and coeffs[n - 1] == 0:
        n -= 1
    coeffs = coeffs[:n]
    if n == 1:
        return []
    lead = abs(coeffs[-1])
    if lead < 1e-14:
        raise FredholmKitError("leading coefficient below 1e-14; normalize first")
    radius = 1.0 + float(np.max(np.abs(coeffs[:-1]))) / lead
    degree = n - 1
    cscale = float(np.max(np.abs(coeffs)))
    deriv = np.polynomial.polynomial.polyder(coeffs)

    def polish(z, box_size):
        # Newton from the box center; reject escapes from the box
        seed = z
        for _ in range(12):
            dp = np.polynomial.polynomial.polyval(z, deriv)
            if dp == 0:
                break
            step = np.polynomial.polynomial.polyval(z, coeffs) / dp
            z = z - step
            if abs(z - seed) > 4 * box_size + 1e-12:
                return None
            if abs(step) < 1e-15 * max(1.0, abs(z)):
                break
        return z

    for attempt in range(6):
        r = radius * (1.05 + 0.08 * attempt)
        # a shifted box keeps split lines off the axes, where indicial
        # roots (real-coefficient polynomials in z) naturally sit
        sx = 0.0173 * radius * (attempt + 1)
        sy = 0.0101 * radius * (attempt + 1)
        box = (-r + sx, r + sx, -r + sy, r + sy)
        try:
            total, = _winding_counts(coeffs, [box])
        except _ContourError:
            continue
        if total != degree:
            continue
        coarse = max(2e-3 * radius, tol)
        out: list[tuple[complex, int, float]] = []
        _subdivide(coeffs, *box, total, coarse, tol, out)
        results = []
        ok = True
        for z, mult, size in sorted(out, key=lambda t: (t[0].real, t[0].imag)):
            if mult == 1 and size > tol:
                polished = polish(z, size)
                if polished is None:
                    # Newton escaped; isolate this root the slow way
                    half = 2 * size
                    deep: list[tuple[complex, int, float]] = []
                    try:
                        near = (z.real - half, z.real + half,
                                z.imag - half, z.imag + half)
                        sub, = _winding_counts(coeffs, [near])
                        _subdivide(coeffs, *near, sub, tol, tol, deep)
                    except _ContourError:
                        ok = False
                        break
                    if len(deep) != 1 or deep[0][1] != 1:
                        ok = False
                        break
                    z = deep[0][0]
                else:
                    z = polished
            elif mult == 1:
                polished = polish(z, max(size, tol))
                if polished is not None:
                    z = polished
            residual = abs(np.polynomial.polynomial.polyval(z, coeffs))
            if residual > 1e-6 * cscale * max(1.0, abs(z)) ** degree:
                ok = False  # a give-up box slipped through; re-seed the tree
                break
            results.append((z, mult, float(residual)))
        if ok:
            return results
    raise FredholmKitError("contour counting failed to stabilize")


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


def half_space_sample(lim: LimitOperator, truncations=((4.0, 48), (6.0, 72), (8.0, 96)),
                      eta_samples=(0.0, 0.5, 1.0, 2.0)) -> ScanResult:
    """Smallest singular values of the frozen half-space operator across
    window sizes and tangential frequencies.

    The discretization lives on the flat L2 of the log coordinates (the
    window is truncated with Dirichlet ends), so the numbers are evidence
    about the model operator, not a theorem-grade invertibility test; the
    caveat flag says so.
    """
    if lim.structure_kind is not StructureKind.ZERO or lim.half_space is None:
        raise FredholmKitError("half-space sampling applies to zero-structure "
                               "limit operators")
    frozen = lim.half_space
    dcross = frozen.cross_section.coordinate_count
    vectors: list[np.ndarray] = []
    for magnitude in eta_samples:
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
    for T, n in truncations:
        local = []
        for eta in vectors:
            a = _halfspace_matrix(frozen, eta, float(T), int(n))
            smin = float(np.linalg.svd(a, compute_uv=False)[-1])
            points.append((float(T), int(n), tuple(round12(float(x)) for x in eta)))
            mins.append(smin)
            local.append(smin)
        ladder.append({"T": float(T), "n": int(n),
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


def _match_roots(brute, reported, tol=1e-7):
    """Match brute-force roots against the reported roots of one mode,
    both directions, with multiplicities."""
    problems = []
    used = [False] * len(reported)
    for z, mult, residual in brute:
        hit = None
        for i, r in enumerate(reported):
            if not used[i] and abs(r.tau - z) <= tol * max(1.0, abs(z)):
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
    contour-counted roots, line scans for yes/no verdicts, symbol
    re-evaluation at witnesses.  Any mismatch fails the ledger with the
    first discrepancy spelled out.
    """
    from .fredholm import FredholmOptions, sc_invertible
    from .limitops import full_symbol, freeze_coefficients

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

        # contour roots once per distinct polynomial, as (roots, None) or
        # (None, failure detail), shared by every label of the class
        found_by_label = {}
        for labels in fam.classes():
            det = fam.det_poly(labels[0])
            scale = float(np.max(np.abs(det)))
            found = (None, "identically zero mode polynomial")
            if scale != 0:
                try:
                    found = (brute_roots(det / scale), None)
                except FredholmKitError as e:
                    found = (None, str(e))
            found_by_label.update(dict.fromkeys(labels, found))
        reported_by_mode: dict[str, list] = {}
        for r in report.roots:
            reported_by_mode.setdefault(r.mode, []).append(r)
        for ch in fam.channels:
            found, failure = found_by_label[ch.label]
            if failure is None:
                problems = _match_roots(found, reported_by_mode.get(ch.label, []))
                failure = problems[0] if problems else None
            if failure is None:
                entries.append(LedgerEntry(
                    f"roots[{ch.label}]", "pass",
                    f"{sum(m for _, m, _ in found)} roots re-found by contours"))
            else:
                entries.append(LedgerEntry(f"roots[{ch.label}]", "fail", failure))

        line = next((lv for lv in report.limit_verdicts
                     if lv.mechanism.startswith("b normal")), None)
        if line is not None:
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
            redo = sc_invertible(sym, threshold=opts.sc_threshold, zooms=9)
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
