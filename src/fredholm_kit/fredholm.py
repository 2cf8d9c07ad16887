"""Fredholm decision engine: ellipticity plus invertibility of every limit
operator, with indicial roots, weight-line tests, and safe weight windows.

Weight convention: delta is the exponent in r^delta times the base scale,
and the tested line is Im(tau) = -delta, equivalently Re(z) = delta for
the Mellin variable z = i tau.  This is pinned by the exact identity
r^(-delta) (r d/dr) r^delta = r d/dr + delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import round12
from .crosssec import MODE_BUDGET, check_cutoff, mode_count, spectrum
from .liestruct import FredholmKitError, StructureKind
from .limitops import (
    IndicialFamily,
    ScSymbol,
    _winding_counts,
    freeze_coefficients,
    full_symbol,
    indicial_family,
    newton_correction,
    normal_operator,
    root_boxes,
    root_sensitivity,
)
from .opalg import (
    FLOOR_DIRECTIONS,
    BoundaryOperator,
    EllipticityResult,
    _min_singular,
    _value_norm,
    default_mode_cutoff,
    is_elliptic,
    symbol_min_singular,
    unit_covectors,
)

_ROOT_CLUSTER_TOL = 1e-7
_ROOT_STEP_TOL = 1e-9
_ROOT_NOISE = 1e-13  # relative rounding of the coefficients (about 500 ulp)
_ON_LINE_TOL = 1e-12
_BORDERLINE_TOL = 1e-8

VERDICT_FREDHOLM = "Fredholm"
VERDICT_NOT = "NotFredholm"
VERDICT_UNDECIDED = "Undecided"

WEIGHT_CONVENTION = "line Re(z) = delta"


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


class _RootFailure(FredholmKitError):
    """A root of the index-th polynomial of a batch that cannot be resolved."""

    def __init__(self, index: int, detail: str):
        super().__init__(detail)
        self.index = index


def _resolve_roots(coeffs: np.ndarray,
                   points: np.ndarray) -> list[list[tuple[complex, int, float]]]:
    """Roots of det P_b for a batch of matrix polynomials, coeffs[:, b] of
    shape (m + 1, k, k), from approximations points[b], one per root
    counted with multiplicity: for each b, (tau, multiplicity, box) triples.

    Each approximation z gets a disc whose radius is the larger of
    _ROOT_NOISE times its `root_sensitivity` (how far rounding of the
    coefficients can move a simple root; left out where it is not finite)
    and _ROOT_CLUSTER_TOL * max(1, |z|).  Approximations whose discs
    overlap, directly or through others, cannot be told apart in floating
    point (rounding splits a root that is defective in the linearization,
    or a double root beside large coefficients): they become one root at
    their mean, with their count as its multiplicity, and box is the
    half-width of the square, reaching past every member's disc, on which
    the winding number of det P confirmed that count, in one chunked
    `_winding_counts` pass over the merged roots of the whole batch.  A lone
    approximation takes one Newton step (box 0), and a step above
    _ROOT_STEP_TOL of the root raises _RootFailure."""
    points = np.sort(points, axis=-1)
    stack = coeffs[:, :, None]
    sensitivity = root_sensitivity(stack, points)
    radius = np.maximum(_ROOT_CLUSTER_TOL * np.maximum(1.0, np.abs(points)),
                        np.where(np.isfinite(sensitivity), _ROOT_NOISE * sensitivity, 0))
    near = np.abs(points[:, :, None] - points[:, None, :]) \
        <= radius[:, :, None] + radius[:, None, :]
    lone = near.sum(axis=2) == 1
    steps = np.where(lone, newton_correction(stack, points), 0)
    failed = np.argwhere(np.abs(steps) > _ROOT_STEP_TOL * np.maximum(1.0, np.abs(points)))
    if failed.size:
        b, i = failed[0]
        raise _RootFailure(b, f"Newton step {abs(steps[b, i]):.2e} at tau={points[b, i]:.6g}")
    # 0 + turns a signed zero into +0
    out = [[(complex(tau), 1, 0.0) for tau in 0 + (row - step)[keep]]
           for row, step, keep in zip(points, steps, lone)]
    grouped = np.flatnonzero(~lone.all(axis=1))
    reach = near[grouped]
    while True:  # transitive closure of the overlaps, by boolean squaring
        wider = reach @ reach
        if (wider == reach).all():
            break
        reach = wider
    merged = {}  # b -> [(center, members, box)]
    for b, linked in zip(grouped, reach):
        taken, groups = lone[b].copy(), []
        for i in np.flatnonzero(~lone[b]):
            if not taken[i]:
                taken |= linked[i]
                groups.append(linked[i])
        centers = np.array([points[b, g].mean() for g in groups])
        half = [np.max(np.abs(points[b, g] - c) + radius[b, g]) for g, c in zip(groups, centers)]
        alone = len(out[b])
        boxes = root_boxes(np.concatenate([[tau for tau, _, _ in out[b]], centers]),
                           np.concatenate([np.zeros(alone), half]))[alone:]
        merged[b] = [(c, int(g.sum()), box) for c, g, box in zip(centers, groups, boxes)]
    owners = [b for b, roots in merged.items() for _ in roots]
    counts = iter(_winding_counts(coeffs, [box for roots in merged.values()
                                           for _, _, box in roots], owners))
    for b, roots in merged.items():
        mine = [next(counts) for _ in roots]
        if None in mine:
            raise _RootFailure(b, "contour counting failed to stabilize")
        for (c, size, box), count in zip(roots, mine):
            if count != size:
                raise _RootFailure(b, f"winding number {count} around tau={c:.6g} "
                                      f"disagrees with {size} merged roots")
            out[b].append((complex(c), size, box[1] - c.real))
    return out


def _linearized_roots(coeffs: np.ndarray) -> list[list[tuple[complex, int, float]]]:
    """`_resolve_roots` of a batch of matrix polynomials with invertible
    leading matrices A_m, coeffs[:, b] of shape (m + 1, k, k), from the
    eigenvalues of their reduced block companion matrices
    [[0, I, ...], [-A_m^-1 A_0, ..., -A_m^-1 A_(m-1)]]."""
    m, n, k = coeffs.shape[0] - 1, coeffs.shape[1], coeffs.shape[2]
    if m == 0:
        return [[] for _ in range(n)]
    companion = np.zeros((n, m * k, m * k), dtype=complex)
    companion[:, :-k, k:] = np.eye((m - 1) * k)
    companion[:, -k:] = -np.linalg.solve(coeffs[-1], np.concatenate(coeffs[:-1], axis=-1))
    return _resolve_roots(coeffs, np.linalg.eigvals(companion))


def _interpolated_roots(f: IndicialFamily, label: str) -> list[tuple[complex, int, float]]:
    """Roots of a system with a singular leading matrix: the roots of its
    interpolated determinant, cut after the last coefficient above 1e-12
    of the largest, resolved against the true matrix polynomial."""
    det = f.det_poly(label)
    det = det[:np.flatnonzero(np.abs(det) > 1e-12 * float(np.max(np.abs(det))))[-1] + 1]
    if det.shape[0] == 1:
        return []
    raw = np.polynomial.polynomial.polyroots(det)
    try:
        return _resolve_roots(f.poly(label)[:, None], raw[None])[0]
    except _RootFailure as e:
        raise FredholmKitError(f"root refinement failed on mode {label}: {e}") from None


def indicial_roots(f: IndicialFamily) -> list[IndicialRoot]:
    """All tau roots of the per-mode determinants det P(tau), with
    multiplicities, resolved by `_resolve_roots`; each distinct mode
    polynomial is solved once, for its first label.  Exact zero top
    coefficients are dropped; when the leading coefficient is then
    invertible (every scalar, and every elliptic system) the
    approximations are the eigenvalues of the block companion matrix,
    with all polynomials of one degree in one batch of slices of the
    family's array.  A system whose leading matrix is singular takes them
    from the roots of the interpolated `IndicialFamily.det_poly`."""
    first, class_of = f.class_rows
    reps = f.coeffs[first]
    labels = [f.channels.labels[i] for i in first]
    nonzero = reps.any(axis=(2, 3))
    batches: dict[int, list[int]] = {}  # degree -> classes
    for c, row in enumerate(nonzero):
        if not row.any():
            raise FredholmKitError(
                f"indicial polynomial of mode {labels[c]} is identically zero")
        batches.setdefault(int(np.flatnonzero(row)[-1]), []).append(c)
    by_class: list = [None] * len(first)
    for deg, members in batches.items():
        members = np.array(members)
        stack = reps[members, :deg + 1].swapaxes(0, 1)
        full = np.linalg.matrix_rank(stack[-1]) == f.system_size
        for c in members[~full]:
            by_class[c] = _interpolated_roots(f, labels[c])
        if not full.any():
            continue
        chosen = members[full]
        try:
            found = _linearized_roots(stack[:, full])
        except _RootFailure as e:
            raise FredholmKitError(f"root refinement failed on mode {labels[chosen[e.index]]}: "
                                   f"{e}") from None
        for c, roots in zip(chosen, found):
            by_class[c] = roots
    roots = [IndicialRoot(label, tau, 1j * tau, mult)
             for label, c in zip(f.channels.labels, class_of.tolist())
             for tau, mult, _ in by_class[c]]
    roots.sort(key=lambda r: (r.mellin.real, r.mellin.imag, r.mode))
    return roots


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


def normal_invertible(f: IndicialFamily, delta: float,
                      roots: list[IndicialRoot] | None = None) -> LineVerdict:
    """Invertibility of the normal operator on the weight-delta line: yes
    iff no indicial root satisfies Re(z) = delta.  Roots within 1e-8 of
    the line are reported as borderline rather than guessed."""
    if roots is None:
        roots = indicial_roots(f)
    if not roots:
        return LineVerdict("yes", math.inf, None)
    best = min(roots, key=lambda r: abs(r.mellin.real - delta))
    dist = abs(best.mellin.real - delta)
    if dist <= _ON_LINE_TOL * max(1.0, abs(best.tau)):
        return LineVerdict("no", dist, best)
    if dist <= _BORDERLINE_TOL:
        return LineVerdict("borderline", dist, best)
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
    is positive and whose lower coefficients are <= 0 (one sign change)."""
    roots = np.polynomial.polynomial.polyroots(coeffs)
    best = 0.0
    for z in roots:
        if abs(z.imag) <= 1e-9 * (1 + abs(z.real)) and z.real > best:
            best = float(z.real)
    return best


def tail_bound(base: BoundaryOperator, delta_abs: float, mu0: float) -> TailBound:
    """Certificate that high modes stay invertible on every line
    |Re z| <= delta_abs, from the coefficient norms of the normal operator
    `base` (as `normal_operator` returns it) and the symbol floor mu0
    (`symbol_min_singular` of base at r = 0).  Without a positive floor,
    or when an envelope weight overflows, the tail is uncertified: s0 and
    lambda_certified are infinite."""
    m = base.order
    envelope: dict[int, float] = {}
    for mi, co in base.terms:
        for ct in co.terms:
            q = ct.lam_poly or (1.0 + 0j,)
            vnorm = _value_norm(ct.value)
            qtop = len(q) - 1
            for i, qi in enumerate(q):
                if qi == 0:
                    continue
                for j in range(mi.radial + 1):
                    d = j + sum(mi.cross) + 2 * mi.laplacian + 2 * i
                    if d == m and j == mi.radial and i == qtop:
                        continue  # this piece is the principal symbol itself
                    try:
                        power = delta_abs ** (mi.radial - j)
                    except OverflowError:
                        power = math.inf
                    w = vnorm * abs(qi) * math.comb(mi.radial, j) * power
                    envelope[d] = envelope.get(d, 0.0) + w
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
    `tail_bound` (monotone in delta, solved by bisection)."""
    if tail_bound(base, 0.0, mu0).lambda_certified > cutoff:
        return 0.0
    lo, hi = 0.0, 1.0
    while tail_bound(base, hi, mu0).lambda_certified <= cutoff and hi < 1e6:
        lo, hi = hi, 2 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if tail_bound(base, mid, mu0).lambda_certified <= cutoff:
            lo = mid
        else:
            hi = mid
    return lo


def safe_weight_intervals(roots: list[IndicialRoot], lo: float, hi: float,
                          ) -> list[tuple[float, float]]:
    """Maximal open delta intervals inside [lo, hi] avoiding every
    Re(mellin) of the given roots (which must be complete on that range)."""
    if hi <= lo:
        return []
    bad: list[float] = []
    for r in sorted(roots, key=lambda r: r.mellin.real):
        x = r.mellin.real
        if x < lo - 1e-12 or x > hi + 1e-12:
            continue
        if bad and abs(x - bad[-1]) <= 1e-9:
            continue
        bad.append(x)
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


def _sc_axes(sym: ScSymbol, radius: float, n_axis: int) -> list[np.ndarray]:
    axes = [np.linspace(-radius, radius, n_axis)]
    for _ in range(sym.covector_dim - 1):
        if sym.magnitude_slot:
            axes.append(np.linspace(0.0, radius, (n_axis + 1) // 2))
        else:
            axes.append(np.linspace(-radius, radius, n_axis))
    return axes


def _sc_eval_grid(sym: ScSymbol, axes: list[np.ndarray]):
    pts = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    eta = pts[:, 1:]
    eta2 = sum((e * e for e in eta.T), np.zeros(pts.shape[0]))
    vals = sym.stack(pts[:, 0], eta, eta2)
    dets = np.abs(vals if sym.system_size == 1 else np.linalg.det(vals))
    idx = int(np.argmin(dets))
    return float(dets[idx]), tuple(float(x) for x in pts[idx])


def _sc_scan(sym: ScSymbol, radius: float, n_axis: int, zooms: int):
    axes = _sc_axes(sym, radius, n_axis)
    best, point = _sc_eval_grid(sym, axes)
    width = 2 * radius / max(1, n_axis - 1)
    for _ in range(zooms):
        zoom_axes = []
        for d, x in enumerate(point):
            lo_lim = 0.0 if (sym.magnitude_slot and d > 0) else -radius
            a = max(lo_lim, x - 2 * width)
            b = min(radius, x + 2 * width)
            zoom_axes.append(np.linspace(a, b, 33))
        v, p = _sc_eval_grid(sym, zoom_axes)
        if v < best:
            best, point = v, p
        width = (zoom_axes[0][-1] - zoom_axes[0][0]) / 32
    return best, point


def sc_invertible(sym: ScSymbol, n_axis: int | None = None,
                  zooms: int = 8) -> ScVerdict:
    """Invertibility of a constant-coefficient symbol on the abelian
    tangent group, such as `full_symbol(freeze_coefficients(p))` of an sc
    or c_gamma operator.

    |det| of the full symbol is evaluated on a grid over the box
    |xi_j| <= R, where R is the radius beyond which the principal symbol
    floor keeps |det| above _SC_THRESHOLD.  Each of `zooms` rounds
    re-grids a box of four grid steps around the running minimum with 33
    points per axis, so the step shrinks eightfold per round.  The scan
    runs at two base resolutions; the status is "no" when the minimum is
    at most _SC_THRESHOLD, "yes" above it, and "undecided" when the two
    resolutions disagree."""
    k = sym.system_size
    xi, eta, eta2 = unit_covectors(sym.covector_dim, FLOOR_DIRECTIONS, sym.magnitude_slot)
    mu0 = _min_singular(sym.stack(xi, eta, eta2, principal=True))
    if mu0 <= 1e-12:
        return ScVerdict("undecided", math.nan, None, math.nan, ())
    thr_sigma = _SC_THRESHOLD ** (1.0 / k)
    norms = sym.coefficient_norms_by_degree()
    coeffs = np.zeros(sym.order + 1)
    coeffs[sym.order] = mu0
    for d, w in norms.items():
        if d < sym.order:
            coeffs[d] -= w
    coeffs[0] -= thr_sigma
    radius = max(1.0, _positive_root(coeffs) * 1.01)
    if n_axis is None:
        n_axis = {1: 4001, 2: 201, 3: 61}.get(sym.covector_dim, 21)
    resolutions = []
    final = None
    for n in (max(5, (2 * n_axis) // 3) | 1, n_axis | 1):
        v, p = _sc_scan(sym, radius, n, zooms)
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
    verdict: str
    delta: float
    convention: str
    elliptic: EllipticityResult
    limit_verdicts: tuple[LimitVerdict, ...]
    roots: tuple[IndicialRoot, ...]
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
            "indicial_roots": [r.as_dict() for r in self.roots],
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
    roots: tuple[IndicialRoot, ...] = ()
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
        mu0 = symbol_min_singular(nop)
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
            roots = tuple(indicial_roots(fam))
        except FredholmKitError as e:
            if ell.elliptic:
                raise
            # the symbol alone decides NotFredholm: keep that verdict, list
            # no roots and no safe weights, and say why
            line = LineVerdict("numerical-evidence", math.inf, None)
            caveats.append(f"indicial roots not computed ({e}); the verdict "
                           "rests on the failed ellipticity alone")
        else:
            line = normal_invertible(fam, delta, list(roots))
            safe = tuple(safe_weight_intervals(list(roots), -w_cert, w_cert))
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
        from .numoracle import half_space_sample  # deferred to avoid a cycle
        scan = half_space_sample(freeze_coefficients(p))
        limit_verdicts.append(LimitVerdict(
            "point:x0", "zero half-space model, sampled min singular values",
            "numerical-evidence",
            {"argmin": scan.argmin_label()},
            scan.as_dict()))
        cutoffs = {"halfspace_truncations": [[lv["T"], lv["n"]] for lv in scan.ladder]}
        caveats.append("zero-structure limit operators live on a "
                       "noncommutative group; min-singular-value samples on "
                       "the flat log-coordinate L2 of the model half-space "
                       "are numerical evidence, not a criterion")
    else:  # sc and c_gamma
        mechanism, evidence_only = _SYMBOL_LIMITS[kind]
        sv = sc_invertible(full_symbol(freeze_coefficients(p)))
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
