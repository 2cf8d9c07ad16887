"""The independent oracle: line scans, contour roots, half-space sampling,
and the cross-check ledger (including a tampered-report negative control)."""

import dataclasses
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fredholm_kit import (
    Coefficient,
    CrossSection,
    FredholmKitError,
    FredholmOptions,
    IndicialFamily,
    LieStructure,
    MultiIndex,
    brute_roots,
    builtin_suite,
    cross_check,
    fredholm_check,
    half_space_sample,
    identity_operator,
    indicial_family,
    indicial_roots,
    limit_operator,
    make_model,
    make_operator,
    normal_operator,
    scan_line,
    spectrum,
)
from fredholm_kit import numoracle
from fredholm_kit._util import round12

B1 = LieStructure.b(1)
CIRCLE = CrossSection.circle()


def family_of(p, cutoff):
    return indicial_family(normal_operator(p), spectrum(p.cross_section, cutoff))


def conjugated_system():
    """A 2x2 b system over the circle whose coefficients are not diagonal."""
    s = np.array([[1.0, 0.4], [-0.3, 1.2]])

    def conj(d):
        return s @ np.diag(d) @ np.linalg.inv(s)

    return make_operator(B1, CIRCLE, {
        MultiIndex(2): Coefficient.constant(np.eye(2)),
        MultiIndex(1): Coefficient.constant(conj([0.5, -0.25])),
        MultiIndex(0, (), 1): Coefficient.constant(np.eye(2)),
        MultiIndex(0): Coefficient.constant(conj([-1.0, -2.0])),
    })


def cylinder_shifted(lam):
    terms = {MultiIndex(2): 1.0, MultiIndex(0, (), 1): 1.0}
    if lam:
        terms[MultiIndex(0)] = -float(lam)
    return make_operator(B1, CIRCLE, terms)


# ---------------------------------------------------------------------------
# line scans
# ---------------------------------------------------------------------------


def test_scan_polar_dips_to_zero_on_line():
    fam = family_of(make_model("polar_laplacian"), 40.0)
    scan = scan_line(fam, 0.0, (-5.0, 5.0), 2001)
    assert scan.global_min < 1e-3
    assert abs(scan.argmin) < 1e-9


def test_scan_shifted_cylinder_floor():
    fam = family_of(cylinder_shifted(1.0), 40.0)
    scan = scan_line(fam, 0.0, (-5.0, 5.0), 2001)
    assert scan.global_min >= 1.0 - 1e-12


def test_scan_degenerate_two_point_grid():
    fam = family_of(make_model("polar_laplacian"), 0.5)
    scan = scan_line(fam, 0.0, (1.0, 1.0 + 1e-3), 2, refinements=0)
    assert len(scan.ladder) == 1
    assert scan.global_min == min(scan.min_singular)


def test_scan_refinement_monotone():
    fam = family_of(make_model("spherical_schrodinger", n=3, Z=1.0), 40.0)
    scan = scan_line(fam, 0.3, (-7.0, 7.0), 501)
    mins = [step["global_min"] for step in scan.ladder]
    assert all(b <= a + 1e-12 for a, b in zip(mins, mins[1:]))


def test_scan_rejects_negative_refinements():
    fam = family_of(make_model("polar_laplacian"), 4.5)
    with pytest.raises(ValueError, match="refinements"):
        scan_line(fam, 0.0, (-1.0, 1.0), 11, refinements=-1)


W = 3.0 ** 0.5  # a witness-like window center off every dyadic grid


@pytest.mark.parametrize("which", ["scalar", "system"])
@pytest.mark.parametrize("trange,pts,refinements", [
    ((-10.0, 10.0), 2001, 0),
    ((-10.0, 10.0), 2001, 1),
    ((-10.0, 10.0), 2001, 2),
    ((W - 0.02, W + 0.02), 801, 1),
])
def test_nested_scan_matches_per_level_grids(which, trange, pts, refinements):
    if which == "scalar":
        fam, delta = family_of(make_model("spherical_schrodinger", n=3, Z=1.0), 40.0), 0.3
    else:
        fam, delta = family_of(conjugated_system(), 20.0), -0.3
    scan = scan_line(fam, delta, trange, pts, refinements)
    finest = np.array(scan.points)
    fine_vals = np.array(scan.min_singular)
    # reference: every level evaluated on its own linspace grid
    ladder = []
    npts = pts
    for level in range(refinements, -1, -1):
        grid = np.linspace(trange[0], trange[1], npts)
        vals = numoracle._family_min_singular(fam, grid - 1j * delta)
        assert np.array_equal(finest[::2 ** level], grid)
        assert np.array_equal(fine_vals[::2 ** level], vals)
        i = int(np.argmin(vals))
        ladder.append({"points": npts, "global_min": round12(float(vals[i])),
                       "argmin_tau": round12(float(grid[i]))})
        npts = 2 * npts - 1
    assert scan.points == tuple(float(t) for t in grid)
    assert scan.min_singular == tuple(float(v) for v in vals)
    assert scan.ladder == tuple(ladder)
    assert scan.global_min == float(np.min(vals))


def test_scan_csv_format(tmp_path):
    fam = family_of(make_model("polar_laplacian"), 4.5)
    scan = scan_line(fam, 0.0, (-1.0, 1.0), 11, refinements=0)
    path = tmp_path / "scan.csv"
    scan.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "point,minSingular"
    assert len(lines) == 12


# ---------------------------------------------------------------------------
# argument-principle roots
# ---------------------------------------------------------------------------


def test_brute_roots_factorable_quadratic():
    roots = brute_roots([-2, 1, 1])  # (z - 1)(z + 2)
    assert len(roots) == 2
    zs = sorted(z.real for z, _, _ in roots)
    assert_allclose(zs, [-2.0, 1.0], atol=1e-8)
    assert all(res < 1e-10 for _, _, res in roots)
    assert all(m == 1 for _, m, _ in roots)


def test_brute_roots_double_at_origin():
    roots = brute_roots([0, 0, 1])
    assert len(roots) == 1
    z, mult, _ = roots[0]
    assert mult == 2 and abs(z) < 1e-8


def test_brute_roots_difference_of_squares():
    roots = brute_roots([9, 0, -1])
    zs = sorted(z.real for z, _, _ in roots)
    assert_allclose(zs, [-3.0, 3.0], atol=1e-8)


def test_brute_roots_rejects_vanishing_leading_coefficient():
    with pytest.raises(FredholmKitError):
        brute_roots([1.0, 1e-15])


def test_brute_roots_agrees_with_companion_on_random_polys():
    rng = np.random.default_rng(42)
    for _ in range(100):
        deg = int(rng.integers(1, 7))
        coeffs = rng.uniform(-10, 10, deg + 1) + 1j * rng.uniform(-10, 10, deg + 1)
        while abs(coeffs[-1]) < 0.5:
            coeffs[-1] = rng.uniform(-10, 10) + 1j * rng.uniform(-10, 10)
        companion = np.sort_complex(np.polynomial.polynomial.polyroots(coeffs))
        contour = []
        for z, mult, _ in brute_roots(coeffs):
            contour.extend([z] * mult)
        contour = np.sort_complex(np.array(contour))
        assert len(contour) == len(companion)
        assert np.max(np.abs(contour - companion)) < 1e-7 * max(
            1.0, float(np.max(np.abs(companion))))


def roots_inside(roots, box):
    x0, x1, y0, y1 = box
    return int(sum(x0 < r.real < x1 and y0 < r.imag < y1 for r in roots))


def edge_distance(roots, box):
    x0, x1, y0, y1 = box
    return min(min(abs(r.real - x0), abs(r.real - x1), abs(r.imag - y0),
                   abs(r.imag - y1)) for r in roots)


def test_batched_winding_counts_match_single_boxes():
    rng = np.random.default_rng(20261018)
    settled = 0
    for _ in range(60):
        deg = int(rng.integers(1, 9))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        x0, y0 = rng.uniform(-3.0, 0.0, 2)
        x1, y1 = x0 + rng.uniform(0.5, 4.0), y0 + rng.uniform(0.5, 4.0)
        fx, fy = rng.uniform(0.3, 0.7, 2)
        xm, ym = x0 + fx * (x1 - x0), y0 + fy * (y1 - y0)
        boxes = [(x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1)]
        singles = []
        for box in boxes:
            try:
                singles.append(numoracle._winding_counts(coeffs, [box])[0])
            except numoracle._ContourError:
                singles.append(None)
        if None in singles:
            with pytest.raises(numoracle._ContourError):
                numoracle._winding_counts(coeffs, boxes)
            continue
        settled += 1
        assert numoracle._winding_counts(coeffs, boxes) == singles
        roots = np.polynomial.polynomial.polyroots(coeffs)
        for box, count in zip(boxes, singles):
            if edge_distance(roots, box) > 1e-3:
                assert count == roots_inside(roots, box)
    assert settled > 40


def test_batched_winding_counts_escalate_one_box():
    # a root 1e-4 inside the bottom edge of the middle box, halfway between
    # two of the 64 points per side: that pass steps over it, a finer pass
    # settles it without touching the other boxes
    coeffs = np.polynomial.polynomial.polyfromroots([0.5 + 1 / 128 + 1e-4j, 2.5 + 0.5j])
    boxes = [(-1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 1.0), (2.0, 3.0, 0.0, 1.0)]
    assert numoracle._contour_counts(coeffs, boxes, 64) == [0, None, 1]
    assert numoracle._winding_counts(coeffs, boxes) == [0, 1, 1]


def test_winding_counts_root_on_corner_raises_without_warning():
    coeffs = np.array([-2.0, 1.0, 1.0], dtype=complex)  # (z - 1)(z + 2)
    boxes = [(1.0, 2.0, 0.0, 1.0), (-3.0, -1.0, -1.0, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(numoracle._ContourError):
            numoracle._winding_counts(coeffs, boxes)
        assert numoracle._winding_counts(coeffs, boxes[1:]) == [1]


# ---------------------------------------------------------------------------
# half-space sampling
# ---------------------------------------------------------------------------


def geometers_hyperbolic_model(shift):
    z1, tor = LieStructure.zero(1), CrossSection.torus(1)
    terms = {MultiIndex(2): -1.0, MultiIndex(0, (), 1): -1.0}
    if shift:
        terms[MultiIndex(0)] = float(shift)
    return make_operator(z1, tor, terms)


def test_half_space_shifted_model_bounded_below():
    scan = half_space_sample(limit_operator(geometers_hyperbolic_model(1.0)))
    mins = [step["global_min"] for step in scan.ladder]
    assert all(m >= 1.0 - 1e-9 for m in mins)
    assert scan.caveat is not None


def test_half_space_bare_model_decays_toward_zero():
    scan = half_space_sample(limit_operator(geometers_hyperbolic_model(0.0)))
    mins = [step["global_min"] for step in scan.ladder]
    assert mins[-1] < mins[0] / 2
    assert mins[-1] < 0.05


def test_half_space_identity_is_exactly_one():
    scan = half_space_sample(limit_operator(identity_operator(
        LieStructure.zero(1), CrossSection.torus(1))))
    assert scan.global_min == pytest.approx(1.0, abs=1e-12)


def test_half_space_rejects_non_zero_structures():
    with pytest.raises(FredholmKitError):
        half_space_sample(limit_operator(make_model("sc_laplacian", cross_dim=1)))


# ---------------------------------------------------------------------------
# the cross-check ledger
# ---------------------------------------------------------------------------


def test_cross_check_passes_on_polar_report():
    p = make_model("polar_laplacian")
    report = fredholm_check(p, 0.0)
    ledger = cross_check(p, report)
    assert ledger.passed
    assert any(e.name == "line-verdict" and e.status == "pass"
               for e in ledger.entries)


def test_cross_check_passes_on_shifted_cylinder():
    p = cylinder_shifted(1.0)
    report = fredholm_check(p, 0.0)
    assert cross_check(p, report).passed


def test_cross_check_fails_on_tampered_report():
    p = make_model("polar_laplacian")
    report = fredholm_check(p, 0.5)
    tampered = dataclasses.replace(report, roots=report.roots[1:])
    ledger = cross_check(p, tampered)
    assert not ledger.passed
    bad = ledger.first_failure()
    assert "not re-found" in bad.detail or "missing" in bad.detail
    missing = report.roots[0]
    assert f"{missing.tau:.9g}"[:6] in bad.detail or "brute root" in bad.detail


@pytest.mark.parametrize("delta", [-0.5, 0.0, 0.3])
def test_cross_check_passes_on_every_builtin(delta):
    for name, op in builtin_suite():
        report = fredholm_check(op, delta)
        ledger = cross_check(op, report)
        assert ledger.passed, f"{name} at delta={delta}: {ledger.first_failure()}"


# ---------------------------------------------------------------------------
# channels sharing a mode polynomial
# ---------------------------------------------------------------------------


def test_mode_classes_solved_once_match_per_label_roots(monkeypatch):
    # on T^2 the frozen polynomial depends on |k1| only, so classes collapse
    p = make_model("cyl_coord_laplacian")
    fam = family_of(p, 10.0)
    classes = fam.classes()
    assert len(classes) < len(fam.channels)
    assert sorted(label for c in classes for label in c) == sorted(fam.labels())
    roots = indicial_roots(fam)
    for ch in fam.channels:
        alone = IndicialFamily((ch,), {ch.label: fam.poly(ch.label)},
                               fam.source_cutoff, 1, fam.structure_kind)
        mine = [(r.tau, r.multiplicity) for r in roots if r.mode == ch.label]
        assert mine == [(r.tau, r.multiplicity) for r in indicial_roots(alone)]

    calls = []

    def counting(coeffs, *args, **kwargs):
        calls.append(1)
        return brute_roots(coeffs, *args, **kwargs)

    monkeypatch.setattr(numoracle, "brute_roots", counting)
    report = fredholm_check(p, 0.5, FredholmOptions(mode_cutoff=10.0))
    ledger = cross_check(p, report)
    assert ledger.passed
    checked = family_of(p, report.cutoffs["mode_cutoff"])
    assert [e.name for e in ledger.entries if e.name.startswith("roots[")] == \
        [f"roots[{label}]" for label in checked.labels()]
    assert len(calls) == len(checked.classes()) < len(checked.channels)


def test_batched_system_scan_matches_per_point_svd():
    fam = family_of(conjugated_system(), 20.0)
    assert fam.system_size == 2
    taus = np.linspace(-10.0, 10.0, 2501) - 0.3j  # spans several chunks
    reference = np.full(taus.shape, np.inf)
    for ch in fam.channels:
        for i, tau in enumerate(taus):
            m = IndicialFamily._eval_matrix(fam.poly(ch.label), complex(tau))
            reference[i] = min(reference[i],
                               float(np.linalg.svd(m, compute_uv=False)[-1]))
    batched = numoracle._family_min_singular(fam, taus)
    assert np.array_equal(batched, reference)
