"""The independent oracle: line scans, contour roots, half-space sampling,
and the cross-check ledger (including a tampered-report negative control)."""

import dataclasses
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fredholm_kit import (
    CoeffTerm,
    Coefficient,
    CrossSection,
    FredholmKitError,
    FredholmOptions,
    ChannelTable,
    IndicialFamily,
    LieStructure,
    MultiIndex,
    brute_roots,
    builtin_suite,
    cross_check,
    default_mode_cutoff,
    fredholm_check,
    freeze_coefficients,
    half_space_sample,
    identity_operator,
    indicial_family,
    indicial_roots,
    make_model,
    make_operator,
    normal_operator,
    scan_line,
    spectrum,
)
from fredholm_kit import limitops, numoracle
from fredholm_kit._util import round12
from conftest import (
    JORDAN_SHIFTS,
    LARGE_SHIFTS,
    b_system_order2,
    b_system_order4,
    b_system_shifted,
    order2_mellin_roots,
    order4_mellin_roots,
    shifted_mellin_roots,
)

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


def test_brute_roots_of_a_4x4_order4_stack_match_closed_form():
    # the top mode of the default cutoff: 16 roots, neighbours 4.5e-3 apart
    fam = family_of(b_system_order4(), 840.0)
    coeffs = fam.poly("k=28")
    assert coeffs.shape == (5, 4, 4)
    found = brute_roots(coeffs)
    assert [m for _, m, _ in found] == [1] * 16
    got = np.sort_complex(np.array([1j * z for z, _, _ in found]))  # mellin = i tau
    want = np.sort_complex(np.array(order4_mellin_roots(28), dtype=complex))
    assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))


@pytest.mark.parametrize("shifts, coupled, mult, seed", [
    (JORDAN_SHIFTS, True, 4, 7), (LARGE_SHIFTS, False, 2, 7), ((0.0, 1e3, 1.0, 2.0), False, 2, 6)],
    ids=["jordan", "large-shift", "shift-1e3-seed-6"])
def test_brute_roots_merge_a_multiple_root_that_rounding_splits(shifts, coupled, mult, seed):
    # mode 0: det P has a root of multiplicity mult at 0, which rounding
    # splits into simple roots of the stored coefficients
    coeffs = family_of(b_system_shifted(shifts, coupled, seed), 1.0).poly("k=0")
    found = brute_roots(coeffs)
    zero = [(z, m) for z, m, _ in found if abs(z) < 1e-3]
    assert len(zero) == 1 and zero[0][1] == mult
    assert abs(zero[0][0]) < 1e-12
    rest = np.sort_complex(np.array([1j * z for z, m, _ in found if abs(z) >= 1e-3]))
    want = np.sort_complex(np.array([z for z in shifted_mellin_roots(shifts)(0) if z], dtype=complex))
    assert np.all(np.abs(rest - want) <= 1e-10 * np.abs(want))


def ill_scaled_stack(seed):
    """A seeded (4, 3, 3) stack whose coefficient scales spread over twelve
    orders of magnitude."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((4, 3, 3)) * 10.0 ** rng.uniform(-6, 6, (4, 1, 1))


def test_brute_roots_batch_matches_one_polynomial_at_a_time():
    s = np.array([[1.0, 0.4], [-0.3, 1.2]])

    def similar(*diag):
        return s @ np.diag(diag) @ np.linalg.inv(s)

    jordan = family_of(b_system_shifted(JORDAN_SHIFTS, coupled=True), 1.0)
    polys = [
        [-2, 1, 1],  # (z - 1)(z + 2)
        list(np.polynomial.polynomial.polyfromroots([0.5, -1.0, 3j])) + [0, 0],
        [3.0, 0.0],  # a nonzero constant: no roots
        # blocks z^2 - 1 and z^2 + 0.5 z - 2, and the same with a singular
        # leading matrix
        np.stack([similar(-1.0, -2.0), similar(0.0, 0.5), np.eye(2)]),
        np.stack([similar(-1.0, -2.0), similar(0.0, 0.5), similar(1.0, 0.0)]),
        jordan.poly("k=0"),  # a Jordan chain of length 4 at 0: merged, moment-centered
        jordan.poly("k=1"),
        ill_scaled_stack(0),
        ill_scaled_stack(30),  # a Newton step in `_resolve_roots` fails
    ]
    batch = numoracle._brute_roots_batch(polys)
    assert len(batch) == len(polys)
    for coeffs, (roots, failure) in zip(polys, batch):
        try:
            alone = brute_roots(coeffs)
        except FredholmKitError as e:
            assert roots is None and failure == str(e)
        else:
            assert failure is None and roots == alone
    failures = [failure for _, failure in batch]
    assert failures[4] == "leading coefficient below 1e-14"
    assert failures[8].startswith("Newton step")
    assert [i for i, f in enumerate(failures) if f is not None] == [4, 8]
    assert batch[2] == ([], None)
    assert [m for _, m, _ in batch[5][0]].count(4) == 1
    # the failing polynomials change nothing for their neighbours
    healthy = [c for c, failure in zip(polys, failures) if failure is None]
    assert numoracle._brute_roots_batch(healthy) == [b for b in batch if b[1] is None]


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
        row = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        coeffs = row[:, None, None]
        x0, y0 = rng.uniform(-3.0, 0.0, 2)
        x1, y1 = x0 + rng.uniform(0.5, 4.0), y0 + rng.uniform(0.5, 4.0)
        fx, fy = rng.uniform(0.3, 0.7, 2)
        xm, ym = x0 + fx * (x1 - x0), y0 + fy * (y1 - y0)
        boxes = [(x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1)]
        singles = []
        for box in boxes:
            try:
                singles.append(limitops._winding_counts(coeffs, [box])[0])
            except limitops._ContourError:
                singles.append(None)
        if None in singles:
            with pytest.raises(limitops._ContourError):
                limitops._winding_counts(coeffs, boxes)
            continue
        settled += 1
        assert limitops._winding_counts(coeffs, boxes) == singles
        roots = np.polynomial.polynomial.polyroots(row)
        for box, count in zip(boxes, singles):
            if edge_distance(roots, box) > 1e-3:
                assert count == roots_inside(roots, box)
    assert settled > 40


def test_batched_winding_counts_escalate_one_box():
    # a root 1e-4 inside the bottom edge of the middle box, halfway between
    # two of the 64 points per side: that pass steps over it, a finer pass
    # settles it without touching the other boxes
    coeffs = np.polynomial.polynomial.polyfromroots([0.5 + 1 / 128 + 1e-4j, 2.5 + 0.5j])
    coeffs = coeffs[:, None, None]
    boxes = [(-1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 1.0), (2.0, 3.0, 0.0, 1.0)]
    assert limitops._contour_counts(coeffs, boxes, 64) == [0, None, 1]
    assert limitops._winding_counts(coeffs, boxes) == [0, 1, 1]


def test_winding_counts_root_on_corner_raises_without_warning():
    coeffs = np.array([-2.0, 1.0, 1.0], dtype=complex)[:, None, None]  # (z - 1)(z + 2)
    boxes = [(1.0, 2.0, 0.0, 1.0), (-3.0, -1.0, -1.0, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(limitops._ContourError):
            limitops._winding_counts(coeffs, boxes)
        assert limitops._winding_counts(coeffs, boxes[1:]) == [1]


def test_batched_winding_counts_fail_one_polynomial_only():
    # (z - 1)(z + 2) has a root on a corner of the first box; the other
    # polynomial, (z - 1.5 - 0.5i)(z + 2), has its root inside it
    coeffs = np.stack([np.array([-2.0, 1.0, 1.0], dtype=complex),
                       np.polynomial.polynomial.polyfromroots([1.5 + 0.5j, -2.0])],
                      axis=1)[:, :, None, None]
    boxes = [(1.0, 2.0, 0.0, 1.0), (-3.0, -1.0, -1.0, 1.0)] * 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert limitops._winding_counts(coeffs, boxes, [0, 0, 1, 1]) == [None, 1, 1, 1]


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
    scan = half_space_sample(freeze_coefficients(geometers_hyperbolic_model(1.0)))
    mins = [step["global_min"] for step in scan.ladder]
    assert all(m >= 1.0 - 1e-9 for m in mins)
    assert scan.caveat is not None


def test_half_space_bare_model_decays_toward_zero():
    scan = half_space_sample(freeze_coefficients(geometers_hyperbolic_model(0.0)))
    mins = [step["global_min"] for step in scan.ladder]
    assert mins[-1] < mins[0] / 2
    assert mins[-1] < 0.05


def test_half_space_identity_is_exactly_one():
    scan = half_space_sample(freeze_coefficients(identity_operator(
        LieStructure.zero(1), CrossSection.torus(1))))
    assert scan.global_min == pytest.approx(1.0, abs=1e-12)


def test_half_space_rejects_non_zero_structures():
    with pytest.raises(FredholmKitError):
        half_space_sample(freeze_coefficients(make_model("sc_laplacian", cross_dim=1)))


def reference_halfspace_matrix(frozen, eta, T, n):
    """The half-space discretization with its tangential diagonal built one
    collocation node at a time from Python scalars."""
    d, x = numoracle._chebyshev_matrix(n)
    d = d / T
    es = np.exp(T * x)
    k, size = frozen.system_size, n + 1
    eta2 = float(np.dot(eta, eta))
    total = np.zeros((k * size, k * size), dtype=complex)
    for mi, co in frozen.terms:
        mat = np.eye(size, dtype=complex)
        for _ in range(mi.radial):
            mat = d @ mat
        diag = []
        for s in es:  # the covector s * eta at the node s = e^sigma
            factor = complex((-(s * s * eta2)) ** mi.laplacian)
            for j, pw in enumerate(mi.cross):
                if pw:
                    factor *= (1j * (s * eta[j])) ** pw
            diag.append(factor)
        mat = mat * np.array(diag)
        for ct in co.terms:
            value = ct.value if isinstance(ct.value, np.ndarray) else ct.value * np.eye(k)
            total += np.kron(value, mat)
    keep = [b * size + i for b in range(k) for i in range(1, size - 1)]
    return total[np.ix_(keep, keep)]


@pytest.mark.parametrize("system", [False, True])
def test_halfspace_matrix_matches_per_node_loop(system):
    rng = np.random.default_rng(8)
    lead = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) if system else 1.0
    p = make_operator(LieStructure.zero(2), CrossSection.torus(2), {
        MultiIndex(4): lead,
        MultiIndex(2): -1.0,
        MultiIndex(0, (1, 1), 1): complex(rng.normal(), rng.normal()),
        MultiIndex(0, (), 2): complex(rng.normal(), rng.normal()),
        MultiIndex(0, (2, 0)): 1.0,
        MultiIndex(0): 2.0,
    }, order=4)
    frozen = freeze_coefficients(p)
    for eta in (np.zeros(2), np.array([0.5, 1.5]), np.array([2.0, -0.7])):
        assert np.array_equal(numoracle._halfspace_matrix(frozen, eta, 4.0, 24),
                              reference_halfspace_matrix(frozen, eta, 4.0, 24))


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


def test_cross_check_passes_on_a_4x4_order4_system():
    p = b_system_order4()
    report = fredholm_check(p, 0.3)
    ledger = cross_check(p, report)
    assert ledger.passed, ledger.first_failure()
    assert sum(e.name.startswith("roots[") for e in ledger.entries) == 29


def test_cross_check_names_a_root_moved_by_1e_6():
    p = b_system_order2()
    report = fredholm_check(p, 0.3)
    # z = (-0.5 + sqrt(4.25)) / 2 on mode k=0, where the match tolerance is 1e-7
    i = min(range(len(report.roots)), key=lambda j: abs(
        report.roots[j].mellin - order2_mellin_roots(0)[1]))
    moved = report.roots[i]
    assert moved.mode == "k=0"
    roots = list(report.roots)
    roots[i] = dataclasses.replace(moved, tau=moved.tau + 1e-6)
    bad = cross_check(p, dataclasses.replace(report, roots=tuple(roots))).first_failure()
    assert bad.name == "roots[k=0]"
    assert "missing from report" in bad.detail
    assert f"{moved.tau.imag:.6g}" in bad.detail


def test_cross_check_fails_only_the_class_whose_roots_fail():
    # leading matrix diag(1, L - 1): singular on the modes k = +-1 alone
    p = make_operator(B1, CIRCLE, {
        MultiIndex(2): Coefficient([CoeffTerm(0, np.diag([1.0, 0.0])),
                                    CoeffTerm(0, np.diag([0.0, 1.0]), (-1.0, 1.0))]),
        MultiIndex(0, (), 1): Coefficient.constant(np.eye(2)),
        MultiIndex(0): Coefficient.constant(np.diag([-2.0, -2.0])),
    })
    report = fredholm_check(p, 0.3, FredholmOptions(mode_cutoff=10.0))
    labels = family_of(p, report.cutoffs["mode_cutoff"]).channels.labels
    entries = [e for e in cross_check(p, report).entries if e.name.startswith("roots[")]
    assert [e.name for e in entries] == [f"roots[{label}]" for label in labels]
    assert [e.status for e in entries] == ["fail" if label == "k=1" else "pass"
                                           for label in labels]
    assert [e.detail for e in entries if e.status == "fail"] == \
        ["leading coefficient below 1e-14"]


def test_contour_passes_stay_within_the_chunk(monkeypatch):
    """The oracle's winding counts on the 4x4 order-4 system take passes of
    at most _CONTOUR_CHUNK matrix entries, and boxes of different
    polynomials share a pass."""
    p = b_system_order4()
    report = fredholm_check(p, 0.3)
    assert len(family_of(p, report.cutoffs["mode_cutoff"]).classes()) == 29
    passes = []  # (matrix entries, distinct polynomials) per pass
    counts = limitops._contour_counts

    def recorded(coeffs, boxes, n_side):
        polys = {coeffs[:, i].tobytes() for i in range(len(boxes))}
        passes.append((len(boxes) * (4 * n_side + 1) * coeffs.shape[-1] ** 2, len(polys)))
        return counts(coeffs, boxes, n_side)

    monkeypatch.setattr(limitops, "_contour_counts", recorded)
    assert cross_check(p, report).passed
    assert passes and max(entries for entries, _ in passes) <= limitops._CONTOUR_CHUNK
    assert max(polys for _, polys in passes) > 1


def test_a_full_rank_leading_coefficient_is_never_interpolated(monkeypatch):
    def refuse(self, label):
        raise AssertionError(f"det_poly called for {label}")

    monkeypatch.setattr(IndicialFamily, "det_poly", refuse)
    for p in (conjugated_system(), b_system_order2(), make_model("polar_laplacian"),
              make_model("cyl_coord_laplacian")):
        report = fredholm_check(p, 0.3)
        assert report.roots and cross_check(p, report).passed


# ---------------------------------------------------------------------------
# channels sharing a mode polynomial
# ---------------------------------------------------------------------------


def test_mode_classes_solved_once_match_per_label_roots(monkeypatch):
    # on T^2 the frozen polynomial depends on |k1| only, so classes collapse
    p = make_model("cyl_coord_laplacian")
    fam = family_of(p, 10.0)
    classes = fam.classes()
    assert len(classes) < len(fam.channels)
    assert sorted(label for c in classes for label in c) == sorted(fam.channels.labels)
    roots = indicial_roots(fam)
    for i, label in enumerate(fam.channels.labels):
        one = ChannelTable((label,), fam.channels.eigenvalues[i:i + 1])
        alone = IndicialFamily(one, fam.coeffs[i:i + 1], fam.source_cutoff, 1,
                               fam.structure_kind)
        mine = [(r.tau, r.multiplicity) for r in roots if r.mode == label]
        assert mine == [(r.tau, r.multiplicity) for r in indicial_roots(alone)]

    handed = []  # the polynomials of every batch cross_check solves
    batch = numoracle._brute_roots_batch

    def counting(polys, *args, **kwargs):
        handed.extend(polys)
        return batch(polys, *args, **kwargs)

    monkeypatch.setattr(numoracle, "_brute_roots_batch", counting)
    report = fredholm_check(p, 0.5, FredholmOptions(mode_cutoff=10.0))
    ledger = cross_check(p, report)
    assert ledger.passed
    checked = family_of(p, report.cutoffs["mode_cutoff"])
    assert [e.name for e in ledger.entries if e.name.startswith("roots[")] == \
        [f"roots[{label}]" for label in checked.channels.labels]
    assert len(handed) == len(checked.classes()) < len(checked.channels)
    assert [c.tobytes() for c in handed] == \
        [checked.poly(labels[0]).tobytes() for labels in checked.classes()]


def test_batched_system_scan_matches_per_point_svd():
    fam = family_of(conjugated_system(), 20.0)
    assert fam.system_size == 2
    taus = np.linspace(-10.0, 10.0, 2501) - 0.3j  # spans several chunks
    reference = np.full(taus.shape, np.inf)
    for label in fam.channels.labels:
        coeffs = fam.poly(label)
        for i, tau in enumerate(taus):
            m = np.zeros_like(coeffs[0])
            for c in coeffs[::-1]:  # Horner, one point at a time
                m = m * complex(tau) + c
            reference[i] = min(reference[i],
                               float(np.linalg.svd(m, compute_uv=False)[-1]))
    batched = numoracle._family_min_singular(fam, taus)
    assert np.array_equal(batched, reference)


def _unpruned_min_singular(fam, taus):
    """min over classes of one stacked SVD per class at every point."""
    out = np.full(taus.shape, np.inf)
    for labels in fam.classes():
        out = np.minimum(out, np.linalg.svd(fam.stack(labels[0], taus),
                                            compute_uv=False)[:, -1])
    return out


@pytest.mark.parametrize("system, cutoff, classes, delta", [
    pytest.param(b_system_order4(), None, 29, 0.3, id="4x4-order4"),
    pytest.param(b_system_order2(), None, 11, 0.3, id="4x4-order2"),
    # block 0 has roots +-sqrt(102.25 - k^2): none in the scan range on
    # mode 0, exactly +-1.5 on mode 10, the last class
    pytest.param(b_system_shifted((-102.25, 1.0, 2.0, 3.0)), 120.0, 11, 0.0,
                 id="4x4-later-class-minimum"),
])
def test_pruned_system_scan_is_bit_identical_to_the_full_scan(system, cutoff, classes,
                                                              delta):
    fam = family_of(system, cutoff or default_mode_cutoff(system))
    assert len(fam.classes()) == classes
    taus = np.linspace(-10.0, 10.0, 8001) - 1j * delta
    reference = _unpruned_min_singular(fam, taus)
    assert np.array_equal(numoracle._family_min_singular(fam, taus), reference)


def test_later_class_holds_the_scan_minimum():
    fam = family_of(b_system_shifted((-102.25, 1.0, 2.0, 3.0)), 120.0)
    taus = np.linspace(-10.0, 10.0, 8001)
    first = np.linalg.svd(fam.stack(fam.classes()[0][0], taus), compute_uv=False)[:, -1]
    pruned = numoracle._family_min_singular(fam, taus)
    assert pruned.min() < 1e-12 < first.min()
    assert abs(abs(taus[np.argmin(pruned)]) - 1.5) < 1e-12


def test_weyl_bound_never_exceeds_the_computed_smallest_singular_value():
    rng = np.random.default_rng(20)
    taus = np.concatenate([np.linspace(-10.0, 10.0, 41),
                           np.linspace(-10.0, 10.0, 41) - 0.3j,
                           rng.standard_normal(40) * 5 + 5j * rng.standard_normal(40)])
    tight = 0
    for trial in range(400):
        m, k = rng.integers(1, 5), rng.integers(2, 5)
        scale = 10.0 ** rng.uniform(0, 4)
        # a scalar part plus a perturbation from exactly 0 up to the scale,
        # so the bound ranges from tight to vacuous
        eps = (0.0, 1e-14, 1e-8, 1e-3, 1.0)[trial % 5]
        diag = (rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)) * scale
        pert = rng.standard_normal((m + 1, k, k)) + 1j * rng.standard_normal((m + 1, k, k))
        coeffs = diag[:, None, None] * np.eye(k) + eps * scale * pert
        smin = np.linalg.svd(limitops.matrix_polyval(coeffs, taus), compute_uv=False)[:, -1]
        bound = numoracle._weyl_lower_bound(coeffs, taus)
        assert np.all(bound <= smin), (trial, np.max(bound - smin))
        tight += int(np.any(bound > 0.5 * smin))
    assert tight > 100  # the bound is not vacuous on near-scalar stacks


def test_system_scan_runs_few_svd_rows(monkeypatch):
    """Past mode 0 the Weyl bound of the 4x4 order-4 system exceeds the
    running minimum almost everywhere; a scan that evaluated every class
    at every point would ask for 29 x 8001 rows."""
    fam = family_of(b_system_order4(), default_mode_cutoff(b_system_order4()))
    rows = []
    polyval = numoracle.matrix_polyval

    def counted(coeffs, taus, *args, **kwargs):
        rows.append(np.asarray(taus).shape[0])
        return polyval(coeffs, taus, *args, **kwargs)

    monkeypatch.setattr(numoracle, "matrix_polyval", counted)
    scan = scan_line(fam, 0.0, (-10.0, 10.0), 2001, refinements=2)
    assert len(scan.points) == 8001
    assert 0 < sum(rows) <= 2 * 8001
