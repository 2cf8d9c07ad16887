"""The independent oracle: line scans, roots certified by inclusion discs,
and the cross-check ledger (including a tampered-report negative
control)."""

import cmath
import dataclasses
import math
import os
import re
import types
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fredholm_kit import (
    Coefficient,
    CrossSection,
    FredholmKitError,
    FredholmOptions,
    ChannelTable,
    HalfSpaceSample,
    IndicialFamily,
    LieStructure,
    MultiIndex,
    ScanResult,
    StructureKind,
    VERDICT_FREDHOLM,
    VERDICT_NOT,
    brute_roots,
    builtin_suite,
    cross_check,
    default_mode_cutoff,
    fredholm_check,
    indicial_family,
    indicial_roots,
    make_model,
    make_operator,
    normal_operator,
    scan_line,
    spectrum,
)
from fredholm_kit import compose, fredholm, limitops, numoracle
from fredholm_kit._util import round12
from fredholm_kit.cli import parse_spec
from conftest import (
    JORDAN_SHIFTS,
    LARGE_SHIFTS,
    b_system_order2,
    b_system_order4,
    b_system_order4_singular,
    b_system_shifted,
    degree_drop_system,
    diagonal_system,
    merge_case,
    merge_case_roots,
    mode_classes,
    order2_mellin_roots,
    order4_mellin_roots,
    quartic_laplacian,
    random_b_operator,
    shifted_mellin_roots,
    zero_constant_system,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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


@pytest.mark.parametrize("samples,global_min,message", [
    ((0.5, -1e-300, 0.25), -1e-300, "nonnegative"),
    ((0.5, 0.25, 0.75), 0.5, "minimum"),
    ((0.5, 0.25, 0.75), 0.25 * (1 + 2 ** -52), "minimum"),
    ((math.nan, 0.25, 0.75), 0.25, "minimum"),
    ((0.5, 0.25, math.nan), 0.25, "minimum"),
    ((0.5, math.nan), math.nan, "minimum"),
])
def test_scan_result_rejects_bad_samples(samples, global_min, message):
    points = tuple(range(len(samples)))
    with pytest.raises(ValueError, match=message):
        HalfSpaceSample(points, samples, global_min, 0, ())
    scan = ScanResult(points, lambda: np.array(samples), global_min, 0, ())
    with pytest.raises(ValueError, match=message):
        scan.min_singular


def test_scan_result_accepts_its_minimum():
    for samples, global_min in (((0.5, 0.0, 0.75), 0.0), ((math.inf, math.inf), math.inf)):
        points = tuple(range(len(samples)))
        assert HalfSpaceSample(points, samples, global_min, 0, ()).min_singular == samples
        scan = ScanResult(points, lambda: np.array(samples), global_min, 0, ())
        assert scan.min_singular == samples


def test_scan_rejects_negative_refinements():
    fam = family_of(make_model("polar_laplacian"), 4.5)
    with pytest.raises(ValueError, match="refinements"):
        scan_line(fam, 0.0, (-1.0, 1.0), 11, refinements=-1)


def test_scan_line_over_an_overflowing_range():
    # a scalar's |P(tau)| overflows to inf, without a RuntimeWarning (an
    # error in this suite); a system's overflowing matrix has a NaN
    # smallest singular value, which fails the scan at its tau
    polar = scan_line(family_of(make_model("polar_laplacian"), 4.5), 0.5,
                      (-1e200, 1e200), 11, refinements=0)
    assert polar.min_singular[0] == math.inf and polar.global_min == 0.25
    system = make_operator(B1, CIRCLE, {
        MultiIndex(2): Coefficient.constant(np.eye(2)),
        MultiIndex(0, (), 1): Coefficient.constant(np.eye(2)),
        MultiIndex(0): Coefficient.constant(np.array([[2.0, 0.5], [0.0, 3.0]]))})
    with pytest.raises(FredholmKitError, match=r"^line scan overflows at tau=-1e\+160-0\.5j; "
                                               r"use a narrower --tau-range$"):
        scan_line(family_of(system, 4.5), 0.5, (-1e160, 1e160), 11, refinements=0)


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
# roots: Aberth iterates, inclusion discs, winding counts on clusters
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
    # vanishing at every scale of tau: 1 + 1e10 tau + 1e-10 tau^2, whose
    # roots lie 1e30 apart, and a singular leading matrix
    singular = family_of(b_system_order4_singular(), 30.0).poly("k=0")
    for coeffs in ([1.0, 1e10, 1e-10], singular):
        with pytest.raises(FredholmKitError, match="^leading coefficient below 1e-14$"):
            brute_roots(coeffs)


@pytest.mark.parametrize("coeffs, want", [
    ([1.0, 1e-15], [-1e15]),
    ([1e34, 0.0, -1.0], [-1e17, 1e17]),  # mode 0 of (r d/dr)^2 + 1e34
    ([4e-30, 0.0, 1e-30], [-2j, 2j]),
], ids=["1e-15-leading", "1e34-constant", "1e-30-scaled"])
def test_brute_roots_floor_is_scale_free(coeffs, want):
    # tau = 2^e sigma with the end coefficients of one size: the floor on
    # the leading coefficient does not depend on the scale of tau
    found = brute_roots(coeffs)
    assert [m for _, m, _ in found] == [1] * len(want)
    # each target takes its nearest root, and no root serves two targets
    got = np.array([z for z, _, _ in found])
    nearest = [int(np.argmin(np.abs(got - w))) for w in want]
    assert sorted(nearest) == list(range(len(want)))
    assert np.all(np.abs(got[nearest] - np.array(want)) <= 1e-12 * np.abs(want))


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


def shifted_laplacian(c):
    """T^2 + L - c on the circle, T = r d/dr."""
    return make_operator(B1, CIRCLE, {MultiIndex(2): 1.0, MultiIndex(0, (), 1): 1.0,
                                      MultiIndex(0): -c})


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
@pytest.mark.parametrize("k", [92, 100])
def test_close_simple_roots_stay_simple(k, eps):
    # P_eps = (T^2 + L - 1)(T^2 + L - 1 - eps): on mode k its roots are
    # +-i sqrt(k^2 + 1) and +-i sqrt(k^2 + 1 + eps), pairs 5e-6 apart at
    # eps = 1e-3
    p = compose(shifted_laplacian(1.0), shifted_laplacian(1.0 + eps))
    found = brute_roots(family_of(p, 1e4).poly(f"k={k}"))
    assert [m for _, m, _ in found] == [1] * 4
    got = sorted((z for z, _, _ in found), key=lambda z: z.imag)
    want = sorted(s * math.sqrt(k * k + c) for c in (1.0, 1.0 + eps) for s in (-1, 1))
    # the pairs lie 5.9e-8 apart, relative; rounding of the stored
    # coefficients moves each root by about 1e-9
    assert max(abs(z - 1j * w) / abs(w) for z, w in zip(got, want)) <= 1e-8


def test_an_exact_double_root_stays_one_root():
    # tau^4 + 884 tau^2 + 195364 = (tau^2 + 442)^2, mode k = 21 of
    # (T^2 + L - 1)^2: scaled by a power of two, its coefficients stay
    # exact, and so does each double root +-i sqrt(442)
    found = brute_roots([195364.0, 0.0, 884.0, 0.0, 1.0])
    assert [m for _, m, _ in found] == [2, 2]
    got = sorted((z for z, _, _ in found), key=lambda z: z.imag)
    for z, w in zip(got, (-math.sqrt(442), math.sqrt(442))):
        assert abs(z - 1j * w) <= 1e-12 * abs(w)


def test_verify_confirms_every_double_root_of_a_squared_operator():
    # (T^2 + L - 1)^2 on the circle: on mode k, +-i sqrt(k^2 + 1), each
    # twice, up to k = 100
    p = compose(shifted_laplacian(1.0), shifted_laplacian(1.0))
    opts = FredholmOptions(mode_cutoff=1e4)
    report = fredholm_check(p, 0.3, opts)
    by_mode = {}
    for r in report.roots:
        by_mode.setdefault(r.mode, []).append((r.tau, r.multiplicity))
    assert len(by_mode) == 101
    for k in range(101):
        got = sorted(by_mode[f"k={k}"], key=lambda root: root[0].imag)
        w = math.sqrt(k * k + 1)
        assert [m for _, m in got] == [2, 2]
        assert all(abs(tau - 1j * s * w) <= 1e-9 * w for (tau, _), s in zip(got, (-1, 1)))
    entries = [e for e in cross_check(p, report, opts).entries if e.name.startswith("roots[")]
    assert len(entries) == 101
    assert {(e.status, e.detail) for e in entries} == {("pass", "4 roots re-found by contours")}


@pytest.mark.parametrize("case", ["A", "B"])
def test_inclusion_discs_separate_what_a_merge_joins(case):
    # case A: r x3 and r + 0.1 are two roots; case B: r + 0.01 lies within
    # the reach of the triple root r, so one cluster holds all four
    fam = family_of(merge_case(case), 1.0)
    found = brute_roots(fam.poly("k=0"))
    roots = merge_case_roots(case)
    if case == "B":
        (r, _), (near, _), *rest = roots
        roots = [((3 * r + near) / 4, 4), *rest]
    assert sorted(m for _, m, _ in found) == sorted(m for _, m in roots)
    for z, m in roots:
        assert any(mult == m and abs(w - z) <= 1e-7 * abs(z) for w, mult, _ in found), (z, m)


def test_a_double_root_of_a_diagonal_system_is_one_cluster():
    # mode k=1 of I T^2 + I L + diag(1, 2): det P = tau^2 (tau^2 - 1)
    found = brute_roots(family_of(diagonal_system(), 2.0).poly("k=1"))
    assert [(round(z.real, 9) + 0.0, m) for z, m, _ in found] == [(-1.0, 1), (0.0, 2), (1.0, 1)]
    assert all(abs(z.imag) < 1e-9 for z, _, _ in found)


@pytest.mark.parametrize("row, radii", [
    ([0.0, 0.0, 2.0, 3.0, 1.0], [0.0, 0.0, 2 / 3, 3.0]),  # zero trailing coefficients
    ([8.0, 0.0, 0.0, 1.0], [2.0, 2.0, 2.0]),  # zero interior coefficients: one circle
    ([1.0, 1e3, 0.0, 1e-3], [1e-3, 1e3, 1e3]),  # two circles, one of them double
], ids=["zero-trailing", "zero-interior", "two-circles"])
def test_tropical_starts_lie_on_the_tropical_roots(row, radii):
    # the tropical roots of max_j |a_j| x^j, by hand: the exponentials of
    # minus the slopes of the upper hull of the points (j, log |a_j|)
    starts = numoracle._tropical_starts(np.asarray(row, dtype=complex)[:, None, None, None])
    assert starts.shape == (1, len(radii))
    assert_allclose(np.sort(np.abs(starts[0])), radii, rtol=1e-14, atol=0)
    nonzero = starts[starts != 0]
    assert np.unique(nonzero).size == nonzero.size == np.count_nonzero(radii)


def test_starts_at_a_vanishing_constant_stop_on_the_root(monkeypatch):
    # mode 0 of I T^2 + B T + I L has A_0 = 0: its k = 2 starts sit at the
    # root 0, where P is exactly the zero matrix; the batched solve fails
    # there, the Newton correction is 0, and both stop at once
    coeffs = family_of(zero_constant_system(), 1.0).poly("k=0")
    assert not coeffs[0].any()
    starts = numoracle._tropical_starts(coeffs[:, None])
    assert np.count_nonzero(starts == 0) == 2
    calls = []
    step = numoracle.newton_from_values

    def recorded(p, dp):
        out = step(p, dp)
        calls.append((~p.any(axis=(1, 2)), out))
        return out

    monkeypatch.setattr(numoracle, "newton_from_values", recorded)
    found = brute_roots(coeffs)
    (zero, corrections), *later = calls
    assert np.count_nonzero(zero) == 2 and (corrections[zero] == 0).all()
    assert np.isfinite(corrections[~zero]).all() and (corrections[~zero] != 0).all()
    assert not any(zero.any() for zero, _ in later)
    assert [m for _, m, _ in found].count(2) == 1


@pytest.mark.parametrize("make, mode, want", [
    (zero_constant_system, "k=0", [(0, 2), (1j, 1), (2j, 1)]),
    (quartic_laplacian, "k=2", [(0, 4)]),
], ids=["2x2-system", "quartic"])
def test_a_root_at_a_vanishing_constant_is_one_cluster(make, mode, want):
    p = make()
    fam = family_of(p, 4.0)
    found = brute_roots(fam.poly(mode))
    assert len(found) == len(want)
    for z, m in want:
        assert any(mult == m and abs(w - z) <= 1e-9 for w, mult, _ in found), (z, m)
    report = fredholm_check(p, 0.3, FredholmOptions(mode_cutoff=4.0))
    ledger = cross_check(p, report, FredholmOptions(mode_cutoff=4.0))
    assert ledger.passed
    assert any(e.name == f"roots[{mode}]" and e.status == "pass" for e in ledger.entries)


def test_power_rows_match_horner():
    # one product of power rows against the coefficient block: P and P'
    # within (m + 1) eps of the sizes sum_j ||A_j|| |z|^j and
    # sum_j j ||A_j|| |z|^(j - 1) of Horner's values
    rng = np.random.default_rng(22)
    m, b, k, n = 4, 3, 3, 12
    coeffs = rng.standard_normal((m + 1, b, k, k)) + 1j * rng.standard_normal((m + 1, b, k, k))
    coeffs *= 10.0 ** rng.uniform(-2, 2, (m + 1, b, 1, 1))
    z = 2 * rng.standard_normal((b, n)) + 2j * rng.standard_normal((b, n))
    z[:, 0] = 0.0
    values, slopes = numoracle._values_and_slopes(np.moveaxis(coeffs, 0, 1), z)
    p, dp = limitops.matrix_polyval(coeffs[:, :, None], z, derivative=True)
    norms = np.linalg.norm(coeffs, 2, axis=(-2, -1))[:, :, None]
    j = np.arange(m + 1)[:, None, None]
    polyval = np.polynomial.polynomial.polyval
    size = polyval(np.abs(z), norms, tensor=False)
    slope_size = polyval(np.abs(z), (j * norms)[1:], tensor=False)
    eps = np.finfo(float).eps
    assert (np.abs(values - p).max(axis=(-2, -1)) <= (m + 1) * eps * size).all()
    assert (np.abs(slopes - dp).max(axis=(-2, -1)) <= (m + 1) * eps * slope_size).all()
    assert_allclose(slopes[:, 0], coeffs[1], rtol=0, atol=0)  # P'(0) = A_1


def test_aberth_iteration_on_the_systems_specs_evaluates_few_iterates(monkeypatch, tmp_path):
    """Newton corrections of the oracle's Aberth iteration in `cross_check`
    of the benchmark's three systems and three modes specs.  Started next
    to the reported roots, the systems specs take 2, 2 and 3 steps and 72 /
    176 / 1,267 corrections, the modes specs 112 / 584 / 800 (the double
    roots of cyl_coord_laplacian@400, met linearly, take 16 steps).  From
    the tropical starts, which only say how far out the roots lie, they
    took 416 / 897 / 11,852 and 202 / 1,460 / 1,993: most of the 33 steps
    on 4x4_order4 closed in on its 8-root clusters near +-k."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import workloads

    evals = {}
    step = numoracle.newton_from_values

    def counted(p, dp):
        evals[name] = evals.get(name, 0) + p.shape[0]
        return step(p, dp)

    monkeypatch.setattr(numoracle, "newton_from_values", counted)
    for workload in ("systems", "modes"):
        wl = workloads.build(workload, 1)
        sub = tmp_path / workload
        sub.mkdir()
        for spec, path in zip(wl.specs, workloads.write_specs(wl, str(sub))):
            op = parse_spec(path)[0]
            opts = FredholmOptions(mode_cutoff=spec.cutoff)
            report = fredholm_check(op, workloads.WEIGHT, opts)
            name = spec.name
            assert cross_check(op, report, opts).passed, name
    bounds = {"2x2_order2": 72, "4x4_order2": 176, "4x4_order4": 1267,
              "cyl_coord_laplacian@400": 112, "torus_laplacian@400": 584,
              "spherical_schrodinger(4)@4e4": 800}
    assert set(evals) == set(bounds)
    assert all(evals[name] <= bound for name, bound in bounds.items()), evals


def ill_scaled_stack(seed):
    """A seeded (4, 3, 3) stack whose coefficient scales spread over twelve
    orders of magnitude."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((4, 3, 3)) * 10.0 ** rng.uniform(-6, 6, (4, 1, 1))


def overflowing_row():
    """1 + 1e13 tau^24 + tau^25: a root near -1e13, where |det P| of the
    scaled polynomial, about 1e13^24, overflows a float."""
    row = np.zeros(26)
    row[[0, 24, 25]] = 1.0, 1e13, 1.0
    return row


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
        jordan.poly("k=0"),  # a Jordan chain of length 4 at 0: a cluster, moment-centered
        jordan.poly("k=1"),
        ill_scaled_stack(0),
        overflowing_row(),  # its inclusion discs are not finite
        # 25 simple roots on the circle of radius 1.5, in the same batch
        np.polynomial.polynomial.polyfromroots(1.5 * np.exp(2j * np.pi * np.arange(25) / 25)),
    ]
    batch = numoracle._brute_roots_batch(polys)
    assert len(batch) == len(polys)
    for coeffs, (roots, failure) in zip(polys, batch):
        try:
            alone = brute_roots(coeffs)
        except FredholmKitError as e:
            assert roots is None and failure == str(e)
        else:
            assert failure is None and [root[:3] for root in roots] == alone
    failures = [failure for _, failure in batch]
    assert failures[4] == "leading coefficient below 1e-14"
    # the row overflows where |tau| reaches about 1e12
    assert failures[8].startswith("inclusion disc not finite at tau=")
    assert abs(complex(failures[8].rsplit("=", 1)[1])) >= 1e12
    assert [i for i, f in enumerate(failures) if f is not None] == [4, 8]
    assert [m for _, m, _, _ in batch[9][0]] == [1] * 25
    assert batch[2] == ([], None)
    assert [root[1] for root in batch[5][0]].count(4) == 1
    # the failing polynomials change nothing for their neighbours
    healthy = [c for c, failure in zip(polys, failures) if failure is None]
    assert numoracle._brute_roots_batch(healthy) == [b for b in batch if b[1] is None]


def companion_eigenvalues(coeffs):
    """Eigenvalues of the block companion matrix of an (m + 1, k, k) stack
    with an invertible leading matrix."""
    m, k = coeffs.shape[0] - 1, coeffs.shape[-1]
    top = np.linalg.solve(coeffs[-1], np.concatenate(coeffs[:-1], axis=-1))
    return np.linalg.eigvals(np.block([[np.zeros(((m - 1) * k, k)), np.eye((m - 1) * k)],
                                       [-top]]))


def test_resolve_roots_fails_each_polynomial_alone():
    s = np.array([[1.0, 0.4, 0.0], [-0.3, 1.2, 0.5], [0.2, 0.0, 0.9]])
    blocks = [np.polynomial.polynomial.polyfromroots(r)
              for r in ([1.0, 1.0, -2.0], [0.5, -1.0, 3j], [2.0, -0.5j, 1.5])]
    # S diag(p_1, p_2, p_3) S^-1 with a double root at 1: merged, confirmed
    healthy = np.array([s @ np.diag(d) @ np.linalg.inv(s) for d in np.array(blocks).T])
    # a leading matrix 1e-300 times as large puts the roots near 1e100,
    # where the product of the gaps between them overflows: no finite disc
    spread = healthy.copy()
    spread[-1] *= 1e-300
    # 1e300 times as large puts them near 1e-100, where that product
    # underflows to 0; scaling P by a power of two changes neither
    squeezed = healthy.copy()
    squeezed[-1] *= 1e300
    coeffs = np.stack([healthy, spread, squeezed, spread], axis=1)
    points = np.stack([companion_eigenvalues(c) for c in np.moveaxis(coeffs, 1, 0)])
    batch = fredholm._resolve_roots(coeffs, points)
    for b, result in enumerate(batch):
        assert result == fredholm._resolve_roots(coeffs[:, [b]], points[[b]])[0]
    healthy_roots, failure = batch[0]
    assert failure is None and [m for _, m in healthy_roots].count(2) == 1
    [double] = [tau for tau, m in healthy_roots if m == 2]
    assert abs(double - 1) <= 1e-7
    assert all(roots is None for roots, _ in batch[1:])
    assert batch[1][1].startswith("inclusion disc not finite at tau=")
    assert batch[2][1].startswith("inclusion disc not finite at tau=")
    assert abs(complex(batch[2][1].rsplit("=", 1)[1])) <= 1e-90
    assert batch[3][1] == batch[1][1]
    # 1e120 times as large, the polynomial whose det P overflowed on the
    # contour of its double root before the winding counts scaled P,
    # keeps the double root
    roots, failure = fredholm._resolve_roots(1e120 * healthy[:, None], points[:1])[0]
    assert failure is None and [m for _, m in roots].count(2) == 1


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
        coeffs = row[:, None, None, None]
        x0, y0 = rng.uniform(-3.0, 0.0, 2)
        x1, y1 = x0 + rng.uniform(0.5, 4.0), y0 + rng.uniform(0.5, 4.0)
        fx, fy = rng.uniform(0.3, 0.7, 2)
        xm, ym = x0 + fx * (x1 - x0), y0 + fy * (y1 - y0)
        boxes = [(x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1)]
        singles = [limitops._winding_counts(coeffs, [box], [0])[0] for box in boxes]
        counts = limitops._winding_counts(coeffs, boxes, [0] * 4)
        if None in singles:
            # up to the first box that never settles, the counts are the
            # single ones; after it, an unsettled box does not climb
            first = singles.index(None) + 1
            assert counts[:first] == singles[:first]
            assert all(c is None or c == s for c, s in zip(counts, singles))
            continue
        settled += 1
        assert counts == singles
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
    assert limitops._winding_counts(coeffs[:, None], boxes, [0] * 3) == [0, 1, 1]


def test_winding_counts_root_on_corner_raises_without_warning():
    coeffs = np.array([-2.0, 1.0, 1.0], dtype=complex)[:, None, None, None]  # (z - 1)(z + 2)
    boxes = [(1.0, 2.0, 0.0, 1.0), (-3.0, -1.0, -1.0, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert limitops._winding_counts(coeffs, boxes, [0, 0]) == [None, 1]
        assert limitops._winding_counts(coeffs, boxes[1:], [0]) == [1]


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


def lapack_contour_counts(coeffs, boxes, n_side):
    """The reference: `limitops._contour_counts` with every determinant,
    1 x 1 included, taken by np.linalg.det, as the counter did before it
    read scalar values directly."""
    corners = np.array([[x0 + 1j * y0, x1 + 1j * y0, x1 + 1j * y1, x0 + 1j * y1]
                        for x0, x1, y0, y1 in boxes])
    steps = np.roll(corners, -1, axis=1) - corners
    sides = corners[:, :, None] + steps[:, :, None] * limitops._UNIT_SEGMENTS[n_side]
    path = np.concatenate([sides.reshape(len(boxes), -1), corners[:, :1]], axis=1)
    vals = np.linalg.det(limitops.matrix_polyval(coeffs, path))
    absvals = np.abs(vals)
    scale = absvals.max(axis=1)
    low = absvals.min(axis=1)
    unsettled = (scale == 0) | (low < 1e-12 * scale)
    if n_side < limitops._RESOLUTIONS[-1]:
        near = ~unsettled & (low < 1e-6 * scale)
        if near.any():
            unsettled[near] = low[near] < 1e-6 * np.median(absvals[near], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        dargs = np.angle(vals[:, 1:] / vals[:, :-1])
    total = dargs.sum(axis=1) / (2 * np.pi)
    k = np.round(total)
    unsettled |= (np.abs(dargs).max(axis=1) > 1.8) | ~(np.abs(total - k) <= 0.25)
    return [None if u else int(c) for u, c in zip(unsettled, k)]


def test_scalar_contour_counts_match_lapack_determinants():
    rng = np.random.default_rng(20261019)
    unit = (0.0, 1.0, 0.0, 1.0)
    cases = [  # (roots, boxes): a root on a side, on a corner, hugging a side
        ([0.5 + 0j, 3.0 + 2j], [unit, (2.0, 4.0, 1.0, 3.0)]),
        ([1.0 + 1j, -2.0 + 0j], [unit, (-3.0, -1.0, -1.0, 1.0)]),
        ([0.5 + 1e-9j, 0.25 + 0.5j], [unit, (0.0, 0.5, 0.0, 0.75)]),
        ([0.5 + 1 / 128 + 1e-4j, 2.5 + 0.5j], [unit, (2.0, 3.0, 0.0, 1.0)]),
    ]
    for _ in range(40):
        roots = rng.normal(size=int(rng.integers(1, 9))) * 2 + 2j * rng.normal()
        lo = rng.uniform(-3.0, 0.0, (4, 2))
        hi = lo + rng.uniform(0.2, 4.0, (4, 2))
        cases.append((roots, [(a, c, b, d) for (a, b), (c, d) in zip(lo, hi)]))
    seen = set()
    for roots, boxes in cases:
        row = np.polynomial.polynomial.polyfromroots(roots) * (1 + 2 * rng.random())
        one = row[:, None, None]
        per_box = np.repeat(row[:, None], len(boxes), axis=1)[:, :, None, None, None]
        for n_side in limitops._RESOLUTIONS[:3]:
            for coeffs in (one, per_box):
                counts = limitops._contour_counts(coeffs, boxes, n_side)
                assert counts == lapack_contour_counts(coeffs, boxes, n_side)
                seen.update(c is None for c in counts)
    assert seen == {True, False}


def test_scalar_determinants_are_read_directly(monkeypatch):
    det = np.linalg.det

    def refuse_scalars(a):
        assert np.shape(a)[-1] > 1, "np.linalg.det on a 1 x 1 stack"
        return det(a)

    row = np.polynomial.polynomial.polyfromroots([0.5 + 1 / 128 + 1e-4j, 2.5 + 0.5j, -1.0])
    boxes = [(-1.5, -0.5, -0.5, 0.5), (0.0, 1.0, 0.0, 1.0), (2.0, 3.0, 0.0, 1.0)]
    stack = np.random.default_rng(3).normal(size=(5, 2, 2))
    monkeypatch.setattr(np.linalg, "det", refuse_scalars)
    assert limitops._winding_counts(row[:, None, None, None], boxes, [0] * 3) == [1, 1, 1]
    assert np.array_equal(limitops._det(stack[:, :1, :1]), stack[:, 0, 0])
    assert np.array_equal(limitops._det(stack), det(stack))
    # the oracle's residuals are |P(root)| of the polynomial scaled by the
    # power of two that puts its largest modulus in [1, 2), exactly
    monkeypatch.setattr(np.linalg, "det", det)
    scaled = (row * 2.0 ** (1 - np.frexp(np.max(np.abs(row)))[1]))[:, None, None]
    for z, _, residual in brute_roots(row):
        assert residual == abs(limitops.matrix_polyval(scaled, z)[0, 0])


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


def test_cross_check_skips_roots_only_for_a_non_elliptic_report():
    # an elliptic report that drops its roots behind the caveat of a root
    # failure still has every mode checked
    p = make_model("polar_laplacian")
    report = fredholm_check(p, 0.5)
    tampered = dataclasses.replace(report, roots=(), caveats=(
        *report.caveats, f"{fredholm.ROOTS_NOT_COMPUTED} (root refinement failed)"))
    ledger = cross_check(p, tampered)
    assert not ledger.passed
    assert ledger.first_failure().name.startswith("roots[")
    assert all(e.status != "skipped" for e in ledger.entries)


def test_cross_check_evaluates_the_reported_sc_witness():
    # |(i xi)^2 - eta^2 + 1| vanishes on the unit circle; at (5, 5) it is 49
    p = make_model("sc_laplacian", cross_dim=2, shift=1.0)
    report = fredholm_check(p)
    (lv,) = report.limit_verdicts
    honest = {e.name: e for e in cross_check(p, report).entries}["symbol-witness"]
    assert honest.status == "pass"
    moved = dataclasses.replace(lv, witness={"covector": [5.0, 5.0]})
    ledger = cross_check(p, dataclasses.replace(report, limit_verdicts=(moved,)))
    assert not ledger.passed
    bad = ledger.first_failure()
    assert (bad.name, bad.detail) == ("symbol-witness", "|det| at witness = 4.900e+01")


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


def test_cross_check_fails_only_the_class_whose_roots_fail(monkeypatch):
    # the engine solves every mode of the diagonal system; the oracle is
    # made to refuse its second class, mode k=1, alone
    p = diagonal_system()
    report = fredholm_check(p, 0.3, FredholmOptions(mode_cutoff=10.0))
    labels = family_of(p, report.cutoffs["mode_cutoff"]).channels.labels
    group = numoracle._brute_roots_group

    def refuse_the_second(coeffs, floor, scale, near):
        out = group(coeffs, floor, scale, near)
        out[1] = (None, "refused by this test")
        return out

    monkeypatch.setattr(numoracle, "_brute_roots_group", refuse_the_second)
    entries = [e for e in cross_check(p, report).entries if e.name.startswith("roots[")]
    assert [e.name for e in entries] == [f"roots[{label}]" for label in labels]
    assert [e.status for e in entries] == ["fail" if label == "k=1" else "pass"
                                           for label in labels]
    assert [e.detail for e in entries if e.status == "fail"] == ["refused by this test"]


def test_contour_passes_stay_within_the_chunk(monkeypatch):
    """The oracle's winding counts on the clusters of a Jordan-coupled 4x4
    system (a defective double root at +-ik on every mode k) take passes of
    at most _CONTOUR_CHUNK matrix entries, and boxes of different
    polynomials share a pass."""
    p = b_system_shifted(JORDAN_SHIFTS, coupled=True)
    report = fredholm_check(p, 0.3, FredholmOptions(mode_cutoff=30.0))
    assert len(mode_classes(family_of(p, report.cutoffs["mode_cutoff"]))) == 6
    passes = []  # (matrix entries, distinct polynomials) per pass
    counts = limitops._contour_counts

    def recorded(coeffs, boxes, n_side):
        polys = {coeffs[:, i].tobytes() for i in range(len(boxes))}
        passes.append((len(boxes) * (4 * n_side + 1) * coeffs.shape[-1] ** 2, len(polys)))
        return counts(coeffs, boxes, n_side)

    monkeypatch.setattr(limitops, "_contour_counts", recorded)
    assert cross_check(p, report, FredholmOptions(mode_cutoff=30.0)).passed
    assert passes and max(entries for entries, _ in passes) <= limitops._CONTOUR_CHUNK
    assert max(polys for _, polys in passes) > 1


def test_simple_roots_take_no_winding_count(monkeypatch, tmp_path):
    # the benchmark's three systems specs: every root is simple, and its
    # disc confirms it alone
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import workloads

    wl = workloads.build("systems", 1)
    cases = []
    for spec, path in zip(wl.specs, workloads.write_specs(wl, str(tmp_path))):
        op = parse_spec(path)[0]
        opts = FredholmOptions(mode_cutoff=spec.cutoff)
        cases.append((spec.name, op, fredholm_check(op, workloads.WEIGHT, opts), opts))
    # a double root is a cluster of two discs, with a box of its own
    double = diagonal_system()
    double_opts = FredholmOptions(mode_cutoff=2.0)
    double_report = fredholm_check(double, 0.3, double_opts)

    # the engine shares `_winding_counts`: record from here on, when only
    # the oracle runs
    boxes = []
    counts = limitops._winding_counts

    def recorded(coeffs, bs, owners):
        boxes.extend(bs)
        return counts(coeffs, bs, owners)

    monkeypatch.setattr(limitops, "_winding_counts", recorded)
    for name, op, report, opts in cases:
        assert report.roots and cross_check(op, report, opts).passed, name
    assert boxes == []
    assert cross_check(double, double_report, double_opts).passed
    assert len(boxes) == 1


def test_det_poly_is_never_called(monkeypatch, tmp_path):
    # the interpolated determinant is no root path: not for an elliptic
    # operator, and not for a singular leading matrix, whose roots fail by
    # name and whose verify skips them
    def refuse(self, label):
        raise AssertionError(f"det_poly called for {label}")

    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import workloads

    wl = workloads.build("systems", 1)
    cases = [(name, p, FredholmOptions()) for name, p in builtin_suite()]
    cases += [(spec.name, parse_spec(path)[0], FredholmOptions(mode_cutoff=spec.cutoff))
              for spec, path in zip(wl.specs, workloads.write_specs(wl, str(tmp_path)))]
    cases += [(name, p, FredholmOptions(mode_cutoff=30.0))
              for name, p in (("order4_singular", b_system_order4_singular()),
                              ("degree_drop", degree_drop_system()))]
    monkeypatch.setattr(IndicialFamily, "det_poly", refuse)
    for name, p, opts in cases:
        report = fredholm_check(p, 0.3, opts)
        ledger = cross_check(p, report, opts)
        assert ledger.passed, (name, ledger.first_failure())
        if p.structure.kind is not StructureKind.B:
            continue
        if name in ("order4_singular", "degree_drop"):
            assert report.roots == () and [e.status for e in ledger.entries
                                           if e.name.startswith("roots")] == ["skipped"], name
        else:
            assert report.roots, name


# ---------------------------------------------------------------------------
# channels sharing a mode polynomial
# ---------------------------------------------------------------------------


def test_mode_classes_solved_once_match_per_label_roots(monkeypatch):
    # on T^2 the frozen polynomial depends on |k1| only, so classes collapse
    p = make_model("cyl_coord_laplacian")
    fam = family_of(p, 10.0)
    classes = mode_classes(fam)
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
    assert len(handed) == len(mode_classes(checked)) < len(checked.channels)
    assert [c.tobytes() for c in handed] == \
        [checked.poly(labels[0]).tobytes() for labels in mode_classes(checked)]


def test_perturbed_root_fails_only_its_own_channel_of_a_shared_class():
    p = make_model("cyl_coord_laplacian")
    report = fredholm_check(p, 0.5, FredholmOptions(mode_cutoff=10.0))
    fam = family_of(p, report.cutoffs["mode_cutoff"])
    shared = next(c for c in mode_classes(fam) if len(c) > 2)
    target = shared[1]
    i = next(j for j, r in enumerate(report.roots) if r.mode == target)
    roots = list(report.roots)
    roots[i] = dataclasses.replace(roots[i], tau=roots[i].tau + 1e-6)
    ledger = cross_check(p, dataclasses.replace(report, roots=tuple(roots)))
    failed = [e for e in ledger.entries if e.status == "fail"]
    assert [e.name for e in failed] == [f"roots[{target}]"]
    assert "missing from report" in failed[0].detail
    clean = {e.name: e for e in cross_check(p, report).entries}
    for e in ledger.entries:
        if e.name != f"roots[{target}]":
            assert e == clean[e.name]


# ---------------------------------------------------------------------------
# the ledger's failure branches, each on a report with exact truth
# ---------------------------------------------------------------------------


def failing_entries(p, report):
    return [(e.name, e.status, e.detail) for e in cross_check(p, report).entries
            if e.status != "pass"]


def with_line(report, verdict, status, witness):
    (lv,) = report.limit_verdicts
    return dataclasses.replace(report, verdict=verdict, limit_verdicts=(
        dataclasses.replace(lv, status=status, witness=witness),))


def test_a_report_without_a_mode_cutoff_fails_setup():
    p = make_model("polar_laplacian")
    report = dataclasses.replace(fredholm_check(p, 0.5), cutoffs={})
    assert failing_entries(p, report) == [("setup", "fail", "report carries no mode cutoff")]


def test_a_yes_on_a_root_fails_the_line_scan():
    # weight 0: mode k=0 has the double root z = 0 on the line, so the
    # scan reads |P(0)| = 0 exactly
    p = make_model("polar_laplacian")
    report = fredholm_check(p, 0.0)
    assert report.verdict == VERDICT_NOT
    doctored = with_line(report, VERDICT_FREDHOLM, "yes", None)
    assert failing_entries(p, doctored) == [
        ("line-verdict", "fail", "'yes' verdict but scan dips to 0.000e+00 at tau=0")]


def test_a_no_off_every_root_fails_the_witness_scan():
    # weight 0.5: on the line z = 1/2 + is, |z^2 - k^2| >= |1/4 - k^2| >= 1/4,
    # reached at s = 0 on mode k=0, the witness the weight-0 report names
    p = make_model("polar_laplacian")
    report = fredholm_check(p, 0.5)
    assert report.verdict == VERDICT_FREDHOLM
    witness = fredholm_check(p, 0.0).limit_verdicts[0].witness
    assert (witness["mode"], witness["tau"]) == ("k=0", [0.0, 0.0])
    doctored = with_line(report, VERDICT_NOT, "no", witness)
    assert failing_entries(p, doctored) == [
        ("line-verdict", "fail", "'no' verdict but no scan point near the witness drops "
                                 "below 1e-06 (local min 2.500e-01)")]


def test_a_yes_next_to_a_root_is_in_the_gray_zone():
    # T^2 + L - 1 has the roots z = +-sqrt(k^2 + 1); at weight 1 - 1e-5 the
    # engine says yes, and the scan minimum is 1 - delta^2 = 2e-5 at
    # tau = -i delta, between the floors of "no" (1e-6) and "yes" (1e-4)
    p = shifted_laplacian(1.0)
    report = fredholm_check(p, 1 - 1e-5)
    assert (report.verdict, report.limit_verdicts[0].status) == (VERDICT_FREDHOLM, "yes")
    assert failing_entries(p, report) == [
        ("line-verdict", "inconclusive", "scan min 2.000e-05 in the gray zone")]


def test_a_flipped_sc_verdict_fails_the_rescan():
    # |(i xi)^2 - |eta|^2 - 1| >= 1 everywhere
    p = make_model("sc_laplacian", cross_dim=2, shift=-1.0)
    report = fredholm_check(p)
    assert report.verdict == VERDICT_FREDHOLM
    doctored = with_line(report, VERDICT_NOT, "no", None)
    assert failing_entries(p, doctored) == [
        ("symbol", "fail", "rescan says yes, report says no")]


def test_an_sc_report_without_a_limit_verdict_fails():
    p = make_model("sc_laplacian", cross_dim=2, shift=-1.0)
    report = dataclasses.replace(fredholm_check(p), limit_verdicts=())
    assert failing_entries(p, report) == [("symbol", "fail", "no limit verdict recorded")]


@pytest.mark.parametrize("count, engine, oracle", [
    (None, "contour counting failed to stabilize", "contour counting failed to stabilize"),
    (3, r"winding number 3 around tau=(\S+) disagrees with 2 merged roots",
     r"winding number 3 around tau=(\S+) disagrees with 2 converged iterates"),
], ids=["unsettled", "wrong"])
def test_a_failed_winding_count_fails_its_class_alone(monkeypatch, count, engine, oracle):
    # (T^2 + L - 1)^2 on the circle: on mode k, double roots at
    # tau = +-i sqrt(k^2 + 1); the first box of mode k=1 is made to
    # return no count or a wrong one, for the engine and the oracle alike
    p = compose(shifted_laplacian(1.0), shifted_laplacian(1.0))
    opts = FredholmOptions(mode_cutoff=9.0)
    report = fredholm_check(p, 0.3, opts)
    clean = cross_check(p, report, opts).entries
    fam = family_of(p, 9.0)
    assert fam.channels.labels == ("k=0", "k=1", "k=2", "k=3")
    reps = list(fam.coeffs[fam.class_rows[0]])
    honest = numoracle._brute_roots_batch(reps)
    counts = limitops._winding_counts

    def doctored(coeffs, boxes, owners):
        out = counts(coeffs, boxes, owners)
        out[list(owners).index(1)] = count
        return out

    def near_a_root(detail, pattern):
        match = re.fullmatch(pattern, detail)
        return match is not None and (len(match.groups()) == 0 or abs(
            abs(complex(match.group(1))) - math.sqrt(2)) <= 1e-5)  # printed to 6 digits

    monkeypatch.setattr(limitops, "_winding_counts", doctored)
    with pytest.raises(FredholmKitError) as err:
        fredholm_check(p, 0.3, opts)
    head = "root refinement failed on mode k=1: "
    assert str(err.value).startswith(head) and near_a_root(str(err.value)[len(head):], engine)
    entries = cross_check(p, report, opts).entries
    assert [e.name for e in entries] == [e.name for e in clean]
    for e, c in zip(entries, clean):
        if e.name == "roots[k=1]":
            assert e.status == "fail" and near_a_root(e.detail, oracle)
        else:
            assert e == c
    found = numoracle._brute_roots_batch(reps)
    assert found[1][0] is None and near_a_root(found[1][1], oracle)
    assert [repr(f) for i, f in enumerate(found) if i != 1] == \
        [repr(h) for i, h in enumerate(honest) if i != 1]


# ---------------------------------------------------------------------------
# the oracle starts at the reported roots: doctored reports still fail
# ---------------------------------------------------------------------------


def odd_partial_circle():
    """T^2 + d_theta^2 + 0.5 d_theta - 0.25 on the circle, T = r d/dr: on
    mode k, tau^2 = -(k^2 + 1/4) + i k / 2, two simple roots off the
    imaginary axis for k != 0, so the oracle prints them the same to nine
    digits wherever its iteration starts."""
    return make_operator(B1, CIRCLE, {MultiIndex(2): 1.0, MultiIndex(0, (2,)): 1.0,
                                      MultiIndex(0, (1,)): 0.5, MultiIndex(0): -0.25})


def doctored_failures(p, report, roots, opts):
    """The failing ledger entries of the report with its roots replaced,
    after checking that every other entry is the honest report's."""
    clean = {e.name: e for e in cross_check(p, report, opts).entries}
    ledger = cross_check(p, dataclasses.replace(report, roots=tuple(roots)), opts)
    failed = [e for e in ledger.entries if e.status == "fail"]
    assert all(e == clean[e.name] for e in ledger.entries if e.status != "fail")
    return [(e.name, e.detail) for e in failed]


def _neighbour_plus_1e_14(roots, plus, minus):
    roots[plus] = dataclasses.replace(roots[minus], tau=roots[minus].tau + 1e-14)


def _merged(roots, plus, minus):
    roots[plus] = dataclasses.replace(roots[plus], multiplicity=2)
    del roots[minus]


def _moved(roots, plus, minus):
    roots[plus] = dataclasses.replace(roots[plus], tau=roots[plus].tau * (1 + 1e-5))


def _dropped(roots, plus, minus):
    del roots[plus]


def _added(roots, plus, minus):
    roots.insert(min(plus, minus), dataclasses.replace(roots[plus], tau=5 + 5j))


@pytest.mark.parametrize("doctor, detail", [
    (_neighbour_plus_1e_14, "multiplicity mismatch at tau={minus}: report 2 vs contour 1"),
    (_merged, "brute root tau={minus} (x1) missing from report"),
    (_moved, "brute root tau={plus} (x1) missing from report"),
    (_dropped, "brute root tau={plus} (x1) missing from report"),
    (_added, "reported root tau=5+5j not re-found by contours"),
], ids=["neighbour-plus-1e-14", "merged", "moved-1e-5", "dropped", "added"])
def test_a_doctored_root_list_fails_its_mode_alone(doctor, detail):
    # mode k=+2 has the roots +-r, r = sqrt(-17/4 + i); the oracle starts
    # its iteration at the reported roots, which are wrong here
    p = odd_partial_circle()
    opts = FredholmOptions(mode_cutoff=9.0)
    report = fredholm_check(p, 0.3, opts)
    r = cmath.sqrt(-4.25 + 1j)
    roots = list(report.roots)
    plus, minus = (next(i for i, root in enumerate(roots)
                        if root.mode == "k=+2" and abs(root.tau - w) <= 1e-12) for w in (r, -r))
    doctor(roots, plus, minus)
    assert doctored_failures(p, report, roots, opts) == [
        ("roots[k=+2]", detail.format(plus=f"{r:.9g}", minus=f"{-r:.9g}"))]


@pytest.mark.parametrize("claim", [1e150 * (1 + 1j), 1e300, 1.7e308, 1.7e308 * (1 + 1j)],
                         ids=["1e150(1+i)", "1e300", "1.7e308", "1.7e308(1+i)"])
def test_a_claim_past_every_root_keeps_its_tropical_start(claim):
    # mode k=+2, -tau^2 - 17/4 + i, has the roots +-r, r = sqrt(-17/4 + i),
    # inside Fujiwara's bound 2 |17/4 - i|^(1/2) = 4.19; a claim far past it
    # seeds no iterate, so the oracle finds r from its tropical start, and
    # the ledger names r as the root the report lacks; the distance from
    # 1.7e308(1+i) to any root overflows, which matches no root
    p = odd_partial_circle()
    opts = FredholmOptions(mode_cutoff=9.0)
    report = fredholm_check(p, 0.3, opts)
    r = cmath.sqrt(-4.25 + 1j)
    roots = list(report.roots)
    plus = next(i for i, root in enumerate(roots)
                if root.mode == "k=+2" and abs(root.tau - r) <= 1e-12)
    roots[plus] = dataclasses.replace(roots[plus], tau=complex(claim))
    assert doctored_failures(p, report, roots, opts) == [
        ("roots[k=+2]", f"brute root tau={r:.9g} (x1) missing from report")]


def test_swapped_multiplicities_fail_their_mode_alone():
    # merge case A: r x3 and r + 0.1 x1 on mode 0, r = 1 + 0.5i; the
    # report claims r x1 and r + 0.1 x3, so the oracle starts three
    # iterates at r + 0.1
    p = merge_case("A")
    opts = FredholmOptions(mode_cutoff=1.0)
    report = fredholm_check(p, 0.0, opts)
    (r, _), (near, _), *_ = merge_case_roots("A")
    roots = list(report.roots)
    triple, single = (next(i for i, root in enumerate(roots)
                           if root.mode == "k=0" and abs(root.tau - w) <= 1e-9) for w in (r, near))
    assert (roots[triple].multiplicity, roots[single].multiplicity) == (3, 1)
    roots[triple] = dataclasses.replace(roots[triple], multiplicity=1)
    roots[single] = dataclasses.replace(roots[single], multiplicity=3)
    assert doctored_failures(p, report, roots, opts) == [
        ("roots[k=0]", f"multiplicity mismatch at tau={r:.9g}: report 1 vs contour 3")]


def test_perturbed_root_in_the_first_channel_fails_only_that_channel():
    # T^2 + d_1^2 + d_2^2 + 0.4 d_2 + 0.25 on T^2: channels k=(-1,-1) and
    # k=(+1,-1) share tau^2 = -7/4 - 0.4i.  The oracle starts the class at
    # the roots its first channel reports, here with one moved by 1e-6
    p = make_operator(LieStructure.b(2), CrossSection.torus(2), {
        MultiIndex(2): 1.0, MultiIndex(0, (2, 0)): 1.0, MultiIndex(0, (0, 2)): 1.0,
        MultiIndex(0, (0, 1)): 0.4, MultiIndex(0): 0.25})
    opts = FredholmOptions(mode_cutoff=10.0)
    report = fredholm_check(p, 0.5, opts)
    fam = family_of(p, report.cutoffs["mode_cutoff"])
    assert ("k=(-1,-1)", "k=(+1,-1)") in mode_classes(fam)
    r = cmath.sqrt(-1.75 - 0.4j)
    roots = list(report.roots)
    i = next(j for j, root in enumerate(roots)
             if root.mode == "k=(-1,-1)" and abs(root.tau + r) <= 1e-12)
    roots[i] = dataclasses.replace(roots[i], tau=roots[i].tau + 1e-6)
    assert doctored_failures(p, report, roots, opts) == [
        ("roots[k=(-1,-1)]", f"brute root tau={-r:.9g} (x1) missing from report")]


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
    """min over classes of one stacked SVD per class at every point (of
    |polyval| for a scalar)."""
    out = np.full(taus.shape, np.inf)
    for labels in mode_classes(fam):
        if fam.system_size == 1:
            vals = np.abs(np.polynomial.polynomial.polyval(taus, fam.poly(labels[0])[:, 0, 0]))
        else:
            vals = np.linalg.svd(limitops.matrix_polyval(fam.poly(labels[0]), taus),
                                 compute_uv=False)[:, -1]
        out = np.minimum(out, vals)
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
    assert len(mode_classes(fam)) == classes
    taus = np.linspace(-10.0, 10.0, 8001) - 1j * delta
    reference = _unpruned_min_singular(fam, taus)
    assert np.array_equal(numoracle._family_min_singular(fam, taus), reference)


def test_later_class_holds_the_scan_minimum():
    fam = family_of(b_system_shifted((-102.25, 1.0, 2.0, 3.0)), 120.0)
    taus = np.linspace(-10.0, 10.0, 8001)
    first = np.linalg.svd(limitops.matrix_polyval(fam.poly(mode_classes(fam)[0][0]), taus),
                          compute_uv=False)[:, -1]
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


# ---------------------------------------------------------------------------
# bounded line scans: exact minima from few evaluations
# ---------------------------------------------------------------------------


def _reference_scan(fam, delta, trange, pts, refinements):
    """(global_min, argmin, ladder) of `scan_line` from a full evaluation of
    every class at every point of the finest grid."""
    grid = np.linspace(trange[0], trange[1], (pts - 1) * 2 ** refinements + 1)
    vals = _unpruned_min_singular(fam, grid - 1j * delta)
    ladder = []
    for level in range(refinements, -1, -1):
        g, v = grid[::2 ** level], vals[::2 ** level]
        i = int(np.argmin(v))
        ladder.append({"points": g.shape[0], "global_min": round12(float(v[i])),
                       "argmin_tau": round12(float(g[i]))})
    i = int(np.argmin(vals))
    return float(vals[i]), float(grid[i]), tuple(ladder)


def scalar_rows_family(rows):
    """A scalar family whose classes are the given coefficient rows
    (ascending in tau), on a channel table with one channel per row."""
    rows = np.asarray(rows, dtype=complex)
    labels = tuple(f"k={i}" for i in range(rows.shape[0]))
    return IndicialFamily(ChannelTable(labels, np.arange(float(rows.shape[0]))),
                          rows[:, :, None, None], 0.0, 1, B1.kind)


def near_scalar_system(eps, seed):
    """(T^2 + L - 2) I + N_1 T + N_0 on the circle, N_j seeded normal 3x3
    matrices of scale eps: a system whose Weyl bound is nearly tight."""
    n1, n0 = eps * np.random.default_rng(seed).standard_normal((2, 3, 3))
    return make_operator(B1, CIRCLE, {
        MultiIndex(2): Coefficient.constant(np.eye(3)),
        MultiIndex(1): Coefficient.constant(n1),
        MultiIndex(0, (), 1): Coefficient.constant(np.eye(3)),
        MultiIndex(0): Coefficient.constant(-2.0 * np.eye(3) + n0)})


def bounded_scan_families():
    rng = np.random.default_rng(2020)
    return [
        family_of(make_model("spherical_schrodinger", n=3, Z=1.0), 40.0),
        family_of(make_model("polar_laplacian"), 40.0),
        family_of(cylinder_shifted(2.25), 12.0),
        *(family_of(random_b_operator(rng), 10.0) for _ in range(4)),
        family_of(conjugated_system(), 20.0),
        family_of(near_scalar_system(1e-9, 1), 6.0),
        family_of(near_scalar_system(1e-3, 2), 6.0),
        family_of(b_system_order2(), 20.0),
        family_of(b_system_shifted((-102.25, 1.0, 2.0, 3.0)), 120.0),
        family_of(b_system_shifted(JORDAN_SHIFTS, coupled=True), 6.0),
    ]


def test_bounded_scan_finds_the_minima_of_the_full_scan():
    """A seeded sweep: every ladder level's minimum and argmin, and the
    scan's, equal a full per-point evaluation, bit for bit."""
    rng = np.random.default_rng(17)
    centers = (0.0, 1.5, W, 2.0 ** 0.5 * 3, -2.5)  # roots, a witness-like point, others
    for fam in bounded_scan_families():
        for trial in range(8):
            delta = (0.0, 0.3, 0.5)[trial % 3]
            half = float(rng.choice([0.02, 0.5, 5.0, 10.0]))
            center = float(rng.choice(centers)) if half < 5 else 0.0
            pts = int(rng.choice([2, 3, 11, 64, 201, 801, 2001]))
            refinements = int(rng.integers(0, 4 if pts <= 801 else 3))
            trange = (center - half, center + half)
            scan = scan_line(fam, delta, trange, pts, refinements)
            assert (scan.global_min, scan.argmin, scan.ladder) == \
                _reference_scan(fam, delta, trange, pts, refinements), (trange, pts, refinements)


def test_bounded_scan_keeps_a_tie_on_a_tight_lipschitz_cone():
    """|s (tau - t0)| at delta = 0 meets the interval bound exactly: a zero
    on an interior point t0 ties a later zero on an anchor, and the argmin
    must stay on t0 where rounding lifts the bound above 0 (about one
    draw in five)."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        a, b, slope = rng.uniform(-3.0, -1.0), rng.uniform(1.0, 3.0), rng.uniform(0.5, 3.0)
        grid = np.linspace(a, b, 201)
        t0 = grid[int(rng.integers(1, 64))]  # inside the first interval
        t1 = grid[128]  # the third anchor
        fam = scalar_rows_family([[-slope * t0, slope], [-t1, 1.0]])
        scan = scan_line(fam, 0.0, (a, b), 201, refinements=0)
        assert (scan.global_min, scan.argmin, scan.ladder) == \
            _reference_scan(fam, 0.0, (a, b), 201, 0)
        assert scan.argmin == t0


@pytest.mark.parametrize("refinements", [1, 2, 3])
def test_every_ladder_level_keeps_its_own_minimum(refinements):
    """Zeros at every finest point off the coarsest level, and a minimum of
    1e-4 on it: the coarsest level's minimum survives only because no
    anchor sits on a zero, as an anchor off some level would."""
    grid = np.linspace(-1.0, 1.0, 100 * 2 ** refinements + 1)
    off = np.flatnonzero(np.arange(grid.shape[0]) % 2 ** refinements)
    t2 = grid[37 * 2 ** refinements]
    rows = [[-1.5 * t, 1.5] for t in grid[off]] + [[-(t2 + 1e-4j), 1.0]]
    fam = scalar_rows_family(rows)
    scan = scan_line(fam, 0.0, (-1.0, 1.0), 101, refinements)
    assert (scan.global_min, scan.argmin, scan.ladder) == \
        _reference_scan(fam, 0.0, (-1.0, 1.0), 101, refinements)
    assert scan.ladder[0] == {"points": 101, "global_min": round12(1e-4),
                              "argmin_tau": round12(t2)}


@pytest.mark.parametrize("system", [b_system_order4(), b_system_order2()],
                         ids=["4x4-order4", "4x4-order2"])
def test_default_system_scan_evaluates_few_pairs(monkeypatch, system):
    """The default scan evaluates at most 1,000 (class, point) pairs of the
    8,001 points per class; before the interval bounds a 4x4 order-2 scan
    took about 15,000 SVD rows."""
    fam = family_of(system, default_mode_cutoff(system))
    rows = []
    polyval = numoracle.matrix_polyval

    def counted(coeffs, taus, *args, **kwargs):
        rows.append(np.asarray(taus).shape[0])
        return polyval(coeffs, taus, *args, **kwargs)

    monkeypatch.setattr(numoracle, "matrix_polyval", counted)
    scan = scan_line(fam, 0.3)
    assert 0 < sum(rows) <= 1000
    assert (scan.global_min, scan.argmin, scan.ladder) == \
        _reference_scan(fam, 0.3, (-10.0, 10.0), 2001, 2)


@pytest.mark.parametrize("which", ["scalar", "system"])
def test_scan_samples_are_computed_on_first_use(monkeypatch, which):
    fam = (family_of(make_model("spherical_schrodinger", n=3, Z=1.0), 40.0) if which == "scalar"
           else family_of(b_system_order2(), 20.0))
    calls = []
    full = numoracle._family_min_singular

    def counted(f, taus):
        calls.append(taus.shape[0])
        return full(f, taus)

    monkeypatch.setattr(numoracle, "_family_min_singular", counted)
    scan = scan_line(fam, 0.3)
    assert calls == []
    taus = np.linspace(-10.0, 10.0, 8001) - 0.3j
    assert scan.min_singular == tuple(_unpruned_min_singular(fam, taus).tolist())
    assert scan.min_singular is scan.min_singular and calls == [8001]
    assert len(scan.points) == 8001


def test_computed_samples_are_validated_when_read():
    scan = ScanResult((0, 1), lambda: np.array([0.5, 0.25]), 0.5, 0, ())
    with pytest.raises(ValueError, match="minimum"):
        scan.min_singular


@pytest.mark.parametrize("fam", [
    pytest.param(family_of(make_model("polar_laplacian"), 4.5), id="scalar"),
    pytest.param(family_of(make_operator(B1, CIRCLE, {
        MultiIndex(2): Coefficient.constant(np.eye(2)),
        MultiIndex(0, (), 1): Coefficient.constant(np.eye(2)),
        MultiIndex(0): Coefficient.constant(np.array([[2.0, 0.5], [0.0, 3.0]]))}), 4.5),
        id="system"),
    pytest.param(family_of(b_system_order4(), 12.0), id="4x4-order4"),
    pytest.param(family_of(near_scalar_system(1e-9, 1), 6.0), id="near-scalar"),
])
@pytest.mark.parametrize("reach, pts, refinements", [
    (1e160, 11, 0), (1e155, 11, 2), (1e154, 201, 1), (1e100, 64, 1), (1e200, 101, 0)])
def test_overflowing_scans_fail_at_the_first_nan_of_the_full_scan(fam, reach, pts, refinements):
    """Every pair whose value overflows has a non-finite bound and is
    evaluated: the scan fails exactly when a full evaluation has a NaN,
    at its first NaN in grid order, and otherwise finds its minima."""
    trange = (-reach, reach)
    grid = np.linspace(-reach, reach, (pts - 1) * 2 ** refinements + 1)
    taus = grid - 0.5j
    with np.errstate(over="ignore", invalid="ignore"):
        full = _unpruned_min_singular(fam, taus)
        reps = fam.coeffs[fam.class_rows[0]]
        if fam.system_size > 1:
            for c in range(reps.shape[0]):
                vals = np.linalg.svd(limitops.matrix_polyval(reps[c], taus),
                                     compute_uv=False)[:, -1]
                bound = numoracle._weyl_lower_bound(reps[c], taus)
                assert not np.isfinite(bound[np.isnan(vals)]).any()
        reference = None if np.isnan(full).any() else \
            _reference_scan(fam, 0.5, trange, pts, refinements)
    if reference is None:
        tau = taus[np.isnan(full).argmax()]
        message = "^" + re.escape(f"line scan overflows at tau={tau:.6g};")
        with pytest.raises(FredholmKitError, match=message):
            scan_line(fam, 0.5, trange, pts, refinements)
    else:
        scan = scan_line(fam, 0.5, trange, pts, refinements)
        assert (scan.global_min, scan.argmin, scan.ladder) == reference


def test_a_witness_scan_that_overflows_is_inconclusive():
    # I T^4 - diag(1.7e308, 2) has a root at tau = 1.7e308^(1/4) = 1.14e77,
    # where T^4 overflows within the local window
    system = make_operator(B1, CIRCLE, {
        MultiIndex(4): Coefficient.constant(np.eye(2)),
        MultiIndex(0): Coefficient.constant(np.diag([-1.7e308, -2.0]))})
    line = types.SimpleNamespace(status="no", witness={"tau": [1.14185834544e77, 0.0],
                                                       "mode": "k=0"})
    scans = {}
    entry = numoracle._witness_entry(family_of(system, 2.0), 0.0, line, scans)
    assert entry == numoracle.LedgerEntry(
        "line-verdict", "inconclusive",
        "the local scan around the witness tau=1.14186e+77+0j overflows")
    assert scans == {}
