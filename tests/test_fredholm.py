"""The decision engine: roots, line tests, symbol scans, verdicts, weights."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fredholm_kit import (
    ChannelTable,
    Coefficient,
    CrossSection,
    FredholmKitError,
    FredholmOptions,
    IndicialFamily,
    LieStructure,
    MultiIndex,
    StructureKind,
    VERDICT_FREDHOLM,
    VERDICT_NOT,
    VERDICT_UNDECIDED,
    brute_roots,
    conjugate,
    fredholm_check,
    full_symbol,
    indicial_family,
    indicial_roots,
    make_model,
    make_operator,
    normal_invertible,
    normal_operator,
    safe_weight_intervals,
    sc_invertible,
    spectrum,
)
from fredholm_kit import fredholm
from fredholm_kit.limitops import freeze_coefficients
from conftest import (
    JORDAN_SHIFTS,
    LARGE_SHIFTS,
    b_system_order2,
    b_system_order4,
    b_system_order4_singular,
    b_system_shifted,
    order2_mellin_roots,
    order4_mellin_roots,
    order4_singular_mellin_roots,
    shifted_mellin_roots,
)

B1 = LieStructure.b(1)
CIRCLE = CrossSection.circle()


def family_of(p, cutoff):
    return indicial_family(normal_operator(p), spectrum(p.cross_section, cutoff))


def cylinder_shifted(lam):
    terms = {MultiIndex(2): 1.0, MultiIndex(0, (), 1): 1.0}
    if lam:
        terms[MultiIndex(0)] = -float(lam)
    return make_operator(B1, CIRCLE, terms)


# ---------------------------------------------------------------------------
# indicial roots
# ---------------------------------------------------------------------------


def test_roots_polar_mode_zero_is_double():
    fam = family_of(make_model("polar_laplacian"), 0.5)
    roots = indicial_roots(fam)
    assert len(roots) == 1
    assert roots[0].multiplicity == 2
    assert abs(roots[0].tau) < 1e-12
    assert roots[0].mellin == 1j * roots[0].tau


def test_roots_spherical_classical_pattern():
    fam = family_of(make_model("spherical_schrodinger", n=3, Z=4.0), 2.5)
    by_mode = {}
    for r in indicial_roots(fam):
        by_mode.setdefault(r.mode, []).append(r.mellin)
    assert_allclose(sorted(z.real for z in by_mode["l=1"]), [-2.0, 1.0], atol=1e-9)
    assert max(abs(z.imag) for z in by_mode["l=1"]) < 1e-9


def test_roots_black_scholes():
    fam = family_of(make_model("black_scholes", sigma=1.0, rate=0.0), 1.0)
    zs = sorted(r.mellin.real for r in indicial_roots(fam))
    assert_allclose(zs, [0.0, 1.0], atol=1e-12)


def test_roots_of_high_modes_are_not_trimmed():
    # (r d/dr)^4 + L^2 - (r d/dr)^2 on the circle: tau^4 + tau^2 + k^4 = 0,
    # so tau^2 = (-1 +- sqrt(1 - 4 k^4)) / 2.  From k = 1000 on, the top
    # coefficient 1 sits at 1e-12 of the constant term k^4.
    p = make_operator(B1, CIRCLE, {MultiIndex(4): 1.0, MultiIndex(0, (), 2): 1.0,
                                   MultiIndex(2): -1.0})
    by_mode = {}
    for r in indicial_roots(family_of(p, 1.2e6)):
        by_mode.setdefault(r.mode, []).extend([r.tau] * r.multiplicity)
    assert sorted(by_mode) == sorted(f"k={k}" for k in range(1096))
    for k in range(1096):
        disc = np.sqrt(complex(1 - 4 * k**4))
        tau2 = np.array([(-1 + disc) / 2, (-1 - disc) / 2])
        taus = np.concatenate([np.sqrt(tau2), -np.sqrt(tau2)])
        got = np.array(by_mode[f"k={k}"])
        assert len(got) == 4, k
        for t in taus:
            assert np.min(np.abs(got - t)) <= 1e-9 * max(1.0, abs(t)), (k, t)


def test_singular_leading_matrix_lists_no_spurious_roots():
    # diag((r d/dr)^2 + L - 1, r d/dr + L - 2) on the circle: the leading
    # matrix diag(1, 0) drops the interpolated determinant from degree 4 to
    # 3, with roots tau = +-i sqrt(k^2 + 1) and tau = -i (k^2 + 2)
    p = make_operator(B1, CIRCLE, {
        MultiIndex(2): Coefficient.constant(np.diag([1.0, 0.0])),
        MultiIndex(1): Coefficient.constant(np.diag([0.0, 1.0])),
        MultiIndex(0, (), 1): Coefficient.constant(np.eye(2)),
        MultiIndex(0): Coefficient.constant(np.diag([-1.0, -2.0])),
    })
    by_mode = {}
    for r in indicial_roots(family_of(p, 30.0)):
        by_mode.setdefault(r.mode, []).extend([r.tau] * r.multiplicity)
    assert sorted(by_mode) == sorted(f"k={k}" for k in range(6))
    for k in range(6):
        want = [1j * math.sqrt(k * k + 1), -1j * math.sqrt(k * k + 1), -1j * (k * k + 2)]
        assert_allclose(sorted(by_mode[f"k={k}"], key=lambda t: t.imag),
                        sorted(want, key=lambda t: t.imag), atol=1e-8)


@pytest.mark.parametrize("cutoff", [30.0, 4000.0])
def test_singular_leading_matrix_roots_are_exact_or_refused(cutoff):
    # 14 roots per mode from a degree-16 interpolated determinant whose
    # top coefficients are round-off: the interpolation alone is off by
    # percents, so every listed root must survive a Newton step on the
    # true matrix polynomial
    fam = family_of(b_system_order4_singular(), cutoff)
    try:
        roots = indicial_roots(fam)
    except FredholmKitError as e:
        assert str(e).startswith("root refinement failed on mode k=")
        return
    by_mode = {}
    for r in roots:
        by_mode.setdefault(r.mode, []).extend([r.mellin] * r.multiplicity)
    for label in fam.channels.labels:
        want = np.sort_complex(np.array(order4_singular_mellin_roots(int(label[2:])),
                                        dtype=complex))
        got = np.sort_complex(np.array(by_mode.get(label, [])))
        assert got.shape == want.shape, label
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want))), label


def test_non_elliptic_verdict_survives_a_root_failure():
    # the singular leading matrix sends roots through the interpolated
    # determinant, which is too poor here for the Newton check
    report = fredholm_check(b_system_order4_singular(), 0.3)
    assert not report.elliptic.elliptic
    assert report.verdict == VERDICT_NOT
    assert report.roots == () and report.safe_weights == ()
    [lv] = report.limit_verdicts
    assert lv.status == "numerical-evidence" and lv.witness is None
    assert any(c.startswith("indicial roots not computed (root refinement failed on mode k=0")
               for c in report.caveats)


def test_elliptic_operator_still_raises_on_a_root_failure(monkeypatch):
    def fail(fam):
        raise FredholmKitError("root refinement failed on mode k=0")

    monkeypatch.setattr(fredholm, "indicial_roots", fail)
    with pytest.raises(FredholmKitError, match="root refinement failed"):
        fredholm_check(b_system_order4(), 0.3)


@pytest.mark.parametrize("system, closed_form, modes", [
    pytest.param(b_system_order4(), order4_mellin_roots, 29,
                 id="4x4-order4"),
    pytest.param(b_system_order2(), order2_mellin_roots, 11,
                 id="4x4-order2"),
    # rounding splits the multiple roots at 0 into eigenvalues 1e-4 (Jordan)
    # and 1e-7 (coefficients of 1e4, default cutoff 4e5) apart
    pytest.param(b_system_shifted(JORDAN_SHIFTS, coupled=True),
                 shifted_mellin_roots(JORDAN_SHIFTS), 9, id="4x4-jordan"),
    pytest.param(b_system_shifted(LARGE_SHIFTS), shifted_mellin_roots(LARGE_SHIFTS), 633,
                 id="4x4-large-shift"),
])
def test_similar_system_roots_match_closed_form(system, closed_form, modes):
    # S diag(p_i) S^-1 has the roots of the p_i; at k = 28 the order-4
    # roots lie 4.5e-3 apart, which an interpolated determinant cannot hold
    rep = fredholm_check(system, 0.3)
    by_mode = {}
    for r in rep.roots:
        by_mode.setdefault(r.mode, []).extend([r.mellin] * r.multiplicity)
    assert sorted(by_mode) == sorted(f"k={k}" for k in range(modes))
    for k in range(modes):
        want = np.sort_complex(np.array(closed_form(k), dtype=complex))
        got = np.sort_complex(np.array(by_mode[f"k={k}"]))
        assert got.shape == want.shape, k
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want))), k


def test_jordan_coupled_system_reaches_a_verdict_the_oracle_confirms():
    # mode 0 has det P = z^4 with one Jordan chain: a root of multiplicity
    # 4 on the line Re z = 0, none on Re z = 0.3
    from fredholm_kit import cross_check
    p = b_system_shifted(JORDAN_SHIFTS, coupled=True)
    on_line = fredholm_check(p, 0.0)
    assert on_line.verdict == VERDICT_NOT
    witness = on_line.limit_verdicts[0].witness
    assert witness["mode"] == "k=0" and witness["multiplicity"] == 4
    off_line = fredholm_check(p, 0.3)
    assert off_line.verdict == VERDICT_FREDHOLM
    assert cross_check(p, on_line).passed and cross_check(p, off_line).passed


def jordan_chains(s, r, p):
    """S (tau - r)^p I_k S^-1 as an (p + 1, k, k) stack: det = (tau - r)^(p k),
    k identical Jordan chains of length p in the linearization."""
    inv = np.linalg.inv(s)
    return np.stack([s @ (c * np.eye(len(s))) @ inv
                     for c in np.polynomial.polynomial.polyfromroots([r] * p)])


def assert_one_root(coeffs, r, mult, oracle_tol=1e-9):
    """Engine and oracle both find det P = (tau - r)^mult: one root within
    1e-9 * max(1, |r|) of r (oracle_tol * max(1, |r|) for the oracle)."""
    fam = IndicialFamily(ChannelTable(("k=0",), np.zeros(1)), coeffs[None], 0.0,
                         coeffs.shape[1], StructureKind.B)
    engine = [(x.tau, x.multiplicity) for x in indicial_roots(fam)]
    oracle = [(z, m) for z, m, _ in brute_roots(coeffs)]
    for found, tol in ((engine, 1e-9), (oracle, oracle_tol)):
        assert [m for _, m in found] == [mult]
        assert abs(found[0][0] - r) <= tol * max(1.0, abs(r))


def test_identical_jordan_chains_give_one_root():
    # two identical Jordan chains of length 3: rounding scatters the six
    # eigenvalues of the linearization and the oracle's iterates around r
    assert_one_root(jordan_chains(np.array([[2.0, 1.0], [0.5, 3.0]]), 10 + 2j, 3), 10 + 2j, 6)


def test_identical_jordan_chains_scan():
    # the oracle centers a merged root by a contour moment, which is held
    # to the ledger's match tolerance
    rng = np.random.default_rng(20261018)
    for _ in range(60):
        p, k = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        s = rng.standard_normal((k, k))
        r = complex(*rng.normal(scale=10.0, size=2))
        assert_one_root(jordan_chains(s, r, p), r, p * k, oracle_tol=1e-7)


@pytest.mark.parametrize("d, scale", [(3, 4.0), (4, 1.0)], ids=["T3", "T4"])
def test_torus_b_laplacian_with_default_cutoff_gets_a_verdict(d, scale):
    # (r d/dr)^2 + scale (L - 1): default cutoff 160 on T^3 (25^3 points in
    # the lattice cube) and 40 on T^4 (13^4), roots z = +-sqrt(scale (|k|^2 + 1))
    p = make_operator(LieStructure.b(d), CrossSection.torus(d), {
        MultiIndex(2): 1.0, MultiIndex(0, (), 1): scale, MultiIndex(0): -scale})
    rep = fredholm_check(p, 0.0)
    assert rep.verdict == VERDICT_FREDHOLM
    assert rep.cutoffs["mode_cutoff"] == 10.0 * scale * 4


def test_roots_zero_polynomial_rejected():
    fam = family_of(make_model("polar_laplacian"), 0.5)
    assert fam.channels.labels[0] == "k=0"
    broken = fam.coeffs.copy()
    broken[0] = 0
    from dataclasses import replace
    with pytest.raises(Exception, match="identically zero"):
        indicial_roots(replace(fam, coeffs=broken))


# ---------------------------------------------------------------------------
# invertibility on the weight line
# ---------------------------------------------------------------------------


def test_line_verdicts_polar():
    fam = family_of(make_model("polar_laplacian"), 4.5)
    v0 = normal_invertible(fam, 0.0)
    assert v0.status == "no"
    assert v0.witness.mode == "k=0"
    v_half = normal_invertible(fam, 0.5)
    assert v_half.status == "yes"
    assert v_half.distance == pytest.approx(0.5, abs=1e-9)


def test_line_verdict_shifted_cylinder():
    fam = family_of(cylinder_shifted(1.0), 4.5)
    assert normal_invertible(fam, 0.0).status == "yes"


def test_line_verdict_borderline():
    fam = family_of(make_model("polar_laplacian"), 4.5)
    v = normal_invertible(fam, 1e-9)
    assert v.status == "borderline"


# ---------------------------------------------------------------------------
# sc symbol criterion
# ---------------------------------------------------------------------------


def test_sc_flat_laplacian_not_invertible_at_origin():
    v = sc_invertible(full_symbol(freeze_coefficients(
        make_model("sc_laplacian", cross_dim=2))))
    assert v.status == "no"
    assert np.allclose(v.witness, 0.0, atol=1e-12)


def test_sc_shifted_down_is_invertible():
    v = sc_invertible(full_symbol(freeze_coefficients(
        make_model("sc_laplacian", cross_dim=2, shift=-1.0))))
    assert v.status == "yes"
    assert v.min_abs_det > 0.9


def test_sc_shifted_up_vanishes_on_sphere():
    v = sc_invertible(full_symbol(freeze_coefficients(
        make_model("sc_laplacian", cross_dim=2, shift=1.0))))
    assert v.status == "no"
    assert np.hypot(*v.witness) == pytest.approx(1.0, abs=1e-3)


def test_sc_verdicts_stable_under_refinement():
    for shift, expected in ((-1.0, "yes"), (0.0, "no"), (1.0, "no")):
        sym = full_symbol(freeze_coefficients(
            make_model("sc_laplacian", cross_dim=2, shift=shift)))
        for n_axis in (101, 201):
            v = sc_invertible(sym, n_axis=n_axis)
            assert v.status == expected
            assert all(s == expected for _, _, s in v.resolutions)


def test_sc_non_elliptic_input_undecided():
    sc = LieStructure.sc(1)
    degenerate = make_operator(sc, CIRCLE, {
        MultiIndex(2): 1.0, MultiIndex(0, (), 1): -1.0})
    v = sc_invertible(full_symbol(freeze_coefficients(degenerate)))
    assert v.status == "undecided"


def reference_full_symbol(sym, xi, eta, eta2):
    """The full symbol at one covector, term by term with Python scalars."""
    k = sym.system_size
    total = np.zeros((k, k), dtype=complex)
    for mi, value in sym.terms:
        factor = (1j * xi) ** mi.radial * (-eta2) ** mi.laplacian
        for j, pw in enumerate(mi.cross):
            if pw:
                factor *= (1j * eta[j]) ** pw
        piece = factor * value
        total += piece if isinstance(piece, np.ndarray) else piece * np.eye(k)
    return total if k > 1 else complex(total[0, 0])


def sc_symbol(name):
    rng = np.random.default_rng(41)

    def scalar():
        return complex(rng.normal(), rng.normal())

    if name == "torus_system":
        # T^2 partials (two at once, and one with a Laplacian), a Laplacian
        # power, matrix and scalar values: a 3-D covector grid
        return full_symbol(freeze_coefficients(make_operator(
            LieStructure.sc(2), CrossSection.torus(2), {
                MultiIndex(4): rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                MultiIndex(2, (1, 1)): scalar(),
                MultiIndex(0, (1, 0), 1): scalar(),
                MultiIndex(0, (), 2): scalar(),
                MultiIndex(1): rng.normal(size=(2, 2)),
                MultiIndex(0): scalar(),
            }, order=4)))
    # S^2: the tangential slot is a magnitude; a cube of |eta|^2
    return full_symbol(freeze_coefficients(make_operator(
        LieStructure.sc(2), CrossSection.sphere(2), {
            MultiIndex(6): scalar(), MultiIndex(2, (), 2): scalar(),
            MultiIndex(0, (), 3): scalar(), MultiIndex(0): scalar()}, order=6)))


@pytest.mark.parametrize("name", ["torus_system", "sphere_scalar"])
def test_sc_symbol_eval_and_grid_match_per_covector_loop(name):
    sym = sc_symbol(name)
    rng = np.random.default_rng(6)
    for _ in range(300):
        x = float(rng.normal())
        e = np.abs(rng.normal(size=sym.covector_dim - 1))
        assert np.array_equal(sym.eval(x, tuple(e)),
                              reference_full_symbol(sym, x, e, float(np.dot(e, e))))
    grids = [fredholm._sc_axes(sym, 2.0, 9)]
    for _ in range(20):  # zoom windows, whose |eta|^2 sums round
        grids.append([np.linspace(c - 0.3, c + 0.3, 5)
                      for c in rng.uniform(0.0, 1.5, sym.covector_dim)])
    for axes in grids:
        points = [tuple(float(v) for v in pt)
                  for pt in np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(axes))]
        # the grid sums |eta|^2 elementwise, coordinate by coordinate
        vals = [reference_full_symbol(sym, pt[0], pt[1:], sum(e * e for e in pt[1:]))
                for pt in points]
        pts = np.array(points)
        stack = sym.stack(pts[:, 0], pts[:, 1:], sum(e * e for e in pts[:, 1:].T))
        assert all(np.array_equal(a, b) for a, b in zip(stack, vals))
        dets = np.abs(np.array(vals) if sym.system_size == 1 else np.linalg.det(np.array(vals)))
        i = int(np.argmin(dets))
        assert fredholm._sc_eval_grid(sym, axes) == (float(dets[i]), points[i])


# ---------------------------------------------------------------------------
# full checks
# ---------------------------------------------------------------------------


def test_check_polar_not_fredholm_at_zero():
    rep = fredholm_check(make_model("polar_laplacian"), 0.0)
    assert rep.verdict == VERDICT_NOT
    assert rep.elliptic.elliptic
    assert rep.limit_verdicts[0].status == "no"
    assert rep.limit_verdicts[0].witness["mode"] == "k=0"


def test_check_shifted_cylinder_fredholm():
    rep = fredholm_check(cylinder_shifted(1.0), 0.0)
    assert rep.verdict == VERDICT_FREDHOLM


def test_check_compact_case_reduces_to_ellipticity():
    opts = FredholmOptions(empty_boundary=True)
    rep = fredholm_check(make_model("polar_laplacian"), 0.0, opts)
    assert rep.verdict == VERDICT_FREDHOLM
    assert rep.limit_verdicts == ()
    wave = make_operator(B1, CIRCLE, {MultiIndex(2): 1.0, MultiIndex(0, (), 1): -1.0})
    assert fredholm_check(wave, 0.0, opts).verdict == VERDICT_NOT


def test_check_zero_structure_undecided():
    rep = fredholm_check(make_model("hyperbolic_laplacian", cross_dim=1, shift=1.0), 0.0)
    assert rep.verdict == VERDICT_UNDECIDED
    assert rep.limit_verdicts[0].status == "numerical-evidence"
    assert any("numerical evidence" in c for c in rep.caveats)


def test_check_cgamma_undecided_with_warning():
    rep = fredholm_check(make_model("cgamma_schrodinger", n=3, gamma=2.0, V0=1.0), 0.0)
    assert rep.verdict == VERDICT_UNDECIDED
    assert any("c_gamma" in c for c in rep.caveats)


def test_check_verdict_monotone_in_shift():
    for lam, expected in ((0.0, VERDICT_NOT), (0.5, VERDICT_FREDHOLM),
                          (1.0, VERDICT_FREDHOLM), (4.0, VERDICT_FREDHOLM)):
        assert fredholm_check(cylinder_shifted(lam), 0.0).verdict == expected


@pytest.mark.parametrize("delta", [-0.5, 0.3, 0.9])
def test_check_consistent_with_conjugation(delta):
    for p in (make_model("polar_laplacian"),
              make_model("spherical_schrodinger", n=3, Z=1.0),
              make_model("black_scholes", sigma=1.0, rate=0.0)):
        direct = fredholm_check(p, delta).verdict
        conjugated = fredholm_check(conjugate(p, delta), 0.0).verdict
        assert direct == conjugated


# ---------------------------------------------------------------------------
# roots completeness, cutoff stability, weight intervals
# ---------------------------------------------------------------------------


def test_root_count_matches_degree():
    fam = family_of(make_model("spherical_schrodinger", n=3, Z=1.0), 20.0)
    roots = indicial_roots(fam)
    for label in fam.channels.labels:
        count = sum(r.multiplicity for r in roots if r.mode == label)
        assert count == 2


def test_roots_stable_under_cutoff_increase():
    p = cylinder_shifted(1.0)
    small = {(r.mode, np.round(r.mellin, 9)) for r in indicial_roots(family_of(p, 10.0))}
    large = {(r.mode, np.round(r.mellin, 9)) for r in indicial_roots(family_of(p, 40.0))}
    assert small <= large
    for cutoff in (None, 80.0):
        opts = FredholmOptions(mode_cutoff=cutoff)
        assert fredholm_check(p, 0.0, opts).verdict == VERDICT_FREDHOLM


def test_safe_weight_intervals_spherical():
    fam = family_of(make_model("spherical_schrodinger", n=3, Z=3.0), 40.0)
    roots = indicial_roots(fam)
    ivs = safe_weight_intervals(roots, -3.0, 3.0)
    expected = [(-3, -2), (-2, -1), (-1, 0), (0, 1), (1, 2), (2, 3)]
    assert len(ivs) == len(expected)
    for (a, b), (ea, eb) in zip(ivs, expected):
        assert a == pytest.approx(ea, abs=1e-9)
        assert b == pytest.approx(eb, abs=1e-9)


def test_safe_weight_intervals_shifted_cylinder():
    fam = family_of(cylinder_shifted(1.0), 10.0)
    ivs = safe_weight_intervals(indicial_roots(fam), -1.2, 1.2)
    assert ivs[1] == (pytest.approx(-1.0, abs=1e-9), pytest.approx(1.0, abs=1e-9))


def test_signed_channel_operator_full_pipeline():
    # odd tangential drift forces signed channels through check and oracle
    drift = make_operator(B1, CIRCLE, {
        MultiIndex(2): 1.0, MultiIndex(0, (1,), 0): 1.0})
    rep = fredholm_check(drift, 0.0)
    assert rep.verdict == VERDICT_NOT  # the k=0 block still has its double root
    assert {r.mode for r in rep.roots} >= {"k=0", "k=+1", "k=-1"}
    plus = sorted(r.mellin.real for r in rep.roots if r.mode == "k=+1")
    minus = sorted(r.mellin.real for r in rep.roots if r.mode == "k=-1")
    assert_allclose(plus, sorted(-m for m in minus), atol=1e-9)
    from fredholm_kit import cross_check
    assert cross_check(drift, rep).passed


def test_system_operator_roots_and_verdict():
    # a diagonal 2x2 system of shifted cylinders: block dets multiply
    terms = {
        MultiIndex(2): Coefficient.constant(np.eye(2)),
        MultiIndex(0, (), 1): Coefficient.constant(np.eye(2)),
        MultiIndex(0): Coefficient.constant(np.diag([-1.0, -2.0])),
    }
    p = make_operator(B1, CIRCLE, terms)
    assert p.system_size == 2
    rep = fredholm_check(p, 0.0)
    assert rep.verdict == VERDICT_FREDHOLM
    zs = sorted(r.mellin.real for r in rep.roots if r.mode == "k=0")
    assert_allclose(zs, [-np.sqrt(2), -1.0, 1.0, np.sqrt(2)], atol=1e-7)
    from fredholm_kit import cross_check
    assert cross_check(p, rep).passed


def test_system_operator_apply(rng):
    from fredholm_kit import RadialGrid
    from conftest import windowed_trig
    coupling = np.array([[0.0, 1.0], [0.0, 0.0]])
    terms = {
        MultiIndex(2): Coefficient.constant(np.eye(2)),
        MultiIndex(0): Coefficient.constant(coupling),
    }
    p = make_operator(B1, CIRCLE, terms)
    grid = RadialGrid(-8.0, 2.0, 256)
    table = spectrum(CIRCLE, 0.5)
    u = np.zeros((1, 2, grid.n), dtype=complex)
    u[0, 0] = windowed_trig(rng, grid.t, -6.0, 0.0)
    u[0, 1] = windowed_trig(rng, grid.t, -6.0, 0.0)
    out = p.apply(u, grid, table)
    assert out.shape == u.shape
    # second component feels only its own second derivative
    scalar = make_operator(B1, CIRCLE, {MultiIndex(2): 1.0})
    expected = scalar.apply(u[:, 1, :], grid, table)
    assert_allclose(out[0, 1], expected[0], rtol=0, atol=1e-12)


def test_report_serialization_shape():
    rep = fredholm_check(make_model("polar_laplacian"), 0.5)
    d = rep.to_dict()
    assert d["verdict"] == VERDICT_FREDHOLM
    assert d["weight"]["convention"] == "line Re(z) = delta"
    assert d["cutoffs"]["mode_cutoff"] >= 40.0
    assert all(len(iv) == 2 for iv in d["safe_weight_intervals"])
    w = d["cutoffs"]["certified_weight_range"]
    assert w[0] < -0.5 < 0.5 < w[1]
