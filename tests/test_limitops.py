"""Normal operators, indicial families, and limit operators per structure."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fredholm_kit import (
    BoundaryOperator,
    CoeffTerm,
    Coefficient,
    CrossSection,
    FredholmKitError,
    IndicialFamily,
    LieStructure,
    MultiIndex,
    StructureKind,
    builtin_suite,
    compose,
    conjugate,
    fredholm_check,
    freeze_coefficients,
    indicial_family,
    indicial_roots,
    make_model,
    make_operator,
    normal_operator,
    sc_invertible,
    spectrum,
)
from fredholm_kit import limitops
from fredholm_kit.crosssec import ChannelTable
from fredholm_kit.opalg import _cmul, _cpow, _is_matrix, _symbol_stack, _value_mul
from conftest import (
    b_system_order2,
    b_system_order4,
    b_system_order4_singular,
    b_system_shifted,
    cross_partial_factor,
    mode_classes,
    random_b_operator,
)

B1 = LieStructure.b(1)
CIRCLE = CrossSection.circle()


def poly_of(p, cutoff, label):
    table = spectrum(p.cross_section, cutoff)
    fam = indicial_family(normal_operator(p), table)
    return fam, fam.poly(label)[:, 0, 0]


# ---------------------------------------------------------------------------
# coefficient freezing
# ---------------------------------------------------------------------------


def test_normal_drops_decaying_potential():
    s = make_model("spherical_schrodinger", n=3, Z=1.0)
    n = normal_operator(s)
    assert MultiIndex(0) not in dict(n.terms)
    assert dict(n.terms)[MultiIndex(1)] == Coefficient.constant(1.0)


def test_normal_of_polar_is_itself():
    p = make_model("polar_laplacian")
    assert normal_operator(p) == p


def test_normal_drops_scaled_partial():
    p = make_operator(B1, CIRCLE, {
        MultiIndex(2): 1.0,
        MultiIndex(0, (1,), 0): Coefficient.monomial(1.0, 1.0),
    })
    assert normal_operator(p) == make_operator(B1, CIRCLE, {MultiIndex(2): 1.0})


def test_normal_rejects_zero_and_sc_frames():
    with pytest.raises(FredholmKitError):
        normal_operator(make_model("hyperbolic_laplacian"))
    with pytest.raises(FredholmKitError):
        normal_operator(make_model("sc_laplacian", cross_dim=1))


def test_freeze_rejects_fully_decaying_operator():
    p = make_operator(B1, CIRCLE, {MultiIndex(2): Coefficient.monomial(1.0, 1.0)})
    with pytest.raises(FredholmKitError):
        freeze_coefficients(p)


# ---------------------------------------------------------------------------
# indicial families
# ---------------------------------------------------------------------------


def test_family_polar_modes():
    _, c0 = poly_of(make_model("polar_laplacian"), 4.5, "k=0")
    assert np.array_equal(c0, np.array([0, 0, -1], dtype=complex))
    _, c2 = poly_of(make_model("polar_laplacian"), 4.5, "k=2")
    assert np.array_equal(c2, np.array([-4, 0, -1], dtype=complex))


def test_family_spherical_mode():
    _, c = poly_of(make_model("spherical_schrodinger", n=3, Z=5.0), 6.5, "l=2")
    # -tau^2 + i tau - l(l+1), independent of Z
    assert np.array_equal(c, np.array([-6, 1j, -1], dtype=complex))


def test_family_black_scholes():
    _, c = poly_of(make_model("black_scholes", sigma=1.0, rate=0.25), 1.0, "mode0")
    assert np.array_equal(c, np.array([-0.25, (0.25 - 0.5) * 1j, -0.5], dtype=complex))


def test_family_records_cutoff_and_channels():
    p = make_model("polar_laplacian")
    table = spectrum(CIRCLE, 10.0)
    fam = indicial_family(normal_operator(p), table)
    assert fam.source_cutoff == 10.0
    assert fam.channels.labels == ("k=0", "k=1", "k=2", "k=3")


def _reference_rows(p, table):
    """The indicial family of p channel by channel, term by term, in
    Python arithmetic: the reference the one-array build must equal bit
    for bit."""
    base = normal_operator(p)
    k = base.system_size
    deg = max(mi.radial for mi, _ in base.terms)
    chans = base.mode_channels(table)
    vectors = chans.vectors.tolist() if chans.vectors is not None else [None] * len(chans)
    rows = []
    for lam, vector in zip(chans.eigenvalues.tolist(), vectors):
        coeffs = np.zeros((deg + 1, k, k), dtype=complex)
        for mi, co in base.terms:
            for ct in co.terms:
                factor = ct.lam_value(lam)
                if mi.laplacian:
                    factor *= (-lam) ** mi.laplacian
                if any(mi.cross):
                    factor *= cross_partial_factor(mi.cross, lam, vector)
                piece = _value_mul(factor * 1j ** mi.radial, ct.value)
                if not _is_matrix(piece):
                    piece = piece * np.eye(k)
                coeffs[mi.radial] += piece
        rows.append(coeffs)
    return rows


def _reference_shifted(coeffs, delta):
    """One channel's coefficients at tau - i delta, as the per-channel
    family shifted them."""
    w = -1j * float(delta)
    out = np.zeros_like(coeffs)
    for m in range(coeffs.shape[0]):
        wp = 1.0 + 0j
        for d in range(m + 1):
            out[m - d] = out[m - d] + coeffs[m] * (math.comb(m, d) * wp)
            wp = wp * w
    return out


def _reference_classes(fam):
    """Labels grouped by the bytes of their coefficient rows, in order of
    first appearance."""
    groups = {}
    for label, row in zip(fam.channels.labels, fam.coeffs):
        groups.setdefault(row.tobytes(), []).append(label)
    return [tuple(g) for g in groups.values()]


def _conjugated_2x2():
    s = np.array([[1.0, 0.4], [-0.3, 1.2]])

    def conj(d):
        return Coefficient.constant(s @ np.diag(d) @ np.linalg.inv(s))

    return make_operator(B1, CIRCLE, {
        MultiIndex(2): Coefficient.constant(np.eye(2)), MultiIndex(1): conj([0.5, -0.25]),
        MultiIndex(0, (), 1): Coefficient.constant(np.eye(2)), MultiIndex(0): conj([-1.0, -2.0])})


def _inexact_circle(rng, k):
    """Odd and even partials, a Laplacian power and mode polynomials with
    non-integer complex coefficients, scalar (k = 1) or matrix valued, so
    that the products round: a fused multiply-add where the per-channel
    loop had none would show in the last bit."""
    def c():
        return complex(*rng.standard_normal(2))

    def v():
        return c() if k == 1 else rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))

    return make_operator(B1, CIRCLE, {
        MultiIndex(3): Coefficient([CoeffTerm(0.0, v(), lam_poly=[c(), c()])]),
        MultiIndex(2): Coefficient([CoeffTerm(0.0, v()), CoeffTerm(0.5, v())]),
        MultiIndex(1, (1,)): Coefficient([CoeffTerm(0.0, v(), lam_poly=[c(), c(), c()])]),
        MultiIndex(0, (3,)): Coefficient([CoeffTerm(0.0, v(), lam_poly=[c(), c()])]),
        MultiIndex(0, (), 1): Coefficient.constant(v()),
        MultiIndex(0): Coefficient.laplacian_poly([c(), c(), c()], value=v())})


def _torus(d1, d2, constant):
    """(r d/dr)^2 + d1 + d2 + constant on T^2 with explicit partials."""
    return make_operator(LieStructure.b(2), CrossSection.torus(2), {
        MultiIndex(2): 1.0, d1: 1.0, d2: 1.0, MultiIndex(0): constant})


def _families_at_the_old_rounding():
    rng = np.random.default_rng(20261018)
    cases = [(name, p, 12.0) for name, p in builtin_suite()
             if p.structure.kind in (StructureKind.B, StructureKind.C_GAMMA)]
    assert len(cases) == 5  # the two sc and zero built-ins have no family
    cases += [
        ("cyl_coord_laplacian@60", make_model("cyl_coord_laplacian"), 60.0),
        ("torus_laplacian@60", _torus(MultiIndex(0, (2, 0)), MultiIndex(0, (0, 2)), -0.25), 60.0),
        ("spherical_schrodinger(4)@60", make_model("spherical_schrodinger", n=4, Z=1.0), 60.0),
        ("signed circle drift", make_operator(B1, CIRCLE, {
            MultiIndex(2): 1.0, MultiIndex(0, (1,), 0): 1.0}), 20.0),
        ("torus, odd and mixed partials", _torus(MultiIndex(1, (1, 0)), MultiIndex(0, (1, 3)),
                                                 0.3 - 0.7j), 30.0),
        ("laplacian_poly", make_operator(B1, CIRCLE, {
            MultiIndex(2): 1.0, MultiIndex(0): Coefficient.laplacian_poly([0.25, -1.5, 0.1j])}),
         30.0),
        ("2x2 conjugated", _conjugated_2x2(), 20.0),
        ("4x4 order 2", b_system_order2(), 30.0),
        ("4x4 order 4", b_system_order4(), 30.0),
        ("4x4 order 4, singular leading matrix", b_system_order4_singular(), 30.0),
        ("4x4 Jordan-coupled", b_system_shifted((0.0, 0.0, 1.0, 2.0), coupled=True), 30.0),
    ]
    cases += [(f"inexact circle k={k} #{i}", _inexact_circle(rng, k), 30.0)
              for k in (1, 2) for i in range(2)]
    return [pytest.param(p, cutoff, id=name) for name, p, cutoff in cases]


@pytest.mark.parametrize("p, cutoff", _families_at_the_old_rounding())
def test_family_array_equals_the_per_channel_loop(p, cutoff):
    table = spectrum(p.cross_section, cutoff)
    fam = indicial_family(normal_operator(p), table)
    rows = _reference_rows(p, table)
    assert fam.coeffs.shape == (len(rows),) + rows[0].shape
    assert fam.coeffs.dtype == complex
    for label, row, ref in zip(fam.channels.labels, fam.coeffs, rows):
        assert row.tobytes() == ref.tobytes(), label
    assert mode_classes(fam) == _reference_classes(fam)
    for row, ref in zip(fam.shifted(0.37).coeffs, rows):
        assert row.tobytes() == _reference_shifted(ref, 0.37).tobytes()
    assert list(fam.polys) == list(fam.channels.labels)
    for label, row in zip(fam.channels.labels, fam.coeffs):
        assert fam.poly(label) is fam.polys[label]
        assert fam.polys[label].tobytes() == row.tobytes()


def test_complex_products_and_powers_round_as_cpython():
    # numpy's own complex multiply and power may differ in the last bit
    rng = np.random.default_rng(11)
    x = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
    x[:4] = [complex(-0.0, 3.0), complex(0.0, -3.0), complex(-0.0, -0.0), complex(5.0, -0.0)]
    y = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
    f = rng.standard_normal(4000)

    def bits(values):
        return np.array(values, dtype=complex).tobytes()

    assert _cmul(x, y).tobytes() == bits([complex(a) * complex(b) for a, b in zip(x, y)])
    assert _cmul(x, f).tobytes() == bits([complex(a) * float(b) for a, b in zip(x, f)])
    for n in range(1, 9):
        assert _cpow(x, n).tobytes() == bits([complex(a) ** n for a in x]), n


def test_classes_keep_the_sign_of_zero_apart():
    chans = ChannelTable(tuple(f"k={i}" for i in range(5)), np.arange(5.0))
    rows = np.array([[1.0, 0.0], [1.0, -0.0], [2.0, 1j], [1.0, -0.0], [1.0, 0.0]],
                    dtype=complex)[:, :, None, None]
    fam = IndicialFamily(chans, rows, 5.0, 1, StructureKind.B)
    assert mode_classes(fam) == [("k=0", "k=4"), ("k=1", "k=3"), ("k=2",)]
    assert mode_classes(fam) == _reference_classes(fam)
    first, of = fam.class_rows
    assert first.tolist() == [0, 1, 2] and of.tolist() == [0, 1, 2, 1, 0]


@pytest.mark.parametrize("cross, d1, d2", [
    (CIRCLE, MultiIndex(0, (1,)), None),
    (CrossSection.torus(2), MultiIndex(0, (0, 2)), None),
    (CrossSection.torus(2), MultiIndex(0, (1, 1)), MultiIndex(0, (2,))),
], ids=["circle-odd", "torus-second-coordinate", "torus-mixed"])
def test_partials_on_unsigned_channels_raise_as_before(monkeypatch, cross, d1, d2):
    terms = {MultiIndex(2): 1.0, d1: 1.0}
    if d2 is not None:
        terms[d2] = 2.0
    p = make_operator(LieStructure.b(cross.dimension), cross, terms)
    monkeypatch.setattr(BoundaryOperator, "needs_signed_modes", lambda self: False)
    table = spectrum(cross, 5.0)
    with pytest.raises(FredholmKitError) as before:
        _reference_rows(p, table)
    with pytest.raises(FredholmKitError) as now:
        indicial_family(normal_operator(p), table)
    assert str(now.value) == str(before.value) == \
        "explicit tangential partials need signed mode channels"


# ---------------------------------------------------------------------------
# homomorphism and covariance properties
# ---------------------------------------------------------------------------


def _family_product(fa, fb, label):
    a, b = fa.poly(label), fb.poly(label)
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1], a.shape[2]),
                   dtype=complex)
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            out[i + j] += a[i] @ b[j]
    return out


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_family_multiplicative_under_compose(seed):
    rng = np.random.default_rng(seed)
    p, q = random_b_operator(rng), random_b_operator(rng)
    table = spectrum(CIRCLE, 4.5)
    fp = indicial_family(normal_operator(p), table)
    fq = indicial_family(normal_operator(q), table)
    fpq = indicial_family(normal_operator(compose(p, q)), table)
    for label in fpq.channels.labels:
        assert np.array_equal(fpq.poly(label), _family_product(fp, fq, label))


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_normal_operator_is_algebra_homomorphism(seed):
    rng = np.random.default_rng(seed)
    p, q = random_b_operator(rng), random_b_operator(rng)
    lhs = normal_operator(compose(p, q))
    rhs = compose(normal_operator(p), normal_operator(q))
    assert lhs == rhs


@pytest.mark.parametrize("delta", [-0.5, 0.3, 1.0])
def test_conjugation_covariance_exact(delta):
    for p in (make_model("polar_laplacian"),
              make_model("spherical_schrodinger", n=3, Z=1.0),
              make_model("black_scholes", sigma=1.0, rate=0.0)):
        table = spectrum(p.cross_section, 12.0)
        lhs = indicial_family(normal_operator(conjugate(p, delta)), table)
        rhs = indicial_family(normal_operator(p), table).shifted(delta)
        for label in lhs.channels.labels:
            assert np.array_equal(lhs.poly(label), rhs.poly(label))


def test_real_coefficient_roots_conjugate_closed():
    p = make_model("spherical_schrodinger", n=3, Z=1.0)
    table = spectrum(p.cross_section, 20.0)
    fam = indicial_family(normal_operator(p), table)
    roots = indicial_roots(fam)
    zs = [r.mellin for r in roots]
    for z in zs:
        assert any(abs(np.conj(z) - w) < 1e-7 for w in zs)


# ---------------------------------------------------------------------------
# limit operators by structure
# ---------------------------------------------------------------------------


def test_limit_operator_b_is_normal_operator():
    p = make_model("polar_laplacian")
    lim = normal_operator(p)
    assert isinstance(lim, BoundaryOperator)
    assert lim.structure.kind is StructureKind.B
    assert lim == p


def test_limit_operator_sc_full_symbol():
    # the limit operator is the frozen operator; its full symbol is the
    # term walker's principal=False stack at r = 0
    p = make_model("sc_laplacian", cross_dim=2, shift=3.0)
    frozen = freeze_coefficients(p)
    assert frozen == p
    xi, eta = np.array([1.0, 1.0, 0.0]), np.array([[0.0], [2.0], [0.0]])
    sym = _symbol_stack(frozen, 0.0, xi, eta, (eta * eta)[:, 0], principal=False)
    assert sym.tolist() == [-1.0 + 3.0, -1.0 - 4.0 + 3.0, 3.0]
    principal = _symbol_stack(frozen, 0.0, xi, eta, (eta * eta)[:, 0])
    assert principal.tolist() == [-1.0, -1.0 - 4.0, 0.0]


def test_limit_operator_zero_freezes_in_halfspace_frame():
    z = LieStructure.zero(1)
    tor = CrossSection.torus(1)
    p = make_operator(z, tor, {
        MultiIndex(2): 1.0,
        MultiIndex(0, (), 1): 1.0,
        MultiIndex(1): Coefficient.monomial(1.0, 7.0),  # decays at the boundary
    })
    lim = freeze_coefficients(p)
    assert lim.structure.kind is StructureKind.ZERO
    expected = make_operator(z, tor, {MultiIndex(2): 1.0, MultiIndex(0, (), 1): 1.0})
    assert lim == expected


def test_limit_operator_cgamma_warns():
    p = make_model("cgamma_schrodinger", n=3, gamma=2.0, V0=1.0)
    assert freeze_coefficients(p).system_size == 1
    rep = fredholm_check(p)
    (lv,) = rep.limit_verdicts
    assert (lv.orbit, lv.mechanism, lv.status) == (
        "point:x0", "c_gamma frozen symbol (abelian isotropy)", "numerical-evidence")
    assert any(c.startswith("c_gamma limit operators fall outside") for c in rep.caveats)


def test_sc_symbol_rejects_mode_diagonal_coefficients():
    sc = LieStructure.sc(1)
    p = make_operator(sc, CIRCLE, {
        MultiIndex(2): 1.0,
        MultiIndex(0): Coefficient.laplacian_poly([0.0, 1.0]),
    })
    with pytest.raises(FredholmKitError, match="mode-diagonal"):
        sc_invertible(freeze_coefficients(p))
    with pytest.raises(FredholmKitError, match="mode-diagonal"):
        fredholm_check(p)


def test_inclusion_discs_of_coefficients_near_the_largest_float_warn_nothing():
    # I tau^4 - diag(1.7e308, 2): the Frobenius norm of diag(-1.7e308, -2)
    # squares its entries, and the values at the roots near 1.1e77 overflow
    coeffs = np.zeros((5, 1, 2, 2), dtype=complex)
    coeffs[0, 0] = np.diag([-1.7e308, -2.0])
    coeffs[4, 0] = np.eye(2)
    roots = [r * 1j ** j for r in (1.7e308 ** 0.25, 2 ** 0.25) for j in range(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z, radii, _, finite, _ = limitops.inclusion_discs(coeffs, np.array([roots]))
    assert z.shape == radii.shape == (1, 8) and not finite[0]


@pytest.mark.parametrize("coeffs, want", [
    # diag(tau - 1, tau - 2): a system's allowance 2^-46 sum_j ||A_j||_F |z|^j
    # times the largest singular value of P(z), 1 at both roots
    (np.array([np.diag([-1.0, -2.0]), np.eye(2)]),
     [2 * 2.0 ** -46 * (math.sqrt(5) + z * math.sqrt(2)) for z in (1, 2)]),
    # tau^2 - 3 tau + 2: a scalar's allowance 4 m eps sum_j |a_j| |z|^j, eps
    # the machine epsilon of np.longdouble
    (np.array([2.0, -3.0, 1.0])[:, None, None],
     [2 * 8 * np.finfo(np.longdouble).eps * (2 + 3 * z + z * z) for z in (1, 2)]),
], ids=["system", "scalar"])
def test_inclusion_disc_at_an_exact_root_is_its_rounding_allowance(coeffs, want):
    # at the exact roots 1 and 2 the computed det P is exactly 0, so the
    # radius n |W| is the rounding allowance alone (n = 2, gap 1, det A_m = 1
    # less its own allowance); a smaller disc would claim more than the
    # computed values show
    z, radii, residuals, finite, label = limitops.inclusion_discs(
        coeffs[:, None].astype(complex), np.array([[1.0, 2.0]], dtype=complex))
    assert finite[0] and label.tolist() == [[0, 1]] and residuals.tolist() == [[0.0, 0.0]]
    assert_allclose(radii[0], want, rtol=1e-9)


def test_newton_from_values_solves_once_and_falls_back_on_an_exact_root():
    rng = np.random.default_rng(8)
    p = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    dp = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    want = 1 / np.trace(np.linalg.solve(p, dp), axis1=-2, axis2=-1)
    assert_allclose(limitops.newton_from_values(p, dp), want, rtol=0, atol=0)
    # an exactly singular P (the zero matrix, two equal rows: tau is a
    # root) gives 0, a vanishing trace inf, and the others what they give
    # alone
    p[1] = 0.0
    p[2, 0] = p[2, 1]
    p[3], dp[3] = np.eye(3), np.diag([1.0, -1.0, 0.0])
    got = limitops.newton_from_values(p, dp)
    assert got[1] == 0 and got[2] == 0 and np.isinf(got[3])
    assert got[0] == want[0]
    # a 1 x 1 P is singular where it is 0
    one = np.array([0.0, 2.0, 4.0, np.inf])[:, None, None].astype(complex)
    got = limitops.newton_from_values(one, np.array([1.0, 1.0, 0.0, 1.0])[:, None, None] + 0j)
    assert got.tolist() == [0, 2, np.inf, np.inf]
    # newton_correction is one Horner pass, then the same formula
    row = rng.standard_normal((3, 2, 2)).astype(complex)
    taus = np.array([0.3, 1.0 + 1.0j])
    assert_allclose(limitops.newton_correction(row, taus),
                    limitops.newton_from_values(*limitops.matrix_polyval(row, taus, True)),
                    rtol=0, atol=0)


def union_find_components(touch):
    """The least member of each vertex's component, by union-find on the
    edges of one adjacency: each union hangs the larger root under the
    smaller, so every root is the least member of its set."""
    parent = list(range(len(touch)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(touch)):
        a, b = find(i), find(j)
        parent[max(a, b)] = min(a, b)
    return [find(i) for i in range(len(touch))]


@pytest.mark.parametrize("density", [0.0, 0.05, 0.15, 0.4])
def test_components_match_union_find(density):
    # random symmetric graphs, sparse ones mostly isolated vertices, and a
    # chain through all vertices in a random order on every fourth row:
    # the longest path a label has to travel
    rng = np.random.default_rng(2300 + int(100 * density))
    n = 12
    touch = rng.random((40, n, n)) < density
    for row in touch[::4]:
        order = rng.permutation(n)
        row[order[:-1], order[1:]] = True
    touch |= touch.swapaxes(1, 2)
    touch[:, np.arange(n), np.arange(n)] = True
    assert limitops.components(touch).tolist() == [union_find_components(t) for t in touch]
