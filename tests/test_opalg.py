"""Operator construction, application, composition, symbols, transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fredholm_kit import (
    CoeffTerm,
    Coefficient,
    CrossSection,
    FredholmKitError,
    LieStructure,
    MultiIndex,
    NotRepresentableError,
    RadialGrid,
    cgamma_rewrite,
    compose,
    conjugate,
    identity_operator,
    is_elliptic,
    kondratiev_transform,
    make_model,
    make_operator,
    principal_symbol,
    spectrum,
)
from fredholm_kit.opalg import (
    FLOOR_DIRECTIONS,
    _covector_dim,
    _is_matrix,
    _symbol_stack,
    symbol_min_singular,
    unit_covectors,
)
from conftest import cross_partial_factor, gaussian_packet, smooth_window, windowed_trig

B1 = LieStructure.b(1)
CIRCLE = CrossSection.circle()


def b_op(terms):
    return make_operator(B1, CIRCLE, terms)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def test_polar_laplacian_terms():
    p = make_model("polar_laplacian")
    assert dict(p.terms) == {
        MultiIndex(2): Coefficient.constant(1.0),
        MultiIndex(0, (), 1): Coefficient.constant(1.0),
    }
    assert p.order == 2


def test_spherical_schrodinger_terms():
    p = make_model("spherical_schrodinger", n=3, Z=1.0)
    assert dict(p.terms) == {
        MultiIndex(2): Coefficient.constant(1.0),
        MultiIndex(1): Coefficient.constant(1.0),
        MultiIndex(0, (), 1): Coefficient.constant(1.0),
        MultiIndex(0): Coefficient.monomial(1.0, 1.0),
    }


def test_black_scholes_terms():
    p = make_model("black_scholes", sigma=1.0, rate=0.0)
    assert dict(p.terms) == {
        MultiIndex(2): Coefficient.constant(0.5),
        MultiIndex(1): Coefficient.constant(-0.5),
    }
    assert p.structure.collar_dim == 1


def test_unknown_model_rejected():
    with pytest.raises(FredholmKitError):
        make_model("nonexistent_model")
    with pytest.raises(ValueError):
        make_model("black_scholes", sigma=-1.0)


def test_operator_validation():
    with pytest.raises(ValueError):
        make_operator(B1, CIRCLE, {MultiIndex(2): 1.0}, order=3)
    with pytest.raises(ValueError):
        make_operator(B1, CrossSection.sphere(1), {MultiIndex(0, (1,), 0): 1.0})
    with pytest.raises(ValueError):
        make_operator(B1, CIRCLE, {MultiIndex(2): 0.0})
    for key in (2, (2, (), 0), "T^2"):  # a term key is a MultiIndex
        with pytest.raises(TypeError, match="as a multi-index"):
            make_operator(B1, CIRCLE, {key: 1.0})


# ---------------------------------------------------------------------------
# application on the log-radial spectral grid
# ---------------------------------------------------------------------------


GRID = RadialGrid(-8.0, 2.0, 512)
WINDOW = smooth_window(GRID.t, -6.0, 0.0)
PLATEAU = (GRID.t > -4.0) & (GRID.t < -2.0)


def test_apply_euler_derivative_on_power():
    p = b_op({MultiIndex(2): 1.0})
    table = spectrum(CIRCLE, 0.5)
    u = (WINDOW * np.exp(2 * GRID.t))[None, :]
    out = p.apply(u, GRID, table)
    expected = 4 * np.exp(2 * GRID.t[PLATEAU])
    assert_allclose(out[0, PLATEAU].real, expected, rtol=1e-9, atol=1e-12)


def test_apply_polar_kills_harmonic_mode():
    p = make_model("polar_laplacian")
    table = spectrum(CIRCLE, 1.5)
    u = np.zeros((2, GRID.n), dtype=complex)
    u[1] = WINDOW * np.exp(GRID.t)  # r on mode k=1
    out = p.apply(u, GRID, table)
    assert np.max(np.abs(out[1, PLATEAU])) < 1e-9


def test_apply_black_scholes_kills_linear():
    p = make_model("black_scholes", sigma=1.0, rate=0.0)
    table = spectrum(p.cross_section, 1.0)
    u = (WINDOW * np.exp(GRID.t))[None, :]  # u = x
    out = p.apply(u, GRID, table)
    assert np.max(np.abs(out[0, PLATEAU])) < 1e-9


def test_apply_rejects_mode_mismatch():
    p = make_model("polar_laplacian")
    table = spectrum(CIRCLE, 4.5)
    with pytest.raises(FredholmKitError):
        p.apply(np.zeros((2, GRID.n)), GRID, table)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_compose_euler_squares():
    x = b_op({MultiIndex(1): 1.0})
    assert compose(x, x) == b_op({MultiIndex(2): 1.0})


def test_compose_commutation_rule():
    x = b_op({MultiIndex(1): 1.0})
    r = b_op({MultiIndex(0): Coefficient.monomial(1.0, 1.0)})
    expected = b_op({MultiIndex(1): Coefficient.monomial(1.0, 1.0),
                     MultiIndex(0): Coefficient.monomial(1.0, 1.0)})
    assert compose(x, r) == expected


def test_compose_identity_is_unit():
    p = make_model("polar_laplacian")
    i = identity_operator(B1, CIRCLE)
    assert compose(p, i) == p
    assert compose(i, p) == p


def test_compose_sc_frame_commutation():
    sc = LieStructure.sc(1)
    x = make_operator(sc, CIRCLE, {MultiIndex(1): 1.0})
    r = make_operator(sc, CIRCLE, {MultiIndex(0): Coefficient.monomial(1.0, 1.0)})
    # (r^2 d/dr) o (r u) = r (r^2 d/dr) u + r^2 u
    expected = make_operator(sc, CIRCLE, {
        MultiIndex(1): Coefficient.monomial(1.0, 1.0),
        MultiIndex(0): Coefficient.monomial(2.0, 1.0)})
    assert compose(x, r) == expected


def test_compose_order_cancellation():
    x2 = b_op({MultiIndex(2): 1.0, MultiIndex(0): 1.0})
    minus = b_op({MultiIndex(2): -1.0, MultiIndex(1): 1.0})
    total = make_operator(B1, CIRCLE, list(x2.terms) + list(minus.terms))
    assert total.order == 1  # leading terms cancelled exactly


def test_compose_structure_mismatch_rejected():
    p = make_model("polar_laplacian")
    q = make_model("sc_laplacian", cross_dim=1)
    with pytest.raises(FredholmKitError):
        compose(p, q)


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10_000))
def test_compose_associative_with_apply(seed):
    rng = np.random.default_rng(seed)
    from conftest import random_b_operator
    p = random_b_operator(rng)
    q = random_b_operator(rng)
    table = spectrum(CIRCLE, 4.5)
    # resolutions where the window spectrum is fully resolved; pushing n
    # higher only amplifies roundoff through the k^4 derivative factors
    for n in (160, 192, 256):
        grid = RadialGrid(-8.0, 2.0, n)
        u = np.array([windowed_trig(rng, grid.t, -6.0, 0.0)
                      for _ in range(len(table))], dtype=complex)
        lhs = compose(p, q).apply(u, grid, table)
        rhs = p.apply(q.apply(u, grid, table), grid, table)
        scale = np.max(np.abs(lhs)) + 1e-30
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-8


# ---------------------------------------------------------------------------
# principal symbol and ellipticity
# ---------------------------------------------------------------------------


def test_symbol_values():
    p = make_model("polar_laplacian")
    assert principal_symbol(p, 0.3, 1.0, (0.0,)) == pytest.approx(-1.0)
    assert principal_symbol(p, 0.3, 1.0, (1.0,)) == pytest.approx(-2.0)
    bs = make_model("black_scholes", sigma=1.0, rate=0.0)
    assert principal_symbol(bs, 0.5, 2.0, ()) == pytest.approx(-2.0)


def test_symbol_multiplicative_under_compose():
    from fredholm_kit import builtin_suite
    for name, p in builtin_suite():
        if p.cross_section.coordinate_count > 1:
            covectors = [(1.0, (0.5, -0.3)), (0.3, (1.0, 0.2)), (-1.0, (2.0, 1.0))]
        elif p.cross_section.dimension >= 1:
            covectors = [(1.0, (0.5,)), (0.3, (1.0,)), (-1.0, (2.0,))]
        else:
            covectors = [(1.0, ()), (0.3, ()), (-2.0, ())]
        pq = compose(p, p)
        assert pq.order == 2 * p.order
        for xi, eta in covectors:
            lhs = principal_symbol(pq, 0.5, xi, eta)
            rhs = principal_symbol(p, 0.5, xi, eta) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-12), name


def test_ellipticity_verdicts():
    assert is_elliptic(make_model("polar_laplacian")).elliptic
    wave = b_op({MultiIndex(2): 1.0, MultiIndex(0, (), 1): -1.0})
    res = is_elliptic(wave)
    assert not res.elliptic
    assert res.min_abs_det < 1e-6
    for n in (2, 3, 4):
        for z in (1.0, 2.0 + 1.5j):
            assert is_elliptic(make_model("spherical_schrodinger", n=n, Z=z)).elliptic


def test_cyl_coord_laplacian_is_symbolic_only_and_degenerate():
    p = make_model("cyl_coord_laplacian")
    assert p.symbolic_only
    assert not is_elliptic(p).elliptic  # the (r dz)^2 symbol dies at r = 0


# ---------------------------------------------------------------------------
# the batched principal stack against a per-covector loop
# ---------------------------------------------------------------------------


def reference_principal(p, r, xi, eta):
    """sigma_m(P) at one covector, term by term with Python scalars."""
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    eta2 = float(np.dot(eta, eta))
    k = p.system_size
    total = np.zeros((k, k), dtype=complex)
    for mi, co in p.terms:
        for ct in co.terms:
            if mi.total + 2 * ct.lam_degree != p.order:
                continue
            factor = (1j * xi) ** mi.radial * (-eta2) ** mi.laplacian
            for j, pw in enumerate(mi.cross):
                if pw:
                    factor *= (1j * eta[j]) ** pw
            if ct.lam_degree:
                factor *= ct.lam_poly[-1] * eta2 ** ct.lam_degree
            factor *= float(r) ** ct.nu
            piece = factor * ct.value
            total += piece if isinstance(piece, np.ndarray) else piece * np.eye(k)
    return total if k > 1 else complex(total[0, 0])


def reference_abs_det(p, r, xi, eta):
    sym = reference_principal(p, r, xi, eta)
    return abs(complex(np.linalg.det(sym)) if p.system_size > 1 else sym)


def symbol_operator(name):
    rng = np.random.default_rng(20261018)

    def scalar():
        return complex(rng.normal(), rng.normal())

    def value(k):
        return rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)) if k > 1 else scalar()

    if name in ("torus_scalar", "torus_system"):
        # explicit partials on T^2 (also mixed with a Laplacian), a Laplacian
        # power, r^nu terms, laplacian_poly top-order terms with a complex
        # leading coefficient; the system mixes matrix and scalar values
        k = 1 if name == "torus_scalar" else 2
        return make_operator(LieStructure.b(2), CrossSection.torus(2), {
            MultiIndex(4): value(k),
            MultiIndex(2, (1, 1)): scalar(),
            MultiIndex(1, (2, 1)): Coefficient([CoeffTerm(0.0, value(k)),
                                                CoeffTerm(0.7, value(k))]),
            MultiIndex(0, (1, 0), 1): scalar(),
            MultiIndex(0, (), 2): scalar(),
            MultiIndex(2): Coefficient.laplacian_poly([scalar(), scalar()], 0.5, scalar()),
            MultiIndex(0): Coefficient.laplacian_poly([1.0, 2.0, scalar()], 0.0, value(k)),
        }, order=4)
    if name == "sphere_system":
        # the tangential slot is a magnitude; cubes of |eta|^2
        return make_operator(LieStructure.b(2), CrossSection.sphere(2), {
            MultiIndex(6): value(2),
            MultiIndex(4, (), 1): Coefficient([CoeffTerm(0.0, value(2)),
                                               CoeffTerm(1.5, value(2))]),
            MultiIndex(0, (), 3): scalar(),
            MultiIndex(0): Coefficient.laplacian_poly([0.0, scalar(), scalar(), scalar()],
                                                      0.0, scalar()),
        }, order=6)
    if name == "sphere_scalar":
        return make_operator(LieStructure.b(2), CrossSection.sphere(2), {
            MultiIndex(4): scalar(), MultiIndex(2, (), 1): scalar(),
            MultiIndex(0, (), 2): scalar(), MultiIndex(1): scalar()}, order=4)
    if name == "circle_scalar":
        return b_op({MultiIndex(2): scalar(), MultiIndex(1, (1,)): scalar(),
                     MultiIndex(0, (2,)): scalar(), MultiIndex(0): scalar()})
    if name == "ties_across_radii":
        # |det| = (1 - r) xi^2 + r eta^2 vanishes exactly on the eta axis at
        # r = 0 and on the xi axes at r = 1
        return b_op({MultiIndex(2): Coefficient([CoeffTerm(0.0, 1.0), CoeffTerm(1.0, -1.0)]),
                     MultiIndex(0, (), 1): Coefficient.monomial(1.0, 1.0)})
    if name == "torus_laplacian":
        # |det| = xi^2 + |eta|^2 = 1 up to rounding: many directions tie
        return make_operator(LieStructure.b(2), CrossSection.torus(2), {
            MultiIndex(2): 1.0, MultiIndex(0, (2,)): 1.0, MultiIndex(0, (0, 2)): 1.0})
    assert name == "black_scholes"  # covectors without a tangential part
    return make_model(name, sigma=1.0, rate=0.5)


SYMBOL_OPERATORS = ["torus_scalar", "torus_system", "sphere_system", "sphere_scalar",
                    "circle_scalar", "ties_across_radii", "torus_laplacian", "black_scholes"]


@pytest.mark.parametrize("name", SYMBOL_OPERATORS)
def test_principal_stack_matches_per_covector_loop(name):
    p = symbol_operator(name)
    dim_total, mag = _covector_dim(p)
    xi, eta, eta2 = unit_covectors(dim_total, 96, mag)
    for r in (0.0, 0.37, 1.0):
        stack = _symbol_stack(p, r, xi, eta, eta2)
        assert stack.shape[0] == xi.shape[0]
        for i, (x, e) in enumerate(zip(xi.tolist(), eta.tolist())):
            assert np.array_equal(stack[i], reference_principal(p, r, x, e))
    # off the sample sphere, through the one-covector entry point
    rng = np.random.default_rng(5)
    for _ in range(500):
        x = float(rng.normal())
        e = tuple(float(v) for v in np.abs(rng.normal(size=dim_total - 1)))
        assert np.array_equal(principal_symbol(p, 0.61, x, e),
                              reference_principal(p, 0.61, x, e))


def reference_apply(p, u, grid, table):
    """`apply` channel by channel, as the per-channel loop computed it: the
    factor (-lambda)^l, then the partials, then q(lambda), in Python
    complex arithmetic, times each channel's transformed samples, for u of
    shape (channels, k, n)."""
    chans = p.mode_channels(table)
    spectra = np.fft.fft(u, axis=-1)
    out = np.zeros_like(u)
    lams = chans.eigenvalues.tolist()
    vectors = [None] * len(lams) if chans.vectors is None else chans.vectors.tolist()
    for bt in p._bterms:
        w = np.fft.ifft(spectra * grid.ik ** bt.t, axis=-1) if bt.t else u.copy()
        if bt.nu:
            w *= np.exp(bt.nu * grid.t)
        for ci, (lam, vector) in enumerate(zip(lams, vectors)):
            factor = 1.0 + 0j
            if bt.lap:
                factor *= (-lam) ** bt.lap
            if any(bt.cross):
                factor *= cross_partial_factor(bt.cross, lam, vector)
            if bt.lam_poly is not None:
                acc = 0j
                for c in reversed(bt.lam_poly):
                    acc = acc * lam + c
                factor *= acc
            if factor == 0:
                continue
            if _is_matrix(bt.value):
                out[ci] += bt.value @ (factor * w[ci])
            else:
                out[ci] += bt.value * factor * w[ci]
    return out


# signed T^2 channels with explicit partials, q(lambda) coefficients and
# 2x2 values; S^2 Laplacian powers; signed and unsigned circle channels
APPLY_OPERATORS = {
    "torus_system": (lambda: symbol_operator("torus_system"), 5.0),
    "torus_scalar": (lambda: symbol_operator("torus_scalar"), 5.0),
    "sphere_system": (lambda: symbol_operator("sphere_system"), 12.0),
    "circle_odd_partial": (lambda: symbol_operator("circle_scalar"), 10.0),
    "circle_even_partial": (lambda: b_op({
        MultiIndex(2): 1.0, MultiIndex(0, (2,)): Coefficient.monomial(0.5, -2.0),
        MultiIndex(0, (4,)): 0.25,
        MultiIndex(0): Coefficient.laplacian_poly([1.0, -0.5, 0.125], 0.0, 1.5)}), 10.0),
}


@pytest.mark.parametrize("name", list(APPLY_OPERATORS))
def test_apply_matches_per_channel_loop(name, rng):
    make, cutoff = APPLY_OPERATORS[name]
    p = make()
    table = spectrum(p.cross_section, cutoff)
    grid = RadialGrid(-8.0, 2.0, 128)
    n_chan, k = len(p.mode_channels(table)), p.system_size
    u = np.array([[windowed_trig(rng, grid.t, -6.0, 0.0) for _ in range(k)]
                  for _ in range(n_chan)], dtype=complex)
    u = u * np.exp(1j * rng.uniform(0, 2 * np.pi, u.shape[:2]))[..., None]
    out = p.apply(u if k > 1 else u[:, 0], grid, table)
    expected = reference_apply(p, u, grid, table)
    if k == 1:
        expected = expected[:, 0]
    assert out.shape == expected.shape
    for got, want in zip(out, expected):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("dim_total,n_dir,mag", [
    (1, 96, False), (2, 96, True), (2, 720, False), (3, 720, False), (5, 96, False)])
def test_unit_covectors_are_cached_read_only(dim_total, n_dir, mag):
    cached = unit_covectors(dim_total, n_dir, mag)
    assert unit_covectors(dim_total, n_dir, mag) is cached
    for got, want in zip(cached, unit_covectors.__wrapped__(dim_total, n_dir, mag)):
        assert not got.flags.writeable
        assert np.array_equal(got, want)
        with pytest.raises(ValueError):
            got[...] = 0.0


@pytest.mark.parametrize("name", SYMBOL_OPERATORS)
def test_is_elliptic_and_symbol_floor_match_per_covector_loop(name):
    p = symbol_operator(name)
    dim_total, mag = _covector_dim(p)
    xi, eta, _ = unit_covectors(dim_total, 96, mag)
    samples = [(reference_abs_det(p, r, x, e), float(r), (x, *e))
               for r in np.linspace(0.0, 1.0, 9) for x, e in zip(xi.tolist(), eta.tolist())]
    # the witness is the first minimum in (radius, direction) order
    best = min(samples, key=lambda s: s[0])
    res = is_elliptic(p)
    assert (res.min_abs_det, res.witness_r, res.witness_covector) == best
    assert res.grid == (9, xi.shape[0])
    if name in ("ties_across_radii", "torus_laplacian"):
        assert sum(s[0] == best[0] for s in samples) > 1

    floor = math.inf
    xi, eta, _ = unit_covectors(dim_total, FLOOR_DIRECTIONS, mag)
    for x, e in zip(xi.tolist(), eta.tolist()):
        sym = reference_principal(p, 0.0, x, e)
        floor = min(floor, float(np.linalg.svd(sym, compute_uv=False)[-1])
                    if p.system_size > 1 else abs(sym))
    assert symbol_min_singular(p) == floor


# ---------------------------------------------------------------------------
# log-radius transform
# ---------------------------------------------------------------------------


def test_kondratiev_examples():
    assert kondratiev_transform(make_model("polar_laplacian")) == "(d/dt)^2 + Lap"
    scaled = b_op({MultiIndex(1): Coefficient.monomial(1.0, 1.0)})
    assert kondratiev_transform(scaled) == "e^t (d/dt)"
    s = make_model("spherical_schrodinger", n=3, Z=1.0)
    assert "e^t" in kondratiev_transform(s)


def test_kondratiev_text_shows_mode_diagonal_coefficients():
    p = b_op({
        MultiIndex(2): 1.0,
        MultiIndex(0): Coefficient([CoeffTerm(0.0, 1.0, (0.0, 1.0)),
                                    CoeffTerm(1.0, 1.0, (2.0, 3.0))]),
    })
    assert kondratiev_transform(p) == "(d/dt)^2 + q(0.0, 1.0)(lam) + e^t q(2.0, 3.0)(lam)"
    assert str(p) == "(r d/dr)^2 + q(0.0, 1.0)(lam) + r q(2.0, 3.0)(lam)"


def test_operator_display_keeps_sign_and_phase_of_q_coefficients():
    def shifted(*q):
        return b_op({MultiIndex(2): 1.0, MultiIndex(0): Coefficient.laplacian_poly(q)})

    minus, plus = shifted(-2.0, 1.0), shifted(2.0, 1.0)
    assert minus != plus
    assert str(minus) == "(r d/dr)^2 + q(-2.0, 1.0)(lam)"
    assert str(plus) == "(r d/dr)^2 + q(2.0, 1.0)(lam)"
    assert str(shifted(1j, -1e-9, 1.0)) == "(r d/dr)^2 + q(1j, 0.0, 1.0)(lam)"


def test_operator_display_shows_matrix_entries():
    eye = Coefficient.constant(np.eye(2))
    unequal = b_op({MultiIndex(2): Coefficient.constant(np.diag([1.0, 2.0])),
                    MultiIndex(0, (), 1): eye})
    equal = b_op({MultiIndex(2): eye, MultiIndex(0, (), 1): eye})
    assert unequal != equal
    assert str(unequal) == "[[1, 0], [0, 2]] (r d/dr)^2 + [[1, 0], [0, 1]] L"
    assert str(equal) == "[[1, 0], [0, 1]] (r d/dr)^2 + [[1, 0], [0, 1]] L"
    # each entry reads as a scalar value does: real when its imaginary part is 0
    mixed = b_op({MultiIndex(2): Coefficient.constant(np.array([[1.5, 2j], [-0.25, 1 + 1j]]))})
    assert str(mixed) == "[[1.5, 0+2j], [-0.25, 1+1j]] (r d/dr)^2"


def test_kondratiev_rejects_non_b():
    with pytest.raises(FredholmKitError):
        kondratiev_transform(make_model("sc_laplacian", cross_dim=1))


# ---------------------------------------------------------------------------
# weight conjugation
# ---------------------------------------------------------------------------


def test_conjugate_examples():
    x = b_op({MultiIndex(1): 1.0})
    assert conjugate(x, 0.5) == b_op({MultiIndex(1): 1.0, MultiIndex(0): 0.5})
    p = make_model("polar_laplacian")
    assert conjugate(p, 0.0) == p
    x2 = b_op({MultiIndex(2): 1.0})
    assert conjugate(x2, 1.0) == b_op(
        {MultiIndex(2): 1.0, MultiIndex(1): 2.0, MultiIndex(0): 1.0})


@settings(deadline=None, max_examples=40)
@given(st.integers(-48, 48).map(lambda k: k / 16.0))
def test_conjugate_round_trip_exact_on_dyadics(delta):
    # dyadic weights make every binomial product representable, so the
    # round trip cancels bit for bit
    for p in (make_model("polar_laplacian"),
              make_model("spherical_schrodinger", n=4, Z=2.0)):
        assert conjugate(conjugate(p, delta), -delta) == p


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=-3, max_value=3,
                 allow_nan=False, allow_subnormal=False))
def test_conjugate_round_trip_general_floats(delta):
    p = make_model("spherical_schrodinger", n=4, Z=2.0)
    q = conjugate(conjugate(p, delta), -delta)
    ref = dict(p.terms)
    for mi, co in q.terms:
        for ct in co.terms:
            if mi in ref and any(abs(t.nu - ct.nu) < 1e-12 for t in ref[mi].terms):
                match = next(t for t in ref[mi].terms if abs(t.nu - ct.nu) < 1e-12)
                assert abs(ct.value - match.value) < 1e-13 * max(1.0, abs(delta)) ** 2
            else:
                assert abs(ct.value) < 1e-13 * max(1.0, abs(delta)) ** 2


def test_conjugate_matches_weighted_application(rng):
    # r^-d P r^d acting on u equals P acting on r^d u, then scaled back
    p = make_model("polar_laplacian")
    d = 0.7
    table = spectrum(CIRCLE, 1.5)
    u = np.array([windowed_trig(rng, GRID.t, -6.0, 0.0) for _ in range(2)],
                 dtype=complex)
    lhs = conjugate(p, d).apply(u, GRID, table)
    rd = np.exp(d * GRID.t)
    rhs = p.apply(u * rd, GRID, table) / rd
    assert_allclose(lhs, rhs, rtol=0, atol=1e-8 * np.max(np.abs(rhs)))


def test_conjugate_rejects_non_b():
    with pytest.raises(FredholmKitError):
        conjugate(make_model("hyperbolic_laplacian"), 1.0)


# ---------------------------------------------------------------------------
# the singular Schrodinger rewrite
# ---------------------------------------------------------------------------


def test_cgamma_b_route_half():
    factor, op = cgamma_rewrite(3, 0.5, 2.0)
    assert factor == 2.0
    assert op.structure.kind.value == "b"
    assert dict(op.terms)[MultiIndex(0)] == Coefficient.monomial(1.0, 2.0)


def test_cgamma_b_route_zero():
    factor, op = cgamma_rewrite(3, 0.0, 1.0)
    assert factor == 2.0
    assert dict(op.terms)[MultiIndex(0)] == Coefficient.monomial(2.0, 1.0)


def test_cgamma_rescaled_route():
    factor, op = cgamma_rewrite(3, 2.0, 1.0)
    assert factor == 4.0
    assert op.structure.kind.value == "c_gamma" and op.structure.gamma == 2.0
    # n - 1 - gamma = 0 kills the first-order term
    assert MultiIndex(1) not in dict(op.terms)
    assert dict(op.terms)[MultiIndex(0, (), 1)] == Coefficient.constant(1.0)


def test_cgamma_gap_rejected():
    with pytest.raises(NotRepresentableError):
        cgamma_rewrite(3, 0.75, 1.0)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
def test_cgamma_model_rejects_non_finite_exponent(gamma):
    with pytest.raises(ValueError, match="must be finite"):
        make_model("cgamma_schrodinger", gamma=gamma)


def test_cgamma_frame_composition():
    g = LieStructure.c_gamma(1.5, 1)
    x = make_operator(g, CrossSection.sphere(1), {MultiIndex(1): 1.0})
    assert compose(x, x) == make_operator(g, CrossSection.sphere(1),
                                          {MultiIndex(2): 1.0})
    r = make_operator(g, CrossSection.sphere(1),
                      {MultiIndex(0): Coefficient.monomial(2.0, 1.0)})
    # (r^1.5 d/dr) o (r^2 u) = r^2 (r^1.5 d/dr) u + 2 r^2.5 u
    expected = make_operator(g, CrossSection.sphere(1), {
        MultiIndex(1): Coefficient.monomial(2.0, 1.0),
        MultiIndex(0): Coefficient.monomial(2.5, 2.0)})
    assert compose(x, r) == expected


def test_laplacian_poly_coefficient_matches_laplacian_slot(rng):
    # q(lam) = -lam acts exactly like one power of the Laplace-Beltrami slot
    via_slot = make_operator(B1, CIRCLE, {
        MultiIndex(2): 1.0, MultiIndex(0, (), 1): 1.0})
    via_poly = make_operator(B1, CIRCLE, {
        MultiIndex(2): 1.0,
        MultiIndex(0): Coefficient.laplacian_poly([0.0, -1.0])})
    assert via_poly.order == 2
    table = spectrum(CIRCLE, 4.5)
    u = np.array([windowed_trig(rng, GRID.t, -6.0, 0.0) for _ in range(len(table))],
                 dtype=complex)
    assert_allclose(via_slot.apply(u, GRID, table), via_poly.apply(u, GRID, table),
                    rtol=0, atol=1e-12)
    for xi, eta in ((1.0, 0.5), (0.0, 1.0)):
        assert principal_symbol(via_slot, 0.0, xi, (eta,)) == pytest.approx(
            principal_symbol(via_poly, 0.0, xi, (eta,)))
    from fredholm_kit import indicial_family, normal_operator
    fa = indicial_family(normal_operator(via_slot), table)
    fb = indicial_family(normal_operator(via_poly), table)
    for label in fa.channels.labels:
        assert np.array_equal(fa.poly(label), fb.poly(label))


def test_signed_channels_for_odd_partials():
    drift = make_operator(B1, CIRCLE, {
        MultiIndex(2): 1.0, MultiIndex(0, (1,), 0): 1.0})
    assert drift.needs_signed_modes()
    table = spectrum(CIRCLE, 1.5)
    chans = drift.mode_channels(table)
    assert chans.labels == ("k=0", "k=+1", "k=-1")
    assert chans.vectors.tolist() == [[0], [1], [-1]]
    from fredholm_kit import indicial_family, normal_operator
    fam = indicial_family(normal_operator(drift), table)
    # (i tau)^2 + i k distinguishes the signs
    assert np.array_equal(fam.poly("k=+1")[:, 0, 0], np.array([1j, 0, -1]))
    assert np.array_equal(fam.poly("k=-1")[:, 0, 0], np.array([-1j, 0, -1]))


@pytest.mark.parametrize("n,gamma", [(3, 0.0), (3, 0.5), (3, 1.0), (3, 2.0), (4, 1.5)])
def test_cgamma_identity_against_direct_action(n, gamma):
    factor, op = cgamma_rewrite(n, gamma, 1.0)
    grid = RadialGrid(-4.0, 1.0, 1024)
    rho = grid.r
    table = spectrum(op.cross_section, 2.0 * (n - 1) + 0.5)
    for l in (0, 1):
        lam = l * (l + n - 2)
        u, du, d2u = gaussian_packet(rho, 0.5, 0.05, 4.0)
        direct = d2u + (n - 1) / rho * du - lam / rho**2 * u \
            + rho ** (-2 * gamma) * u
        uu = np.zeros((len(table), grid.n), dtype=complex)
        uu[l] = u
        out = op.apply(uu, grid, table)[l] * rho ** (-factor)
        mask = (rho > 0.2) & (rho < 0.8)
        rel = np.max(np.abs(out[mask] - direct[mask])) / np.max(np.abs(direct[mask]))
        assert rel < 1e-8
