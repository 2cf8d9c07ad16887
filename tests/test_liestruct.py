"""Frame brackets, isotropy groups, and compatible metrics."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredholm_kit import (
    FrameField,
    FredholmKitError,
    GroupKind,
    LieStructure,
    NotRepresentableError,
    compatible_metric,
    isotropy,
    structure_constants,
)
from fredholm_kit.liestruct import MAX_COLLAR_DIM, RADIAL, IsotropyDescriptor


def structures(cross_dim):
    return [
        LieStructure.b(cross_dim),
        LieStructure.zero(cross_dim),
        LieStructure.sc(cross_dim),
        LieStructure.c_gamma(1.0, cross_dim),
        LieStructure.c_gamma(1.5, cross_dim),
        LieStructure.c_gamma(3.0, cross_dim),
    ]


STRUCTURES = structures(2)


# ---------------------------------------------------------------------------
# a monomial-calculus oracle for brackets: act on r^a * y^b test functions
# ---------------------------------------------------------------------------


def _act(field, mono):
    """Apply a vector field, a list of (coeff, nu, axis) terms
    coeff * r^nu * d/d(axis), to a polynomial in (r, y1, y2, ...),
    represented as {(a, b1, b2, ...): coefficient}."""
    out = {}
    for coeff, nu, axis in field:
        slot = 0 if axis == RADIAL else axis + 1
        for exps, c in mono.items():
            if exps[slot] == 0:
                continue
            key = list(exps)
            key[slot] -= 1
            key[0] += nu
            key = tuple(key)
            out[key] = out.get(key, 0) + c * exps[slot] * coeff
    return {k: v for k, v in out.items() if v != 0}


def _commutator_on(x, y, mono):
    xy = _act(x, _act(y, mono))
    yx = _act(y, _act(x, mono))
    out = dict(xy)
    for k, v in yx.items():
        out[k] = out.get(k, 0) - v
    return {k: v for k, v in out.items() if v != 0}


def oracle_constants(s):
    """The bracket table at r = 0 read off the monomial action: [e_i, e_j]
    applied to the coordinate x_k (r, then y1, y2, ...), divided by e_k
    applied to x_k, is c * r^nu with nu >= 0 (the frame closes), and it
    contributes c at r = 0 when nu == 0."""
    frame = [[(1.0, f.r_exponent, f.axis)] for f in s.frame]
    n = len(frame)
    c = np.zeros((n, n, n))
    for i, j, k in itertools.product(range(n), repeat=3):
        coordinate = {tuple(int(m == k) for m in range(n)): 1.0}
        [(unit, scale)] = _act(frame[k], coordinate).items()
        out = _commutator_on(frame[i], frame[j], coordinate)
        if out:
            [(exps, coeff)] = out.items()
            assert exps[1:] == unit[1:] == (0,) * (n - 1)
            nu = exps[0] - unit[0]
            assert nu >= 0, (s, i, j, k)
            if nu == 0:
                c[i, j, k] = coeff / scale
    return c


def assert_constants_match_oracle(s):
    c = structure_constants(s)
    assert np.array_equal(c, oracle_constants(s)), s
    assert not np.any(np.signbit(c[c == 0])), s  # no -0.0 for the JSON


def test_bracket_closure_in_frame_module():
    # every frame closes, and its table is the r^0 part of its brackets
    for collar_dim in (1, 2, 3, 4):
        for s in structures(collar_dim - 1):
            assert_constants_match_oracle(s)


@settings(deadline=None, max_examples=60)
@given(st.floats(min_value=1.0, max_value=8.0), st.integers(0, 3))
def test_bracket_oracle_random(gamma, cross_dim):
    assert_constants_match_oracle(LieStructure.c_gamma(gamma, cross_dim))


def test_cgamma_below_one_is_not_representable():
    with pytest.raises(NotRepresentableError):
        LieStructure.c_gamma(0.75, 1)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -float("inf")])
def test_cgamma_rejects_non_finite_exponent(gamma):
    with pytest.raises(FredholmKitError, match="must be finite"):
        LieStructure.c_gamma(gamma, 1)


def test_frame_shapes():
    s = LieStructure.sc(2)
    assert s.frame == (FrameField(2.0, RADIAL), FrameField(1.0, 0), FrameField(1.0, 1))
    g = LieStructure.c_gamma(2.0, 1)
    assert g.frame == (FrameField(2.0, RADIAL), FrameField(1.0, 0))
    with pytest.raises(ValueError):
        FrameField(0.0, RADIAL)


def test_isotropy_b_is_abelian_with_transverse_line():
    iso = isotropy(LieStructure.b(1))
    assert not np.any(iso.structure_constants)
    assert iso.group_kind is GroupKind.ABELIAN
    assert iso.group == "R"
    assert iso.orbit == "boundary component"
    assert iso.group_dim == 1


def test_isotropy_zero_is_semidirect_dilation():
    iso = isotropy(LieStructure.zero(2))
    c = iso.structure_constants
    assert iso.group_kind is GroupKind.SEMIDIRECT_DILATION
    for j in (1, 2):
        expected = np.zeros(3)
        expected[j] = 1.0
        assert np.array_equal(c[0, j], expected)
        assert np.array_equal(c[j, 0], -expected)
    assert not np.any(c[1:, 1:])


def test_isotropy_sc_is_abelian():
    iso = isotropy(LieStructure.sc(2))
    assert not np.any(iso.structure_constants)
    assert iso.group_kind is GroupKind.ABELIAN
    assert iso.orbit == "point"


def test_isotropy_cgamma_above_one_is_abelian():
    iso = isotropy(LieStructure.c_gamma(2.5, 2))
    assert iso.group_kind is GroupKind.ABELIAN


def test_structure_constants_antisymmetry_and_jacobi():
    for s in STRUCTURES:
        c = structure_constants(s)
        assert np.array_equal(c, -np.swapaxes(c, 0, 1))
        n = c.shape[0]
        for i, j, k in itertools.product(range(n), repeat=3):
            total = (np.einsum("m,ml->l", c[i, j], c[:, k])
                     + np.einsum("m,ml->l", c[j, k], c[:, i])
                     + np.einsum("m,ml->l", c[k, i], c[:, j]))
            assert np.max(np.abs(total)) < 1e-12


def jacobi_defect(c):
    """The largest coefficient of [[e_i, e_j], e_k] + cyclic, one triple
    (i, j, k) at a time."""
    worst = 0.0
    for i, j, k in itertools.product(range(c.shape[0]), repeat=3):
        total = (np.einsum("m,ml->l", c[i, j], c[:, k])
                 + np.einsum("m,ml->l", c[j, k], c[:, i])
                 + np.einsum("m,ml->l", c[k, i], c[:, j]))
        worst = max(worst, float(np.max(np.abs(total))))
    return worst


def hand_built_tables():
    """Antisymmetric tables: [e0, e1] = e2 with [e0, e2] = e0, which breaks
    the Jacobi identity ([[e0, e1], e2] + cyclic = -e2); so(3), which keeps
    it; and random ones in dims 2 (always Jacobi) to 4."""
    broken = np.zeros((3, 3, 3))
    broken[0, 1, 2], broken[0, 2, 0] = 1.0, 1.0
    so3 = np.zeros((3, 3, 3))
    for i, j, k in itertools.permutations(range(3)):
        so3[i, j, k] = np.linalg.det(np.eye(3)[[i, j, k]])
    rng = np.random.default_rng(33)
    drawn = [rng.normal(size=(n, n, n)) for n in (2, 3, 4)]
    return [c - np.swapaxes(c, 0, 1) for c in (broken, so3, *drawn)]


def test_isotropy_refuses_exactly_the_tables_that_break_jacobi():
    kept = []
    for c in hand_built_tables():
        if jacobi_defect(c) <= 1e-12:
            kept.append(IsotropyDescriptor(c, GroupKind.ABELIAN, "point", c.shape[0], "G"))
        else:
            with pytest.raises(ValueError, match="Jacobi"):
                IsotropyDescriptor(c, GroupKind.ABELIAN, "point", c.shape[0], "G")
    assert [iso.structure_constants.shape[0] for iso in kept] == [3, 2]  # so(3), dim 2


def test_bracket_tables_refuse_a_collar_dim_past_the_cap_at_once():
    # the table holds collar_dim^3 numbers and the Jacobi check takes n^5
    # steps: a library caller past the cap is refused before either starts
    import time

    assert MAX_COLLAR_DIM == 32
    for build, s in ((isotropy, LieStructure.zero(99)),
                     (structure_constants, LieStructure.b(10 ** 6)),
                     (isotropy, LieStructure.sc(MAX_COLLAR_DIM))):
        start = time.perf_counter()
        with pytest.raises(FredholmKitError, match=f"at most {MAX_COLLAR_DIM}, got {s.collar_dim}"):
            build(s)
        assert time.perf_counter() - start < 1.0
    iso = isotropy(LieStructure.zero(MAX_COLLAR_DIM - 1))
    c = iso.structure_constants
    assert c.shape == (MAX_COLLAR_DIM,) * 3 and iso.group_kind is GroupKind.SEMIDIRECT_DILATION
    assert c[0, MAX_COLLAR_DIM - 1, MAX_COLLAR_DIM - 1] == 1


def test_metric_b_at_unit_radius_is_identity():
    assert np.array_equal(compatible_metric(LieStructure.b(2), 1.0), np.eye(3))


def test_metric_values_at_half():
    assert np.array_equal(compatible_metric(LieStructure.b(1), 0.5),
                          np.diag([4.0, 1.0]))
    assert np.array_equal(compatible_metric(LieStructure.zero(1), 0.5),
                          np.diag([4.0, 4.0]))


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=1e-3, max_value=10.0))
def test_metric_spd_and_blowup_rates(r):
    for s in STRUCTURES:
        g = compatible_metric(s, r)
        assert np.all(np.linalg.eigvalsh(g) > 0)
        a, c = s.radial_exponent, s.cross_exponent
        assert g[0, 0] == pytest.approx(r ** (-2 * a), rel=1e-12)
        if s.cross_dim:
            assert g[1, 1] == pytest.approx(r ** (-2 * c), rel=1e-12)


def test_metric_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        compatible_metric(LieStructure.b(1), 0.0)
