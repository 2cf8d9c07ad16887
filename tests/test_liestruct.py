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
    StructureKind,
    VectorField,
    bracket,
    compatible_metric,
    isotropy,
    structure_constants,
)
from fredholm_kit.liestruct import RADIAL, VTerm

STRUCTURES = [
    LieStructure.b(2),
    LieStructure.zero(2),
    LieStructure.sc(2),
    LieStructure.c_gamma(1.5, 2),
    LieStructure.c_gamma(3.0, 2),
]


def vf(coeff, nu, axis):
    return VectorField.monomial(coeff, nu, axis)


# ---------------------------------------------------------------------------
# a monomial-calculus oracle for brackets: act on r^a * y^b test functions
# ---------------------------------------------------------------------------


def _act(field: VectorField, mono):
    """Apply a vector field to a polynomial in (r, y1, y2), represented as
    {(a, b1, b2): coefficient}; exact integer/float arithmetic."""
    out = {}
    for t in field.terms:
        for (a, b1, b2), c in mono.items():
            if t.axis == RADIAL:
                if a == 0:
                    continue
                key, val = (a - 1 + t.nu, b1, b2), c * a * t.coeff
            elif t.axis == 0:
                if b1 == 0:
                    continue
                key, val = (a + t.nu, b1 - 1, b2), c * b1 * t.coeff
            else:
                if b2 == 0:
                    continue
                key, val = (a + t.nu, b1, b2 - 1), c * b2 * t.coeff
            out[key] = out.get(key, 0) + val
    return {k: v for k, v in out.items() if v != 0}


def _commutator_on(x, y, mono):
    xy = _act(x, _act(y, mono))
    yx = _act(y, _act(x, mono))
    out = dict(xy)
    for k, v in yx.items():
        out[k] = out.get(k, 0) - v
    return {k: v for k, v in out.items() if v != 0}


TEST_MONOMIALS = [{(3, 0, 0): 1.0}, {(1, 2, 0): 1.0}, {(2, 1, 1): 1.0},
                  {(0, 3, 0): 1.0}, {(4, 0, 2): 1.0}]


def assert_bracket_matches_oracle(x, y):
    br = bracket(x, y)
    for mono in TEST_MONOMIALS:
        assert _act(br, mono) == _commutator_on(x, y, mono)


def test_bracket_commuting_coordinate_fields():
    assert bracket(vf(1, 1, RADIAL), vf(1, 0, 0)).is_zero()


def test_bracket_b_scaling_field():
    out = bracket(vf(1, 1, RADIAL), vf(1, 1, 0))
    assert out == vf(1, 1, 0)
    assert_bracket_matches_oracle(vf(1, 1, RADIAL), vf(1, 1, 0))


def test_bracket_sc_radial_field():
    out = bracket(vf(1, 2, RADIAL), vf(1, 1, 0))
    assert out == vf(1, 2, 0)  # r * (r d/dy)
    assert_bracket_matches_oracle(vf(1, 2, RADIAL), vf(1, 1, 0))


_field_strategy = st.lists(
    st.tuples(st.integers(-3, 3).filter(bool), st.integers(0, 3),
              st.sampled_from([RADIAL, 0, 1])),
    min_size=1, max_size=3,
).map(lambda ts: VectorField([VTerm(c, nu, ax) for c, nu, ax in ts]))


@settings(deadline=None, max_examples=60)
@given(_field_strategy, _field_strategy)
def test_bracket_oracle_random(x, y):
    assert_bracket_matches_oracle(x, y)
    # antisymmetry
    assert bracket(x, y) == (-1) * bracket(y, x)


def test_bracket_jacobi_on_frames():
    for s in STRUCTURES:
        frame = s.frame_vector_fields()
        for x, y, z in itertools.product(frame, repeat=3):
            lhs = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) \
                + bracket(z, bracket(x, y))
            assert lhs.is_zero()


def test_bracket_closure_in_frame_module():
    for s in STRUCTURES:
        frame = s.frame_vector_fields()
        for x, y in itertools.product(frame, repeat=2):
            expansion = s.expand_in_frame(bracket(x, y))
            for terms in expansion:
                for _, nu in terms:
                    assert nu >= 0


def test_bracket_rejects_negative_exponents():
    with pytest.raises(NotRepresentableError):
        bracket(vf(1, 0.5, RADIAL), vf(1, 0.3, 0))
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
