"""The decision engine: roots, line tests, symbol scans, verdicts, weights."""

import ast
import cmath
import json
import math
import os
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fredholm_kit import (
    ChannelTable,
    CoeffTerm,
    Coefficient,
    CrossSection,
    FredholmKitError,
    FredholmOptions,
    IndicialFamily,
    LieStructure,
    MultiIndex,
    RootTable,
    StructureKind,
    VERDICT_FREDHOLM,
    VERDICT_NOT,
    VERDICT_UNDECIDED,
    brute_roots,
    builtin_suite,
    compose,
    conjugate,
    fredholm_check,
    half_space_sample,
    identity_operator,
    indicial_family,
    indicial_roots,
    make_model,
    make_operator,
    normal_invertible,
    normal_operator,
    safe_weight_intervals,
    sc_invertible,
    spectrum,
    tail_bound,
)
from fredholm_kit import fredholm
from fredholm_kit.cli import main as cli_main, serialize_operator
from fredholm_kit.fredholm import ROOTS_NOT_COMPUTED, certified_weight_range
from fredholm_kit.limitops import freeze_coefficients
from fredholm_kit.opalg import (
    FLOOR_DIRECTIONS,
    _covector_dim,
    _min_singular,
    _symbol_stack,
    _value_norm,
    symbol_min_singular,
    symbol_monomial,
    symbol_stack,
    unit_covectors,
)
from conftest import (
    JORDAN_SHIFTS,
    LARGE_SHIFTS,
    assert_within_rounding,
    b_system_order2,
    b_system_order4,
    b_system_order4_singular,
    b_system_shifted,
    degree_drop_system,
    near_singular_leading_system,
    order2_mellin_roots,
    order4_mellin_roots,
    random_b_operator,
    shared_class_root_roots,
    shared_class_root_table,
    shifted_mellin_roots,
    two_double_roots_system,
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


SINGULAR_LEADING = "root refinement failed on mode k=0: the leading matrix is singular"


def test_singular_leading_matrix_lists_no_spurious_roots(tmp_path):
    # diag(T^2 + L - 1, T + L - 2): the leading matrix diag(1, 0) fails
    # every mode by name, and the operator is not elliptic, so `check`
    # keeps NotFredholm with a caveat and `verify` skips the roots
    p = degree_drop_system()
    with pytest.raises(FredholmKitError, match=f"^{SINGULAR_LEADING}$"):
        indicial_roots(family_of(p, 30.0))
    report = fredholm_check(p, 0.3, FredholmOptions(mode_cutoff=30.0))
    assert not report.elliptic.elliptic and report.verdict == VERDICT_NOT
    assert report.roots == () and report.safe_weights == ()
    assert (f"indicial roots not computed ({SINGULAR_LEADING}); the verdict rests on "
            "the failed ellipticity alone") in report.caveats
    spec = tmp_path / "degree_drop.json"
    spec.write_text(json.dumps(serialize_operator(p)))
    res = CliRunner().invoke(cli_main, ["verify", str(spec), "--weight", "0.3",
                                        "--cutoff", "30"])
    assert res.exit_code == 1, res.output
    assert "[     skipped] roots: indicial roots not computed" in res.output


@pytest.mark.parametrize("cutoff", [30.0, 4000.0])
def test_singular_leading_matrix_roots_are_exact_or_refused(cutoff):
    # the leading matrix S diag(1, 1, 1, 0) S^-1 has no linearization with
    # an invertible top; its roots are refused by name, never interpolated
    fam = family_of(b_system_order4_singular(), cutoff)
    with pytest.raises(FredholmKitError, match=f"^{SINGULAR_LEADING}$"):
        indicial_roots(fam)


def test_linearized_roots_fail_each_polynomial_alone():
    # one degree batch: diag(tau^2 - 1, tau^2 - 4); a singular leading
    # matrix; a leading matrix holding NaN (an overflowing family makes
    # inf * 0), which the rank test's SVD cannot take; and a companion
    # matrix that overflows
    eye, zero = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
    polys = [(np.diag([-1.0, -4.0]), zero, eye),
             (eye, zero, np.diag([1.0, 0.0])),
             (eye, zero, np.array([[1.0, np.nan], [0.0, 1.0]])),
             (1e300 * eye, zero, 1e-300 * eye)]
    coeffs = np.array(polys, dtype=complex).swapaxes(0, 1)
    good, *failed = fredholm._linearized_roots(coeffs)
    assert sorted(tau.real for tau, mult in good[0]) == [-2.0, -1.0, 1.0, 2.0]
    assert failed == [(None, "the leading matrix is singular"),
                      (None, "the block companion matrix is not finite"),
                      (None, "the block companion matrix is not finite")]


def _rank_deficient(rng, k):
    """A nonzero k x k matrix of rank below k: a product of small integer
    matrices, exact in floating point."""
    while True:
        rank = int(rng.integers(1, k))
        a = rng.integers(-3, 4, (k, rank)) @ rng.integers(-3, 4, (rank, k))
        if a.any():
            return a.astype(float)


def _singular_leading_system(rng):
    """A b system of size 2 or 3 and order 1-4 on the circle or T^2 whose
    (r d/dr)^m coefficient is rank-deficient, with random lower-order
    radial, Laplacian, partial and laplacian_poly terms, and r^nu terms
    (nu > 0) on the top order and on some lower ones."""
    k, m = int(rng.integers(2, 4)), int(rng.integers(1, 5))
    cross = CrossSection.circle() if rng.random() < 0.5 else CrossSection.torus(2)

    def value():
        return rng.integers(-3, 4, (k, k)).astype(float)

    terms = {MultiIndex(m): Coefficient([CoeffTerm(0, _rank_deficient(rng, k)),
                                         CoeffTerm(1, value())])}
    for _ in range(int(rng.integers(2, 6))):
        radial = int(rng.integers(0, m))
        room = m - radial
        kind = rng.integers(0, 3)
        if kind == 0 and room >= 2:
            mi, co = MultiIndex(radial, (), 1), Coefficient.constant(value())
        elif kind == 1 and room >= 2:
            mi = MultiIndex(radial)
            co = Coefficient.laplacian_poly([int(rng.integers(-3, 4)), 1], value=value())
        elif kind == 2 and cross.dimension == 2:
            first = int(rng.integers(0, 2)) if room >= 2 else 0
            mi, co = MultiIndex(radial, (first, 1)), Coefficient.constant(value())
        else:
            mi, co = MultiIndex(radial), Coefficient.constant(value())
        if rng.random() < 0.5:
            co = Coefficient([*co.terms, CoeffTerm(float(rng.integers(1, 3)) / 2, value())])
        terms[mi] = co
    return make_operator(LieStructure.b(cross.dimension), cross, terms)


def test_a_singular_leading_matrix_belongs_to_a_non_elliptic_operator():
    # the tau^m coefficient of every mode is i^m sigma_m(P)(0; 1, 0), a
    # covector is_elliptic samples: so the root path's refusal of a
    # singular leading matrix never meets an elliptic operator
    from fredholm_kit import cross_check
    rng = np.random.default_rng(2510)
    for draw in range(40):
        p = _singular_leading_system(rng)
        opts = FredholmOptions(mode_cutoff=8.0)
        report = fredholm_check(p, 0.3, opts)
        assert not report.elliptic.elliptic, (draw, p)
        assert report.verdict == VERDICT_NOT, (draw, p)
        assert report.roots == (), (draw, p)
        [caveat] = [c for c in report.caveats if c.startswith("indicial roots not computed")]
        assert "the leading matrix is singular" in caveat, (draw, p)
        assert cross_check(p, report, opts).passed, (draw, p)


def test_root_failure_names_the_first_failing_class():
    # one degree batch, k=0, k=1, k=2 of near_singular_leading_system(): the
    # leading matrix diag(-1, -1e-15) of k=1 is within its rounding
    # allowance of singular, so its inclusion discs are not finite; k=2,
    # given a leading matrix of 5e-324 I, fails before the roots are
    # resolved.  The error names k=1, the first failing class, although
    # k=2's failure comes from the earlier pass
    fam = family_of(near_singular_leading_system(), 4.5)
    assert fam.channels.labels == ("k=0", "k=1", "k=2")
    coeffs = fam.coeffs.copy()
    coeffs[2, -1] = 5e-324 * np.eye(2)
    with pytest.raises(FredholmKitError, match=r"^root refinement failed on mode k=1: "
                                               r"inclusion disc not finite at tau="):
        indicial_roots(fam.replace(coeffs=coeffs))
    [(_, failure)] = fredholm._linearized_roots(coeffs[2:].swapaxes(0, 1))
    assert failure in ("the leading matrix is singular",
                       "the block companion matrix is not finite")


def test_non_elliptic_verdict_survives_a_root_failure():
    # the singular leading matrix fails the root path by name
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
    fam = IndicialFamily(ChannelTable(("k=0",), np.zeros(1)), coeffs[None])
    assert fam.system_size == coeffs.shape[1]
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
    with pytest.raises(Exception, match="identically zero"):
        indicial_roots(fam.replace(coeffs=broken))


def _listed(roots):
    """Each root as mode, multiplicity and the values and zero signs of its
    tau and mellin parts: == on these tells 0.0 from -0.0."""
    parts = [(r.tau.real, r.tau.imag, r.mellin.real, r.mellin.imag) for r in roots]
    return [(r.mode, r.multiplicity, x, [math.copysign(1.0, v) for v in x])
            for r, x in zip(roots, parts)]


def _reference_order(fam):
    """The root list `indicial_roots` promises, by its definition: every
    channel solved alone, the lists joined in channel order, and one
    stable sort by (Re z, Im z, mode)."""
    joined = []
    for i, label in enumerate(fam.channels.labels):
        one = ChannelTable((label,), fam.channels.eigenvalues[i:i + 1])
        joined += indicial_roots(IndicialFamily(one, fam.coeffs[i:i + 1]))
    return sorted(joined, key=lambda r: (r.mellin.real, r.mellin.imag, r.mode))


# scalar mode polynomials, ascending in tau: roots +-i, a copy with a -0.0
# coefficient and one twice as large (other classes, the same roots), real
# roots +-1 (their mellin parts hold -0.0), double roots +-i and +-2i, and
# roots shared with the first at +-i
_ORDER_POLYS = (
    (1.0, 0.0, 1.0), (1.0, -0.0, 1.0), (2.0, 0.0, 2.0), (-1.0, 0.0, 1.0),
    (1.0, 0.0, 2.0, 0.0, 1.0), (4.0, 0.0, 4.0, 0.0, 1.0), (2.0, 0.0, 3.0, 0.0, 1.0),
    (0.5, 1.0, 1.0), (-3.0, 1.0, 1.0),
)
# labels whose string order is not their channel order
_ORDER_LABELS = (*(f"k={k:+d}" for k in range(-12, 13) if k), "k=0",
                 *(f"l={j}" for j in range(13)), "k=(+1,-2)", "k=(0,+10)", "k=(-10,0)",
                 "|k|^2=4", "|k|^2=16", "mode3", "mode10")


def _drawn_order_family(seed):
    rng = np.random.default_rng(seed)
    labels = tuple(rng.permutation(_ORDER_LABELS)[:rng.integers(8, 40)].tolist())
    coeffs = np.zeros((len(labels), 5, 1, 1), dtype=complex)
    for row, c in zip(coeffs, rng.integers(0, len(_ORDER_POLYS), len(labels))):
        row[:len(_ORDER_POLYS[c]), 0, 0] = _ORDER_POLYS[c]
    table = ChannelTable(labels, np.zeros(len(labels)))
    return IndicialFamily(table, coeffs)


def _shifted_torus_family(seed):
    rng = np.random.default_rng(seed)
    torus = CrossSection.torus(2)
    p = make_operator(LieStructure.b(2), torus, {
        MultiIndex(2): 1.0, MultiIndex(0, (2, 0)): 1.0, MultiIndex(0, (0, 2)): 1.0,
        MultiIndex(0, (1, 0)): float(rng.uniform(-0.5, 0.5)), MultiIndex(0): -0.25})
    return family_of(p, 30.0)


_ORDER_FAMILIES = [
    *(pytest.param(_drawn_order_family(seed), id=f"drawn-{seed}") for seed in range(12)),
    *(pytest.param(_shifted_torus_family(seed), id=f"torus-{seed}") for seed in range(2)),
    pytest.param(family_of(make_model("spherical_schrodinger", n=3, Z=1.0), 150.0),
                 id="sphere-l"),
    pytest.param(family_of(make_operator(B1, CIRCLE, {
        MultiIndex(2): 1.0, MultiIndex(0, (2,)): 1.0, MultiIndex(0, (1,)): 0.5,
        MultiIndex(0): -0.25}), 150.0), id="circle-signed"),
    pytest.param(family_of(compose(cylinder_shifted(2.0), cylinder_shifted(2.0)), 40.0),
                 id="double-roots"),
]


@pytest.mark.parametrize("fam", _ORDER_FAMILIES)
def test_root_order_is_the_stable_sort_of_the_channel_lists(fam):
    assert _listed(indicial_roots(fam)) == _listed(_reference_order(fam))


def _optional(root):
    return _listed([root] if root is not None else [])


@pytest.mark.parametrize("fam", _ORDER_FAMILIES)
def test_root_table_readers_equal_those_of_its_listed_roots(fam):
    # every reader of the root table gives what it gives from the
    # IndicialRoots the table lists, zero signs included
    from fredholm_kit.cli import _roots_lines, _roots_text
    table = indicial_roots(fam)
    listed = list(table)
    assert isinstance(table, RootTable) and len(table.tau) <= len(table)
    assert _listed(table) == _listed(listed) == _listed(table[:])
    assert _listed(table[2:-3]) == _listed(listed[2:-3])
    assert _listed([table[-1], table[0]]) == _listed([listed[-1], listed[0]])
    assert _roots_text(table) == _roots_text(listed)
    assert _roots_lines(table, lambda *root: repr(root)) == \
        _roots_lines(listed, lambda *root: repr(root))
    report = fredholm_check(make_model("polar_laplacian"), 0.3)
    assert json.dumps(report.replace(roots=table).to_dict()) == \
        json.dumps(report.replace(roots=listed).to_dict())
    for delta in [*(r.mellin.real for r in listed[::5]), -2.0, 0.0, 0.3, 1e3]:
        v, w = normal_invertible(table, delta), normal_invertible(RootTable.from_roots(listed), delta)
        assert (v.status, v.distance) == (w.status, w.distance)
        assert _optional(v.witness) == _optional(w.witness)
    for lo, hi in [(-5.0, 5.0), (-1.0, 1.0), (0.0, 0.5), (-1e3, 1e3)]:
        assert repr(safe_weight_intervals(table, lo, hi)) == \
            repr(safe_weight_intervals(listed, lo, hi))


def test_root_order_sweep_covers_ties_double_roots_and_signed_zeros():
    roots = [r for seed in range(12) for r in indicial_roots(_drawn_order_family(seed))]
    assert any(r.multiplicity == 2 for r in roots)
    assert any(math.copysign(1.0, r.mellin.real) < 0 and r.mellin.real == 0 for r in roots)
    # roots of different classes at the same z, listed by label
    fam = _drawn_order_family(0)
    first, class_of = fam.class_rows
    cls = dict(zip(fam.channels.labels, class_of.tolist()))
    listed = indicial_roots(fam)
    assert any(a.mellin == b.mellin and cls[a.mode] != cls[b.mode]
               for a, b in zip(listed, listed[1:]))
    labels = fam.channels.labels
    assert any(a > b for a, b in zip(labels, labels[1:]))


# ---------------------------------------------------------------------------
# invertibility on the weight line
# ---------------------------------------------------------------------------


def test_line_verdicts_polar():
    roots = indicial_roots(family_of(make_model("polar_laplacian"), 4.5))
    v0 = normal_invertible(roots, 0.0)
    assert v0.status == "no"
    assert v0.witness.mode == "k=0"
    v_half = normal_invertible(roots, 0.5)
    assert v_half.status == "yes"
    assert v_half.distance == pytest.approx(0.5, abs=1e-9)


def test_line_verdict_shifted_cylinder():
    roots = indicial_roots(family_of(cylinder_shifted(1.0), 4.5))
    assert normal_invertible(roots, 0.0).status == "yes"


def test_line_verdict_borderline():
    roots = indicial_roots(family_of(make_model("polar_laplacian"), 4.5))
    v = normal_invertible(roots, 1e-9)
    assert v.status == "borderline"


def _sorted_roots(rng, n):
    """n roots sorted as `indicial_roots` sorts them, with repeated and
    nearly equal real parts, +-0.0 among them."""
    pool = np.array([-1.0, -0.0, 0.0, 0.25, 0.5, 0.5 + 2e-16, 0.75, 1.0, 1.0 + 6e-10,
                     1.0 + 2e-9, 3.0, 1e6, 1e6 + 1.2e-10])
    re = rng.choice(pool, n) + rng.choice([0.0, 0.0, 0.0, 1e-13, -1e-13], n)
    im = rng.choice([-1.0, 0.0, 2.0], n)
    roots = [fredholm.IndicialRoot(f"k={i}", complex(y, -x), complex(x, y), 1)
             for i, (x, y) in enumerate(zip(re.tolist(), im.tolist()))]
    return sorted(roots, key=lambda r: (r.mellin.real, r.mellin.imag, r.mode))


def _shared_table(roots):
    """The roots as a RootTable on which roots of equal tau, mellin (zero
    signs included) and multiplicity share one class root."""
    labels: dict[str, int] = {}
    index: dict[tuple, int] = {}
    class_roots, channel, class_root = [], [], []
    for r in roots:
        key = (repr(r.tau), repr(r.mellin), r.multiplicity)
        if key not in index:
            index[key] = len(class_roots)
            class_roots.append(r)
        channel.append(labels.setdefault(r.mode, len(labels)))
        class_root.append(index[key])
    return RootTable(tuple(labels), np.array([r.tau for r in class_roots], dtype=complex),
                     np.array([r.mellin for r in class_roots], dtype=complex),
                     np.array([r.multiplicity for r in class_roots]), np.array(channel),
                     np.array(class_root))


@pytest.mark.parametrize("seed", range(40))
def test_nearest_root_and_safe_intervals_match_a_scan_of_every_root(seed):
    # the sorted-list searches give what the scans over every root give:
    # the first root at the least distance, and the merged bad weights;
    # three roots share the real part nearest 0.5, below it
    rng = np.random.default_rng(seed)
    roots = _sorted_roots(rng, int(rng.integers(1, 30)))
    roots = sorted(roots + [fredholm.IndicialRoot(f"tie{j}", complex(y, -(0.5 - 1e-13)),
                                                  complex(0.5 - 1e-13, y), 1)
                            for j, y in enumerate(rng.permutation([-1.0, 0.0, 2.0]))],
                   key=lambda r: (r.mellin.real, r.mellin.imag, r.mode))
    # the same roots as a table, equal roots on one class root
    table = _shared_table(roots)
    assert _listed(table) == _listed(roots)
    for delta in [*rng.choice([-1.0, 0.0, 0.5, 0.625, 1.0, 2.0, 1e6 + 6e-11, 1e7], 4),
                  float(rng.uniform(-2, 4))]:
        best = min(roots, key=lambda r: abs(r.mellin.real - delta))
        v = normal_invertible(RootTable.from_roots(roots), float(delta))
        assert v.distance == abs(best.mellin.real - delta)
        assert v.witness is None or _optional(v.witness) == _optional(best)
        w = normal_invertible(table, float(delta))
        assert (w.status, w.distance) == (v.status, v.distance)
        assert _optional(w.witness) == _optional(v.witness)
    for lo, hi in [(-5.0, 5.0), (0.0, 1.0), (0.25, 0.5), (1.0, 1e6), (-0.0, 0.0)]:
        bad: list[float] = []
        for r in roots:
            x = r.mellin.real
            if lo - 1e-12 <= x <= hi + 1e-12 and not (bad and abs(x - bad[-1]) <= 1e-9):
                bad.append(x)
        points = [lo, *bad, hi]
        expected = [(a, b) for a, b in zip(points, points[1:]) if b - a > 1e-12]
        for given in (roots, table):
            got = safe_weight_intervals(given, lo, hi)
            assert got == expected and all(math.copysign(1.0, a) == math.copysign(1.0, b)
                                           for iv, ev in zip(got, expected)
                                           for a, b in zip(iv, ev))


# ---------------------------------------------------------------------------
# mode-tail certificate
# ---------------------------------------------------------------------------


def bisected_weight_range(base, cutoff, mu0):
    """The certified weight range as it was found before the closed form:
    doubling to 2^20, then 60 bisection steps on `tail_bound`."""
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


def drawn_b_operator(seed, system_size):
    """A scalar b operator of `random_b_operator`, or a 2x2 one with unit
    leading blocks and small-integer lower-order matrices."""
    rng = np.random.default_rng(seed)
    if system_size == 1:
        return random_b_operator(rng, allow_lam_poly=True)

    def block():
        return Coefficient.constant(rng.integers(-3, 4, (2, 2)).astype(float))

    eye = Coefficient.constant(np.eye(2))
    return make_operator(B1, CIRCLE, {
        MultiIndex(2): eye, MultiIndex(0, (), 1): eye,
        MultiIndex(1): block(), MultiIndex(0): block()})


def assert_weight_ranges_match(p, cutoff):
    """The closed form matches the bisection to 1e-12 relative, or to the
    bisection's own resolution 2^-60 (60 halvings of [0, 1]) below 1."""
    nop = normal_operator(p)
    mu0 = symbol_min_singular(nop)
    assert certified_weight_range(nop, cutoff, mu0) == pytest.approx(
        bisected_weight_range(nop, cutoff, mu0), rel=1e-12, abs=2.0 ** -60)


WEIGHT_RANGE_OPERATORS = [
    *((name, p) for name, p in builtin_suite() if p.structure.kind is StructureKind.B),
    ("b_system_order2", b_system_order2()),
    ("b_system_order4", b_system_order4()),
    ("b_system_shifted", b_system_shifted((0.0, 1.0, 2.0, 3.0))),
]


@pytest.mark.parametrize("p", [p for _, p in WEIGHT_RANGE_OPERATORS],
                         ids=[name for name, _ in WEIGHT_RANGE_OPERATORS])
def test_certified_weight_range_closed_form_matches_bisection(p):
    for cutoff in (30.0, 80.0, 250.0, 400.0, 840.0, 1e4):
        assert_weight_ranges_match(p, cutoff)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.sampled_from([1, 2]), st.floats(30.0, 1e4))
def test_certified_weight_range_closed_form_matches_bisection_on_drawn_operators(
        seed, system_size, cutoff):
    assert_weight_ranges_match(drawn_b_operator(seed, system_size), cutoff)


def test_certified_weight_range_edges_are_exact():
    cyl = normal_operator(make_model("cyl_coord_laplacian"))
    assert symbol_min_singular(cyl) == 0.0
    assert certified_weight_range(cyl, 1e4, 0.0) == 0.0
    assert bisected_weight_range(cyl, 1e4, 0.0) == 0.0
    order4 = normal_operator(b_system_order4())
    mu0 = symbol_min_singular(order4)
    below = tail_bound(order4, 0.0, mu0).lambda_certified * (1 - 1e-6)
    assert below > 1.0
    for cutoff in (below, 0.5):
        assert certified_weight_range(order4, cutoff, mu0) == 0.0
        assert bisected_weight_range(order4, cutoff, mu0) == 0.0
    # an order-0 envelope is empty: nothing depends on delta
    flat = normal_operator(make_operator(B1, CIRCLE, {MultiIndex(0): 2.0}))
    mu0 = symbol_min_singular(flat)
    assert tail_bound(flat, 0.0, mu0).envelope == ()
    for cutoff, w in ((1.0, 1048576.0), (0.5, 0.0)):
        assert certified_weight_range(flat, cutoff, mu0) == w
        assert bisected_weight_range(flat, cutoff, mu0) == w
    # W is about 0.4 sqrt(cutoff) = 4e6, above the cap
    polar = normal_operator(make_model("polar_laplacian"))
    mu0 = symbol_min_singular(polar)
    assert certified_weight_range(polar, 1e14, mu0) == 1048576.0
    assert bisected_weight_range(polar, 1e14, mu0) == 1048576.0


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.sampled_from([1, 2]), st.floats(30.0, 1e4))
def test_certified_weight_range_brackets_the_tail_certificate(seed, system_size, cutoff):
    # at W itself the test s0 * s0 <= cutoff is decided by rounding, since
    # W is the exact crossing: check just inside and just outside it
    nop = normal_operator(drawn_b_operator(seed, system_size))
    mu0 = symbol_min_singular(nop)
    w = certified_weight_range(nop, cutoff, mu0)
    assume(0.0 < w < 2.0 ** 20)
    assert tail_bound(nop, w * (1 - 1e-12), mu0).lambda_certified <= cutoff
    assert tail_bound(nop, w * (1 + 1e-6), mu0).lambda_certified > cutoff


def test_non_elliptic_operator_certifies_no_tail():
    # 2 (r d/dr)^2 + 2 lambda on the circle: the principal symbol vanishes
    # at xi = |eta|, where its sampled floor is 4.4e-16 of rounding noise,
    # which once gave s0 = 2.7e15 and a certified range of +-9.9e-16
    p = drawn_b_operator(2001, 1)
    assert symbol_min_singular(normal_operator(p)) > 0.0
    report = fredholm_check(p, 0.3)
    assert report.verdict == VERDICT_NOT and not report.elliptic.elliptic
    tail = report.cutoffs["tail"]
    assert (tail["mu0"], tail["s0"], tail["lambda_certified"]) == (0.0, None, None)
    assert report.cutoffs["certified_weight_range"] == [0.0, 0.0]
    assert report.safe_weights == ()


def test_a_check_takes_one_spectral_norm_per_coefficient_term(monkeypatch):
    # the default cutoff reads the operator's terms, the tail certificate
    # and the weight range its normal operator's, which shares them
    from fredholm_kit import opalg
    normed = []
    real = opalg._value_norm
    monkeypatch.setattr(opalg, "_value_norm", lambda v: normed.append(id(v)) or real(v))
    p = b_system_order4()
    report = fredholm_check(p, 0.3)
    assert report.verdict == VERDICT_FREDHOLM
    # six terms, two of which are one CoeffTerm (the T^2 and L coefficients)
    assert set(normed) == {id(ct.value) for _, co in p.terms for ct in co.terms}
    assert len(normed) == len(set(normed)) == 5
    # and the cached norms and envelope give what they gave fresh
    nop = normal_operator(p)
    mu0 = symbol_min_singular(nop)
    assert all(ct.norm == real(ct.value) for _, co in nop.terms for ct in co.terms)
    assert nop.tail_envelope is nop.tail_envelope  # built once per operator
    fresh = normal_operator(b_system_order4())
    assert fresh.tail_envelope == nop.tail_envelope
    assert tail_bound(fresh, 0.3, mu0) == tail_bound(nop, 0.3, mu0)
    assert certified_weight_range(fresh, 1e4, mu0) == certified_weight_range(nop, 1e4, mu0)


# ---------------------------------------------------------------------------
# sc symbol criterion
# ---------------------------------------------------------------------------


def test_sc_flat_laplacian_not_invertible_at_origin():
    v = sc_invertible(freeze_coefficients(
        make_model("sc_laplacian", cross_dim=2)))
    assert v.status == "no"
    assert np.allclose(v.witness, 0.0, atol=1e-12)


def test_sc_shifted_down_is_invertible():
    v = sc_invertible(freeze_coefficients(
        make_model("sc_laplacian", cross_dim=2, shift=-1.0)))
    assert v.status == "yes"
    assert v.min_abs_det > 0.9


def test_sc_shifted_up_vanishes_on_sphere():
    v = sc_invertible(freeze_coefficients(
        make_model("sc_laplacian", cross_dim=2, shift=1.0)))
    assert v.status == "no"
    assert np.hypot(*v.witness) == pytest.approx(1.0, abs=1e-3)


def test_sc_verdicts_stable_under_refinement(monkeypatch):
    for shift, expected in ((-1.0, "yes"), (0.0, "no"), (1.0, "no")):
        frozen = freeze_coefficients(make_model("sc_laplacian", cross_dim=2, shift=shift))
        for n_axis in (101, 201):
            monkeypatch.setitem(fredholm._SC_AXIS_POINTS, 2, n_axis)
            v = sc_invertible(frozen)
            assert v.status == expected
            assert all(s == expected for _, _, s in v.resolutions)


def test_sc_non_elliptic_input_undecided():
    sc = LieStructure.sc(1)
    degenerate = make_operator(sc, CIRCLE, {
        MultiIndex(2): 1.0, MultiIndex(0, (), 1): -1.0})
    v = sc_invertible(freeze_coefficients(degenerate))
    assert v.status == "undecided"


def test_sc_resolutions_that_disagree_leave_the_verdict_undecided(monkeypatch):
    # the flat symbol vanishes at xi = 0; the coarser base grid is made to
    # miss it, so the two resolutions disagree
    scan = fredholm._sc_scan
    sizes = []

    def coarse_misses(frozen, radius, n_axis, zooms):
        sizes.append(n_axis)
        best, point = scan(frozen, radius, n_axis, zooms)
        return (1.0, point) if len(sizes) == 1 else (best, point)

    monkeypatch.setattr(fredholm, "_sc_scan", coarse_misses)
    report = fredholm_check(make_model("sc_laplacian", cross_dim=2))
    (lv,) = report.limit_verdicts
    assert sizes[0] < sizes[1]
    assert [s for _, _, s in lv.detail["resolutions"]] == ["yes", "no"]
    assert (lv.detail["status"], lv.status) == ("undecided", "numerical-evidence")
    assert report.verdict == VERDICT_UNDECIDED
    assert "sc symbol scan was inconclusive" in report.caveats


def test_a_root_within_1e_8_of_the_line_is_borderline():
    # T^2 + L - 1 has the root z = 1 on mode k=0, 5e-9 from the line
    report = fredholm_check(cylinder_shifted(1.0), 1 - 5e-9)
    (lv,) = report.limit_verdicts
    assert (lv.status, lv.witness["mode"], lv.witness["mellin"]) == ("borderline", "k=0", [1.0, 0.0])
    assert report.verdict == VERDICT_UNDECIDED
    assert "an indicial root sits within 1e-8 of the tested line; refusing to guess" \
        in report.caveats


def test_tail_and_sc_radius_that_overflow_certify_nothing():
    # a floor of 1e-7 or 1e-11 against a constant of 1e302: the root of
    # the tail or radius polynomial, over its leading coefficient,
    # overflows; the tail is uncertified and the sc scan has no radius
    cyl = make_operator(B1, CIRCLE, {
        MultiIndex(2): 1e-7, MultiIndex(0, (), 1): 1e-7, MultiIndex(0): 1e302})
    nop = normal_operator(cyl)
    tb = tail_bound(nop, 0.0, symbol_min_singular(nop))
    assert math.isinf(tb.s0) and math.isinf(tb.lambda_certified)
    sc = make_operator(LieStructure.sc(1), CIRCLE, {
        MultiIndex(2): 1e-11, MultiIndex(0, (2,)): 1e-11, MultiIndex(0): 1e300})
    v = sc_invertible(freeze_coefficients(sc))
    assert v.status == "undecided" and math.isinf(v.radius) and v.resolutions == ()


def reference_full_symbol(frozen, xi, eta, eta2, absolute=False):
    """The full symbol of a frozen operator at one covector, term by term
    with Python scalars; with absolute=True, the same loop on absolute
    values (each term is a product, so its modulus), the scale of the
    rounding bound."""
    k = frozen.system_size
    total = np.zeros((k, k), dtype=complex)
    for mi, co in frozen.terms:
        for ct in co.terms:
            factor = (1j * xi) ** mi.radial * (-eta2) ** mi.laplacian
            for j, pw in enumerate(mi.cross):
                if pw:
                    factor *= (1j * eta[j]) ** pw
            piece = factor * ct.value
            if absolute:
                piece = abs(piece)
            total += piece if isinstance(piece, np.ndarray) else piece * np.eye(k)
    return total if k > 1 else complex(total[0, 0])


def sc_operator(name):
    rng = np.random.default_rng(41)

    def scalar():
        return complex(rng.normal(), rng.normal())

    if name == "torus_system":
        # T^2 partials (two at once, and one with a Laplacian), a Laplacian
        # power, matrix and scalar values: a 3-D covector grid
        return freeze_coefficients(make_operator(
            LieStructure.sc(2), CrossSection.torus(2), {
                MultiIndex(4): rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                MultiIndex(2, (1, 1)): scalar(),
                MultiIndex(0, (1, 0), 1): scalar(),
                MultiIndex(0, (), 2): scalar(),
                MultiIndex(1): rng.normal(size=(2, 2)),
                MultiIndex(0): scalar(),
            }, order=4))
    # S^2: the tangential slot is a magnitude; a cube of |eta|^2
    return freeze_coefficients(make_operator(
        LieStructure.sc(2), CrossSection.sphere(2), {
            MultiIndex(6): scalar(), MultiIndex(2, (), 2): scalar(),
            MultiIndex(0, (), 3): scalar(), MultiIndex(0): scalar()}, order=6))


def full_stack(frozen, pts):
    """The full symbol at the rows (xi, eta_1, ...) of pts, |eta|^2 summed
    coordinate by coordinate as the sc grid sums it."""
    return _symbol_stack(frozen, 0.0, pts[:, 0], pts[:, 1:],
                         sum(e * e for e in pts[:, 1:].T), principal=False)


@pytest.mark.parametrize("name", ["torus_system", "sphere_scalar"])
def test_sc_symbol_eval_and_grid_match_per_covector_loop(name):
    frozen = sc_operator(name)
    dim = _covector_dim(frozen)[0]
    rng = np.random.default_rng(6)
    for _ in range(300):
        pt = np.array([[float(rng.normal()), *np.abs(rng.normal(size=dim - 1))]])
        args = pt[0, 0], pt[0, 1:], sum(e * e for e in pt[0, 1:])
        assert_within_rounding(full_stack(frozen, pt)[0], reference_full_symbol(frozen, *args),
                               reference_full_symbol(frozen, *args, absolute=True), pt)
    grids = [fredholm._sc_axes(frozen, 2.0, 9)]
    for _ in range(20):  # zoom windows, whose |eta|^2 sums round
        grids.append([np.linspace(c - 0.3, c + 0.3, 5)
                      for c in rng.uniform(0.0, 1.5, dim)])
    for axes in grids:
        points = [tuple(float(v) for v in pt)
                  for pt in np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(axes))]
        # the grid sums |eta|^2 elementwise, coordinate by coordinate
        args = [(pt[0], pt[1:], sum(e * e for e in pt[1:])) for pt in points]
        stack = full_stack(frozen, np.array(points))
        for a, pt_args in zip(stack, args):
            assert_within_rounding(a, reference_full_symbol(frozen, *pt_args),
                                   reference_full_symbol(frozen, *pt_args, absolute=True))
        # the grid's minimum is the first minimum of the stack over its points
        dets = np.abs(stack if frozen.system_size == 1 else np.linalg.det(stack))
        i = int(np.argmin(dets))
        assert fredholm._sc_eval_grid(frozen, axes) == (float(dets[i]), points[i])


def reference_sc_floor_and_norms(frozen):
    """The sc principal-symbol floor and the coefficient norms by degree as
    a separate full-symbol object computed them, from the frozen terms
    (mi, value) with the top-order ones alone in the floor: the reference
    the shared symbol walker and tail envelope must equal bit for bit."""
    dim, mag = _covector_dim(frozen)
    xi, eta, eta2 = unit_covectors(dim, FLOOR_DIRECTIONS, mag)
    terms = [(mi, ct.value) for mi, co in frozen.terms for ct in co.terms]
    floor = _min_singular(symbol_stack(
        ((symbol_monomial(mi, xi, eta, eta2), value) for mi, value in terms
         if mi.total == frozen.order), frozen.system_size, xi.shape[0]))
    norms = {}
    for mi, value in terms:
        norms[mi.total] = norms.get(mi.total, 0.0) + _value_norm(value)
    return floor, norms


def drawn_sc_operator(seed):
    """An sc operator on the circle, T^2 or S^2, scalar or 2x2, with
    random complex values: second-order radial and tangential terms, and
    lower-order radial, tangential-partial, matrix and decaying terms."""
    rng = np.random.default_rng(seed)
    cross = (CrossSection.circle(), CrossSection.torus(2), CrossSection.sphere(2))[seed % 3]
    k = 1 + (seed // 3) % 2

    def value(matrix=True):
        if k > 1 and matrix:
            return rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        return complex(rng.normal(), rng.normal())

    lead = np.eye(k) if k > 1 else 1.0
    terms = {MultiIndex(2): Coefficient.constant(lead), MultiIndex(1): value(),
             MultiIndex(0): Coefficient([CoeffTerm(0.0, value()), CoeffTerm(1.0, value())])}
    if cross.coordinate_count:
        d = cross.coordinate_count
        for j in range(d):
            terms[MultiIndex(0, (0,) * j + (2,))] = Coefficient.constant(lead)
            terms[MultiIndex(0, (0,) * j + (1,))] = value(rng.random() < 0.5)
        terms[MultiIndex(1, (0,) * (d - 1) + (1,))] = Coefficient.monomial(0.0, 0.2 * value())
        terms[MultiIndex(0, (1,) * d)] = Coefficient.monomial(0.5, value())
    else:
        terms[MultiIndex(0, (), 1)] = Coefficient.constant(lead)
        terms[MultiIndex(1)] = Coefficient([CoeffTerm(0.0, value()), CoeffTerm(2.0, value())])
    return make_operator(LieStructure.sc(cross.dimension), cross, terms)


@pytest.mark.parametrize("seed", range(0, 36, 3))
def test_sc_floor_and_radius_weights_match_the_full_symbol_object(seed, monkeypatch):
    ops = [drawn_sc_operator(seed + i) for i in range(3)]
    if seed == 0:
        ops += [op for name, op in builtin_suite() if name.startswith(("sc_", "cgamma_"))]
        ops += [make_model("sc_laplacian", cross_dim=2, shift=s) for s in (0.0, 1.0)]
    monkeypatch.setattr(fredholm, "_SC_AXIS_POINTS", dict.fromkeys(range(1, 9), 9))
    for p in ops:
        frozen = freeze_coefficients(p)
        floor, norms = reference_sc_floor_and_norms(frozen)
        assert symbol_min_singular(frozen) == floor
        weights = fredholm._collect(frozen.tail_envelope, 0.0)
        assert set(weights) <= set(range(frozen.order))
        assert all(weights.get(d, 0.0) == norms.get(d, 0.0) for d in range(frozen.order))
        coeffs = np.zeros(frozen.order + 1)
        coeffs[frozen.order] = floor
        for d, w in norms.items():
            if d < frozen.order:
                coeffs[d] -= w
        coeffs[0] -= fredholm._SC_THRESHOLD ** (1.0 / frozen.system_size)
        v = sc_invertible(frozen, zooms=0)
        if floor <= 1e-12:
            assert v.status == "undecided"
        else:
            assert v.radius == max(1.0, fredholm._positive_root(coeffs) * 1.01)


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
    assert scan.as_dict()["caveat"] is not None


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
    d, x = fredholm._chebyshev_matrix(n)
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
        assert np.array_equal(fredholm._halfspace_matrix(frozen, eta, 4.0, 24),
                              reference_halfspace_matrix(frozen, eta, 4.0, 24))


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


MIXED_SCALINGS = ("operator is flagged symbolic-only: its frame mixes scaling types, "
                  "so verdicts are indicative")


@pytest.mark.parametrize("terms, mixed", [
    # (r d/dr)^2 + r^2 L: the principal L term has no r^0 coefficient
    ({MultiIndex(2): 1.0, MultiIndex(0, (), 1): Coefficient.monomial(2.0)}, True),
    # (r d/dr)^2 + (1 - r) d_theta^2 + 1: its principal partial keeps r^0
    ({MultiIndex(2): 1.0, MultiIndex(0, (2,)): Coefficient([CoeffTerm(0.0, 1.0),
                                                          CoeffTerm(1.0, -1.0)]),
      MultiIndex(0): 1.0}, False),
    # (r d/dr)^2 + r q(lambda), q(lambda) = lambda: a principal q(lambda)
    ({MultiIndex(2): 1.0, MultiIndex(0): Coefficient.laplacian_poly((0.0, 1.0), 1.0)}, True),
    # (r d/dr)^2 + L + r d_theta: a tangential term below the order
    ({MultiIndex(2): 1.0, MultiIndex(0, (), 1): 1.0,
      MultiIndex(0, (1,)): Coefficient.monomial(1.0)}, False),
], ids=["r2_laplacian", "one_minus_r_partial", "r_lambda", "r_partial_below_order"])
def test_the_mixed_scaling_caveat_is_read_from_the_principal_terms(terms, mixed):
    report = fredholm_check(make_operator(B1, CIRCLE, terms), 0.3)
    assert (MIXED_SCALINGS in report.caveats) is mixed


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


def mode_roots(f):
    """Mellin roots and multiplicities of every channel of a family."""
    out = {}
    for r in indicial_roots(f):
        out.setdefault(r.mode, []).append((r.mellin, r.multiplicity))
    return out


def on_grid(x):
    return x * 64 == int(x * 64)


# c and d free floats, or on a grid of 1/64, where the products and the
# conjugation are exact: off the grid their rounding splits a multiple root
# of p into simple roots of conjugate(p, d), which the engine then rightly
# lists apart (T^2 + L, d = 0.12643404551702297: z = -d +- 1.36e-9 i on
# k=0), so free floats draw only simple roots, at least 1/64 apart in k^2 + c
@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.sampled_from([CIRCLE, CrossSection.torus(2)]),
       st.lists(st.one_of(st.integers(-192, 192).map(lambda i: i / 64), st.floats(-3.0, 3.0)),
                min_size=1, max_size=3),
       st.one_of(st.integers(-64, 64).map(lambda i: i / 64), st.floats(-1.0, 1.0)),
       st.floats(-1.0, 1.0))
def test_conjugation_shifts_roots_and_verdict_through_the_engine(cross, shifts, d, delta):
    """conjugate(p, d) = r^(-d) p r^d has the Mellin roots of p moved by
    -d, with their modes and multiplicities, so its line test at delta is
    p's at delta + d; p is a product of factors T^2 + L - c."""
    table = spectrum(cross, 12.0)
    if not all(map(on_grid, (*shifts, d))):
        assume(np.diff(np.sort([*shifts, *-table.eigenvalues])).min() >= 1 / 64)
    factors = [make_operator(LieStructure.b(cross.dimension), cross, {
        MultiIndex(2): 1.0, MultiIndex(0, (), 1): 1.0, MultiIndex(0): -c}) for c in shifts]
    p = factors[0]
    for q in factors[1:]:
        p = compose(p, q)
    fam = indicial_family(normal_operator(p), table)
    moved = indicial_family(normal_operator(conjugate(p, d)), table)
    want, got = mode_roots(fam), mode_roots(moved)
    assert want.keys() == got.keys()
    for mode, roots in want.items():
        left = [(z + d, m) for z, m in got[mode]]
        assert len(left) == len(roots)
        for z, m in roots:
            j = min(range(len(left)), key=lambda i: abs(left[i][0] - z))
            assert abs(left[j][0] - z) <= 1e-8 * max(1.0, abs(z))
            assert left.pop(j)[1] == m
    assert normal_invertible(indicial_roots(moved), delta).status == \
        normal_invertible(indicial_roots(fam), delta + d).status


# ---------------------------------------------------------------------------
# root lists with exact truth: the engine groups its companion eigenvalues
# by inclusion discs, so close roots neither merge nor fail
# ---------------------------------------------------------------------------


def shifted_laplacian(c):
    """T^2 + L - c on the circle, T = r d/dr."""
    return make_operator(B1, CIRCLE, {MultiIndex(2): 1.0, MultiIndex(0, (), 1): 1.0,
                                      MultiIndex(0): -c})


def assert_mode_roots(f, truth, rel=1e-8):
    """Every mode's roots are truth(k), a list of (Mellin root, multiplicity),
    each within rel * max(1, |z|), with their multiplicities."""
    got = mode_roots(f)
    assert got.keys() == set(f.channels.labels)
    for label, roots in got.items():
        want = truth(int(label.split("=")[1]))
        assert sorted(m for _, m in roots) == sorted(m for _, m in want), label
        for z, m in want:
            assert any(n == m and abs(w - z) <= rel * max(1.0, abs(z)) for w, n in roots), \
                (label, z, m, roots)


def test_two_double_roots_twelve_apart_stay_apart():
    # an approximation where P is nearly the zero matrix once had a
    # sensitivity disc of radius 4,400, which swallowed the other three
    assert_mode_roots(family_of(two_double_roots_system(), 1.0),
                      lambda k: [(1.5 - 5.5j, 2), (0.5 + 6j, 2)], 1e-7)


@pytest.mark.parametrize("d", [0.0, 1.0])
def test_roots_6e_minus_7_apart_stay_simple_after_a_weight_shift(d):
    # T^2 + L - 1e-13: z = +-3.16e-7 on k=0; at z = -1 a disc that grew
    # with |tau| once made them one double root.  Shifted, the constant
    # coefficient 1 - 1e-13 is rounded, which moves the roots by 2e-10
    fam = family_of(conjugate(shifted_laplacian(1e-13), d), 1.0)
    roots = mode_roots(fam)["k=0"]
    assert sorted(m for _, m in roots) == [1, 1]
    for sign in (-1, 1):
        assert any(abs(z + d - sign * math.sqrt(1e-13)) <= 1e-9 for z, _ in roots), roots


def test_a_double_root_beside_a_close_simple_root_survives_a_weight_shift():
    # (T^2 + L - 43/64)(T^2 + L - 11/16)^2, conjugated by 1/64: the double
    # roots +-sqrt(k^2 + 11/16) lie 4.7e-3 / k from the simple ones
    p = compose(shifted_laplacian(43 / 64), compose(shifted_laplacian(11 / 16),
                                                    shifted_laplacian(11 / 16)))
    fam = family_of(conjugate(p, 1 / 64), 12.0)
    assert_mode_roots(fam, lambda k: [(sign * math.sqrt(k * k + c) - 1 / 64, m)
                                      for c, m in ((43 / 64, 1), (11 / 16, 2))
                                      for sign in (-1, 1)])


def test_a_double_root_whose_newton_iterates_wander_stays_one_root():
    # (tau - r)^2 with rounded coefficients: the companion eigenvalues lie
    # 2.8e-7 apart, each in a lone disc of radius 1.4e-7, and the Newton
    # steps wander into the other disc, so the discs grow to reach them
    # and join
    r = -0.9126964258413675 - 4.231036593493766j
    coeffs = np.array([-17.06865588973972 + 7.723303952971589j,
                       1.8253928516827347 + 8.462073186987531j, 1.0])
    assert np.abs(coeffs - np.polynomial.polynomial.polyfromroots([r, r])).max() < 4e-15
    [(roots, failure)] = fredholm._linearized_roots(coeffs[:, None, None, None])
    assert failure is None and len(roots) == 1 and roots[0][1] == 2
    assert abs(roots[0][0] - r) <= 1e-9


@pytest.mark.parametrize("p, truth", [
    # tau^2 - 2.2e-311 (T + 2.2e-311) - 0.629: the conjugation leaves
    # subnormal coefficients
    (conjugate(shifted_laplacian(-0.629), 2.2e-311),
     lambda k: [(s * cmath.sqrt(k * k - 0.629) - 2.2e-311, 1) for s in (-1, 1)]),
    # z = +-3.7e-151 on k=0, where the values at the roots are subnormal
    (shifted_laplacian(1.4e-301),
     lambda k: [(s * math.sqrt(k * k + 1.4e-301), 1) for s in (-1, 1)]),
], ids=["subnormal-coefficients", "subnormal-values"])
def test_roots_near_underflow_warn_nothing(p, truth):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_mode_roots(family_of(p, 2.0), truth)


def test_a_nearly_singular_leading_matrix_never_merges_four_roots():
    # mode k=1 has leading matrix diag(-1, -9.99e-16) and the roots
    # +-1.732i and +-5.479e7i; they are listed, or the roots fail by name
    # and the verdict rests on ellipticity (not elliptic here)
    opts = FredholmOptions(mode_cutoff=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = fredholm_check(near_singular_leading_system(), 0.3, opts)
    assert report.verdict == VERDICT_NOT and not report.elliptic.elliptic
    if report.roots:
        lead = (-1.0 + 1e-15) + 1.0  # the T^2 coefficient of the second block on k=1
        found = [(r.mellin, r.multiplicity) for r in report.roots if r.mode == "k=1"]
        assert sorted(m for _, m in found) == [1, 1, 1, 1], found
        for z in (math.sqrt(3), math.sqrt(3 / lead)):
            for sign in (-1, 1):
                assert any(abs(w - sign * z) <= 1e-8 * z for w, _ in found), (z, found)
    else:
        [caveat] = [c for c in report.caveats if c.startswith(ROOTS_NOT_COMPUTED)]
        assert "root refinement failed on mode k=1: inclusion disc not finite" in caveat


@pytest.mark.parametrize("eps, mult", [(1e-2, [1, 1, 1, 1]), (1e-3, [1, 1, 1, 1]), (0.0, [2, 2])])
def test_close_root_ladder_at_cutoff_1e4(eps, mult):
    # (T^2 + L - 1)(T^2 + L - 1 - eps) on the circle up to k = 100, where
    # +-sqrt(k^2 + 1) and +-sqrt(k^2 + 1 + eps) lie eps / 2k apart
    p = compose(shifted_laplacian(1.0), shifted_laplacian(1.0 + eps))
    fam = family_of(p, 1e4)
    assert len(fam.channels.labels) == 101
    shifts = {1.0: 1, 1.0 + eps: 1} if eps else {1.0: 2}
    assert_mode_roots(fam, lambda k: [(s * math.sqrt(k * k + c), m)
                                      for c, m in shifts.items() for s in (-1, 1)])
    assert all(sorted(m for _, m in roots) == mult for roots in mode_roots(fam).values())


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


def test_to_dict_rounds_as_every_root_does_alone(monkeypatch, tmp_path):
    # to_dict rounds each class root's floats once; its text is that of
    # each root's own as_dict(), on every built-in and the modes specs, on
    # runs of roots that share one class root's objects, and a -0.0 part
    # still prints apart from 0.0
    import json
    import os

    from fredholm_kit.cli import parse_spec
    from fredholm_kit.fredholm import IndicialRoot

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    import workloads

    reports = []
    for name in ("cli-cold", "modes"):
        wl = workloads.build(name, 1)
        sub = tmp_path / name
        sub.mkdir()
        for spec, path in zip(wl.specs, workloads.write_specs(wl, str(sub))):
            op, compact = parse_spec(path)
            opts = FredholmOptions(mode_cutoff=spec.cutoff, empty_boundary=compact)
            reports.append(fredholm_check(op, workloads.WEIGHT, opts))
    signed = (IndicialRoot("k=0", complex(-0.0, 1.5), complex(-1.5, -0.0), 1),
              IndicialRoot("k=0", complex(0.0, 1.5), complex(-1.5, 0.0), 1))
    shared = tuple(shared_class_root_roots())
    assert _listed(shared_class_root_table()) == _listed(shared)
    reports.append(reports[0].replace(roots=(*reports[0].roots, *shared)))
    reports.append(reports[0].replace(roots=shared_class_root_table()))
    reports.append(reports[0].replace(roots=RootTable.from_roots(signed)))
    reports.append(reports[0].replace(roots=(*reports[0].roots, *signed)))
    assert sum(len(r.roots) for r in reports) > 2473
    for rep in reports:
        alone = {**rep._dict_without_roots(), "indicial_roots": [r.as_dict() for r in rep.roots]}
        assert json.dumps(rep.to_dict(), indent=2, sort_keys=True) == \
            json.dumps(alone, indent=2, sort_keys=True)
    last = rep.to_dict()["indicial_roots"][-2:]
    assert [math.copysign(1.0, r["tau"][0]) for r in last] == [-1.0, 1.0]
    assert [math.copysign(1.0, r["mellin"][1]) for r in last] == [-1.0, 1.0]


def test_imports_run_one_way():
    """Only the CLI and the package root import the oracle, and every
    import sits at module top, none inside a function."""
    src = os.path.dirname(fredholm.__file__)
    problems = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        nested = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if id(node) in nested:
                problems.append(f"{name}:{node.lineno} imports inside a function")
            module = getattr(node, "module", None)
            names = [f"{module}.{a.name}" if module else a.name for a in node.names]
            oracle = any("numoracle" in n.split(".") for n in names)
            if oracle and name not in ("cli.py", "__init__.py"):
                problems.append(f"{name}:{node.lineno} imports numoracle")
    assert problems == []


# every name the oracle takes from the engine's modules: what it shares with
# the engine, so an addition must be argued and a removal shortens the list
ORACLE_SHARED_NAMES = {
    "crosssec": ["spectrum"],
    "fredholm": ["FredholmOptions", "ROOTS_NOT_COMPUTED", "RootTable", "_check_samples",
                 "half_space_sample", "sc_invertible"],
    "limitops": ["IndicialFamily", "ROOT_TOL", "_det", "binary_scaled", "cluster_counts",
                 "freeze_coefficients", "inclusion_discs", "indicial_family",
                 "matrix_polyval", "newton_correction", "newton_from_values",
                 "normal_operator", "root_boxes"],
    "opalg": ["BoundaryOperator", "_symbol_stack"],
}


def test_the_oracle_imports_only_the_listed_engine_names():
    with open(os.path.join(os.path.dirname(fredholm.__file__), "numoracle.py"),
              encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported: dict[str, list[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            for a in node.names:
                imported.setdefault(a.name, []).append("*")  # a whole module
        elif isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module in ORACLE_SHARED_NAMES:
            imported.setdefault(node.module, []).extend(a.name for a in node.names)
    assert {m: sorted(names) for m, names in imported.items()} == ORACLE_SHARED_NAMES
