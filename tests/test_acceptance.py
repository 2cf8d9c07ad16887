"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import dataclasses
import json

import numpy as np
import pytest
from click.testing import CliRunner
from numpy.testing import assert_allclose

from fredholm_kit import (
    CrossSection,
    GroupKind,
    LieStructure,
    MultiIndex,
    RadialGrid,
    VERDICT_FREDHOLM,
    VERDICT_NOT,
    brute_roots,
    builtin_suite,
    cgamma_rewrite,
    compose,
    conjugate,
    cross_check,
    fredholm_check,
    freeze_coefficients,
    indicial_family,
    indicial_roots,
    isotropy,
    kondratiev_transform,
    make_model,
    make_operator,
    normal_operator,
    sc_invertible,
    scan_line,
    spectrum,
    structure_constants,
)
from fredholm_kit import fredholm
from fredholm_kit.cli import SCHEMA, main
from fredholm_kit.fredholm import FredholmOptions, certified_weight_range, safe_weight_intervals
from fredholm_kit.opalg import symbol_min_singular
from conftest import gaussian_packet, random_b_operator, windowed_trig

B1 = LieStructure.b(1)
CIRCLE = CrossSection.circle()


def _pass(num, desc):
    print(f"ACCEPTANCE {num:02d}: PASS - {desc}")


def family_of(p, cutoff):
    return indicial_family(normal_operator(p), spectrum(p.cross_section, cutoff))


def cylinder_shifted(lam):
    terms = {MultiIndex(2): 1.0, MultiIndex(0, (), 1): 1.0}
    if lam:
        terms[MultiIndex(0)] = -float(lam)
    return make_operator(B1, CIRCLE, terms)


def test_01_classical_indicial_roots():
    for n in (2, 3, 4):
        p = make_model("spherical_schrodinger", n=n, Z=1.0)
        cutoff = 10 * (10 + n - 2) + 0.5
        fam = family_of(p, cutoff)
        roots = indicial_roots(fam)
        for l in range(11):
            expected = sorted({float(l), float(-(l + n - 2))})
            got = sorted(r.mellin.real for r in roots for _ in range(r.multiplicity)
                         if r.mode == f"l={l}")
            flat = []
            for r in roots:
                if r.mode == f"l={l}":
                    flat.extend([r.mellin] * r.multiplicity)
            want = [l, -(l + n - 2)]
            assert len(flat) == 2
            for z in flat:
                assert min(abs(z - w) for w in want) < 1e-9
            # independent contour oracle on the same mode polynomial
            oracle = []
            for z, mult, _res in brute_roots(fam.det_poly(f"l={l}")):
                oracle.extend([1j * z] * mult)  # mellin = i tau
            assert len(oracle) == 2
            for z in oracle:
                assert min(abs(z - w) for w in want) < 1e-9
    _pass(1, "spherical Schrodinger mellin roots are {l, -(l+n-2)} for "
             "n in {2,3,4}, l <= 10, confirmed by contour counting")


def test_02_cylinder_family_verdicts():
    rep0 = fredholm_check(cylinder_shifted(0.0), 0.0)
    assert rep0.verdict == VERDICT_NOT
    fam0 = family_of(cylinder_shifted(0.0), 40.0)
    scan0 = scan_line(fam0, 0.0, (-5.0, 5.0), 2001)
    assert scan0.global_min < 1e-3 and abs(scan0.argmin) < 1e-9
    for lam in (0.5, 1.0, 4.0):
        rep = fredholm_check(cylinder_shifted(lam), 0.0)
        assert rep.verdict == VERDICT_FREDHOLM
        fam = family_of(cylinder_shifted(lam), 40.0)
        scan = scan_line(fam, 0.0, (-5.0, 5.0), 2001)
        assert scan.global_min >= 0.99 * lam
    _pass(2, "cylinder family: NotFredholm at shift 0, Fredholm for shifts "
             "{0.5, 1, 4}, line scans confirm the margins")


def test_03_conjugation_covariance_exact():
    models = [make_model("polar_laplacian"),
              make_model("spherical_schrodinger", n=3, Z=1.0),
              make_model("black_scholes", sigma=1.0, rate=0.0),
              make_model("cyl_coord_laplacian")]
    for p in models:
        table = spectrum(p.cross_section, 20.0)
        for delta in (-0.5, 0.3, 1.0):
            lhs = indicial_family(normal_operator(conjugate(p, delta)), table)
            rhs = indicial_family(normal_operator(p), table).shifted(delta)
            for label in lhs.channels.labels:
                assert np.array_equal(lhs.poly(label), rhs.poly(label))
    _pass(3, "indicial family of the conjugated operator equals the "
             "tau - i delta shift, exactly, for all b models and deltas")


def test_04_homomorphism_suite():
    rng = np.random.default_rng(4)
    table = spectrum(CIRCLE, 4.5)
    for _ in range(20):
        p, q = random_b_operator(rng), random_b_operator(rng)
        pq = compose(p, q)
        assert normal_operator(pq) == compose(normal_operator(p), normal_operator(q))
        fp = indicial_family(normal_operator(p), table)
        fq = indicial_family(normal_operator(q), table)
        fpq = indicial_family(normal_operator(pq), table)
        for label in fpq.channels.labels:
            a, b = fp.poly(label), fq.poly(label)
            prod = np.zeros((a.shape[0] + b.shape[0] - 1, 1, 1), dtype=complex)
            for i in range(a.shape[0]):
                for j in range(b.shape[0]):
                    prod[i + j] += a[i] @ b[j]
            assert np.array_equal(fpq.poly(label), prod)
    _pass(4, "normal operator and indicial family are multiplicative under "
             "composition, exactly, on 20 random order-<=2 operators")


def cylinder_action(p, u, grid, table):
    """The log-cylinder form of p read off term by term: each
    coefficient e^(nu t) value q(lambda) (-lambda)^l times (d/dt)^radial,
    with d/dt by FFT, on every channel of a scalar operator without
    explicit tangential partials."""
    lams = p.mode_channels(table).eigenvalues[:, None]
    spectra = np.fft.fft(u, axis=-1)
    out = np.zeros_like(u)
    for mi, co in p.terms:
        assert not any(mi.cross)
        du = np.fft.ifft(spectra * grid.ik ** mi.radial, axis=-1)
        for ct in co.terms:
            q = sum(c * lams ** j for j, c in enumerate(ct.lam_poly or (1.0,)))
            out += ct.value * np.exp(ct.nu * grid.t) * q * (-lams) ** mi.laplacian * du
    return out


def test_05_kondratiev_equivalence():
    rng = np.random.default_rng(5)
    grid = RadialGrid(-8.0, 2.0, 512)
    for p in (make_model("polar_laplacian"),
              make_model("spherical_schrodinger", n=3, Z=1.0)):
        assert kondratiev_transform(p).startswith("(d/dt)^2")
        table = spectrum(p.cross_section, 6.5)
        for _ in range(10):
            u = np.array([windowed_trig(rng, grid.t, -6.0, 0.0)
                          for _ in range(len(table))], dtype=complex)
            before = p.apply(u, grid, table)
            after = cylinder_action(p, u, grid, table)
            assert np.max(np.abs(before - after)) <= 1e-10 * np.max(np.abs(before))
    _pass(5, "radial and log-cylinder application agree to 1e-10 on matched "
             "grids for 10 band-limited functions per model")


def test_06_cgamma_rewrite_identity():
    rng = np.random.default_rng(6)
    cases = [(3, 0.0), (3, 0.5), (3, 1.0), (3, 2.0), (4, 1.5)]
    grid = RadialGrid(-4.0, 1.0, 1024)
    rho = grid.r
    for n, gamma in cases:
        factor, op = cgamma_rewrite(n, gamma, 1.0)
        table = spectrum(op.cross_section, 2 * n + 0.5)  # modes l <= 2
        for trial in range(10):
            l = trial % 3
            lam = l * (l + n - 2)
            center = 0.45 + 0.1 * rng.random()
            width = 0.04 + 0.015 * rng.random()
            freq = 2.0 + 6.0 * rng.random()
            u, du, d2u = gaussian_packet(rho, center, width, freq)
            direct = d2u + (n - 1) / rho * du - lam / rho**2 * u \
                + rho ** (-2 * gamma) * u
            uu = np.zeros((len(table), grid.n), dtype=complex)
            uu[l] = u
            out = op.apply(uu, grid, table)[l] * rho ** (-factor)
            mask = (rho > 0.2) & (rho < 0.8)
            rel = np.max(np.abs(out[mask] - direct[mask])) \
                / np.max(np.abs(direct[mask]))
            assert rel <= 1e-8, (n, gamma, trial, rel)
    _pass(6, "r^-factor times the rewritten operator matches the direct "
             "singular Schrodinger action to 1e-8 on all frame routes")


def test_07_structure_constants():
    iso_b = isotropy(LieStructure.b(2))
    assert iso_b.group_kind is GroupKind.ABELIAN
    assert iso_b.group == "R" and iso_b.group_dim == 1
    c = structure_constants(LieStructure.zero(2))
    for j in (1, 2):
        e = np.zeros(3)
        e[j] = 1.0
        assert np.array_equal(c[0, j], e)
    assert not np.any(c[1:, 1:])
    assert isotropy(LieStructure.zero(2)).group_kind is GroupKind.SEMIDIRECT_DILATION
    assert not np.any(structure_constants(LieStructure.sc(2)))
    assert isotropy(LieStructure.sc(2)).group_kind is GroupKind.ABELIAN
    _pass(7, "bracket tables: b transversally abelian, zero has "
             "[e0, ej] = ej (dilation semidirect product), sc abelian")


def test_08_sc_symbol_criterion(monkeypatch):
    flat = freeze_coefficients(make_model("sc_laplacian", cross_dim=2))
    down = freeze_coefficients(make_model("sc_laplacian", cross_dim=2, shift=-1.0))
    for n_axis in (101, 201):
        monkeypatch.setitem(fredholm._SC_AXIS_POINTS, 2, n_axis)
        v_flat = sc_invertible(flat)
        assert v_flat.status == "no"
        assert np.allclose(v_flat.witness, 0.0, atol=1e-9)
        v_down = sc_invertible(down)
        assert v_down.status == "yes"
    _pass(8, "sc criterion: flat symbol fails at xi = 0, the unit-shifted "
             "symbol passes, stably across grid refinements")


def test_09_safe_weight_intervals():
    for z in (0.0, 1.0, 2.5 + 1.0j):
        p = make_model("spherical_schrodinger", n=3, Z=z)
        nop = normal_operator(p)
        cutoff = 250.0
        w = certified_weight_range(nop, cutoff, symbol_min_singular(nop))
        assert w >= 5.0
        fam = indicial_family(nop, spectrum(p.cross_section, cutoff))
        roots = indicial_roots(fam)
        bad = sorted({round(r.mellin.real) for r in roots
                      if -5.0 - 1e-9 <= r.mellin.real <= 5.0 + 1e-9})
        assert bad == list(range(-5, 6))
        ivs = safe_weight_intervals(roots, -5.0, 5.0)
        assert len(ivs) == 10
        for (a, b), k in zip(ivs, range(-5, 5)):
            assert abs(a - k) <= 1e-9 and abs(b - (k + 1)) <= 1e-9
    _pass(9, "spherical Schrodinger bad weights are exactly the integers on "
             "the certified range [-5, 5], for several potentials")


def test_10_oracle_ledger():
    for delta in (-0.5, 0.0, 0.3):
        for name, op in builtin_suite():
            report = fredholm_check(op, delta)
            ledger = cross_check(op, report)
            assert ledger.passed, (name, delta, ledger.first_failure())
    # negative control: deleting a root must be caught and named
    p = make_model("polar_laplacian")
    report = fredholm_check(p, 0.5)
    tampered = dataclasses.replace(report, roots=report.roots[1:])
    ledger = cross_check(p, tampered)
    assert not ledger.passed
    assert "root" in ledger.first_failure().detail
    _pass(10, "independent oracle confirms every built-in model at deltas "
              "{-0.5, 0, 0.3} and catches a tampered report")


def test_11_determinism(tmp_path):
    runner = CliRunner()
    spec = {
        "schema": SCHEMA,
        "structure": {"kind": "b"},
        "cross_section": {"kind": "circle"},
        "order": 2,
        "terms": [
            {"alpha": [2], "coefficient": [{"nu": 0, "value": 1}]},
            {"alpha": [0], "laplacian": 1, "coefficient": [{"nu": 0, "value": 1}]},
            {"alpha": [0], "coefficient": [{"nu": 0.5, "value": [0.25, -1.5]}]},
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    outputs = [runner.invoke(main, ["check", str(path), "--weight", "0.3",
                                    "--format", "json"]).output
               for _ in range(2)]
    assert outputs[0] == outputs[1]
    assert outputs[0].encode("utf-8") == outputs[1].encode("utf-8")
    _pass(11, "repeated machine-format checks on one spec are byte-identical")
