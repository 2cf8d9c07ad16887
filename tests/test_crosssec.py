"""Cross-section spectra against brute-force discretizations."""

import collections
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fredholm_kit import CrossSection, FredholmKitError, channels, spectrum, sphere_multiplicity
from fredholm_kit.crosssec import MODE_BUDGET, ModeTable, mode_count


def entries(table):
    return list(zip(range(len(table)), table.eigenvalues.tolist(), table.multiplicities))


def test_circle_spectrum():
    assert entries(spectrum(CrossSection.circle(), 4.5)) == [
        (0, 0.0, 1), (1, 1.0, 2), (2, 4.0, 2)]


def test_sphere2_spectrum():
    assert entries(spectrum(CrossSection.sphere(2), 6.5)) == [
        (0, 0.0, 1), (1, 2.0, 3), (2, 6.0, 5)]


def test_generic_diagonal():
    x = CrossSection.generic(np.diag([0.3, 1.7]))
    assert entries(spectrum(x, 1.0)) == [(0, 0.3, 1)]


def test_generic_keeps_lowest_mode_below_cutoff():
    x = CrossSection.generic(np.diag([0.3, 1.7]))
    assert entries(spectrum(x, 0.1)) == [(0, 0.3, 1)]


def test_zero_mode_always_present():
    t = spectrum(CrossSection.circle(), 0.5)
    assert entries(t) == [(0, 0.0, 1)]


def test_non_hermitian_rejected():
    with pytest.raises(FredholmKitError):
        CrossSection.generic([[0.0, 1.0], [0.0, 0.0]])


def test_torus_spectrum_counts_lattice_points():
    t = spectrum(CrossSection.torus(2), 4.0)
    got = dict(zip(t.eigenvalues.tolist(), t.multiplicities))
    assert got == {0.0: 1, 1.0: 4, 2.0: 4, 4.0: 4}


# ---------------------------------------------------------------------------
# spherical harmonic multiplicities vs a brute-force harmonic-rank oracle
# ---------------------------------------------------------------------------


def _monomials(n_vars, degree):
    if n_vars == 1:
        return [(degree,)]
    out = []
    for k in range(degree + 1):
        out.extend((k, *rest) for rest in _monomials(n_vars - 1, degree - k))
    return out


def _harmonic_dim_brute(ambient, degree):
    """dim ker(Laplacian on degree-homogeneous polynomials), by SVD rank."""
    dom = _monomials(ambient, degree)
    if degree < 2:
        return len(dom)
    img = _monomials(ambient, degree - 2)
    img_index = {m: i for i, m in enumerate(img)}
    a = np.zeros((len(img), len(dom)))
    for j, mono in enumerate(dom):
        for axis in range(ambient):
            if mono[axis] >= 2:
                target = list(mono)
                target[axis] -= 2
                a[img_index[tuple(target)], j] += mono[axis] * (mono[axis] - 1)
    rank = int(np.sum(np.linalg.svd(a, compute_uv=False) > 1e-9))
    return len(dom) - rank


@pytest.mark.parametrize("dim,l,expected", [(1, 3, 2), (2, 2, 5), (4, 0, 1)])
def test_sphere_multiplicity_examples(dim, l, expected):
    assert sphere_multiplicity(dim, l) == expected


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sphere_multiplicity_matches_harmonic_rank(dim):
    for l in range(0, 5):
        assert sphere_multiplicity(dim, l) == _harmonic_dim_brute(dim + 1, l)


def test_sphere2_multiplicity_partial_sums():
    for L in range(6):
        total = sum(sphere_multiplicity(2, l) for l in range(L + 1))
        assert total == (L + 1) ** 2


# ---------------------------------------------------------------------------
# finite-difference eigenvalue oracles at three resolutions
# ---------------------------------------------------------------------------


def _circle_fd_eigenvalues(n):
    h = 2 * np.pi / n
    a = (np.diag(np.full(n, 2.0)) - np.eye(n, k=1) - np.eye(n, k=-1)) / h**2
    a[0, -1] = a[-1, 0] = -1 / h**2
    return np.sort(np.linalg.eigvalsh(a))


def test_circle_spectrum_matches_finite_differences():
    exact = [0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0]
    errs = []
    for n in (40, 80, 160):
        fd = _circle_fd_eigenvalues(n)[: len(exact)]
        errs.append(np.max(np.abs(fd - exact)))
    assert errs[1] < errs[0] / 3 and errs[2] < errs[1] / 3  # ~O(h^2)
    assert errs[2] < 2e-2


def _sphere_zonal_fd_eigenvalues(n):
    """Flux form of the polar-angle part of the sphere Laplacian on a
    cell-centered grid; the pole fluxes vanish with sin(theta)."""
    h = np.pi / n
    centers = (np.arange(n) + 0.5) * h
    faces = np.arange(n + 1) * h
    s_faces = np.sin(faces)
    a = np.zeros((n, n))
    for i in range(n):
        if i > 0:
            a[i, i - 1] -= s_faces[i]
        if i < n - 1:
            a[i, i + 1] -= s_faces[i + 1]
        a[i, i] = (s_faces[i] if i > 0 else 0.0) + (s_faces[i + 1] if i < n - 1 else 0.0)
    a /= h**2 * np.sin(centers)[:, None]
    # similarity transform into the sin-weighted inner product: symmetric PSD
    w = np.sqrt(np.sin(centers))
    sym = a * w[:, None] / w[None, :]
    return np.sort(np.linalg.eigvalsh(sym))


def test_sphere_spectrum_matches_finite_differences():
    exact = [l * (l + 1) for l in range(5)]
    errs = []
    for n in (60, 120, 240):
        fd = _sphere_zonal_fd_eigenvalues(n)[: len(exact)]
        errs.append(np.max(np.abs(fd - exact)))
    assert errs[1] < errs[0] / 3 and errs[2] < errs[1] / 3
    assert errs[2] < 1e-2


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=30)
@given(st.floats(min_value=0.5, max_value=40.0), st.floats(min_value=1.0, max_value=3.0))
def test_spectrum_monotone_in_cutoff(c1, factor):
    c2 = c1 * factor
    for x in (CrossSection.circle(), CrossSection.sphere(2), CrossSection.torus(2)):
        small = {(e, m) for _, e, m in entries(spectrum(x, c1))}
        large = {(e, m) for _, e, m in entries(spectrum(x, c2))}
        assert small <= large


def test_signed_channels_on_circle():
    table = spectrum(CrossSection.circle(), 4.5)
    ch = channels(CrossSection.circle(), table, signed=True)
    assert ch.labels == ("k=0", "k=+1", "k=-1", "k=+2", "k=-2")
    assert len(ch) == sum(table.multiplicities)


def test_torus_channel_vectors_cover_shells():
    x = CrossSection.torus(2)
    table = spectrum(x, 2.0)
    ch = channels(x, table, signed=True)
    shell1 = {tuple(v) for v, e in zip(ch.vectors.tolist(), ch.eigenvalues) if e == 1.0}
    assert shell1 == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def lattice_ball(d, cutoff):
    k = math.isqrt(int(cutoff))
    return [v for v in itertools.product(range(-k, k + 1), repeat=d)
            if sum(j * j for j in v) <= cutoff]


@pytest.mark.parametrize("x", [CrossSection.circle(), CrossSection.sphere(1),
                               CrossSection.sphere(2), CrossSection.sphere(5),
                               CrossSection.torus(1), CrossSection.torus(2),
                               CrossSection.torus(3), CrossSection.torus(4)],
                         ids=["circle", "S1", "S2", "S5", "T1", "T2", "T3", "T4"])
def test_mode_count_matches_enumeration(x):
    for cutoff in [0.5, 1.0, 2.0, 5.999, 6.0, 6.001, 99.5, 100.0, 1234.5, 9999.0]:
        assert mode_count(x, cutoff) == len(spectrum(x, cutoff)), cutoff


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_torus_spectrum_counts_the_lattice_ball(d):
    x = CrossSection.torus(d)
    for cutoff in [0.5, 1.0, 3.99, 4.0, 24.9, 25.0]:
        shells = collections.Counter(sum(j * j for j in v) for v in lattice_ball(d, cutoff))
        assert entries(spectrum(x, cutoff)) == [
            (i, float(n2), shells[n2]) for i, n2 in enumerate(sorted(shells))]


@pytest.mark.parametrize("x", [CrossSection.circle(), CrossSection.torus(1),
                               CrossSection.torus(2), CrossSection.torus(3)],
                         ids=["circle", "T1", "T2", "T3"])
def test_signed_mode_count_is_the_lattice_ball(x):
    for cutoff in [0.5, 1.0, 3.99, 4.0, 24.9, 25.0]:
        ball = lattice_ball(x.dim, cutoff)
        chans = channels(x, spectrum(x, cutoff), signed=True)
        assert mode_count(x, cutoff, signed=True) == len(chans) == len(ball)
        assert sorted(map(tuple, chans.vectors.tolist())) == ball


def test_cutoff_over_the_mode_budget_is_an_error():
    assert mode_count(CrossSection.circle(), (MODE_BUDGET - 1) ** 2) == MODE_BUDGET
    spectrum(CrossSection.circle(), (MODE_BUDGET - 1) ** 2)
    assert mode_count(CrossSection.torus(4), MODE_BUDGET - 1) == MODE_BUDGET
    spectrum(CrossSection.torus(4), MODE_BUDGET - 1)
    for x, cutoff in [(CrossSection.circle(), MODE_BUDGET ** 2), (CrossSection.torus(4), 1e4),
                      (CrossSection.torus(2), 1e300), (CrossSection.torus(6), 1e300),
                      (CrossSection.sphere(3), 1e300)]:
        assert mode_count(x, cutoff) > MODE_BUDGET
        with pytest.raises(FredholmKitError, match="budget"):
            spectrum(x, cutoff)
    # 5,336 distinct |k|^2 <= 6,400 on T^3 (Legendre), but about 2.1 million
    # signed lattice points
    x = CrossSection.torus(3)
    table = spectrum(x, 6400.0)
    assert len(channels(x, table, signed=False)) == len(table) == 5336
    with pytest.raises(FredholmKitError, match="budget"):
        channels(x, table, signed=True)


# ---------------------------------------------------------------------------
# channel tables against an independent enumeration
# ---------------------------------------------------------------------------


def _signed_reference(x, cutoff):
    """(labels, eigenvalues, vectors) of the signed channels, from
    itertools.product: the circle as k=0, k=+1, k=-1, ...; a torus by
    |k|^2, lexicographically within a shell."""
    k = math.isqrt(int(cutoff))
    if x.kind.value == "circle":
        vecs = [(0,)] + [(s * j,) for j in range(1, k + 1) for s in (1, -1)]
        labels = ["k=0"] + [f"k={v[0]:+d}" for v in vecs[1:]]
    else:
        vecs = sorted((v for v in itertools.product(range(-k, k + 1), repeat=x.dim)
                       if sum(j * j for j in v) <= cutoff),
                      key=lambda v: (sum(j * j for j in v), v))
        labels = ["k=(" + ",".join(f"{j:+d}" if j else "0" for j in v) + ")" for v in vecs]
    return tuple(labels), [float(sum(j * j for j in v)) for v in vecs], [list(v) for v in vecs]


@pytest.mark.parametrize("x", [CrossSection.circle(), CrossSection.torus(1),
                               CrossSection.torus(2), CrossSection.torus(3)],
                         ids=["circle", "T1", "T2", "T3"])
def test_signed_channel_table_matches_product_enumeration(x):
    for cutoff in [0.5, 1.0, 2.0, 3.99, 9.0, 24.9, 50.0]:
        table = spectrum(x, cutoff)
        ch = channels(x, table, signed=True)
        labels, eigenvalues, vectors = _signed_reference(x, cutoff)
        assert ch.labels == labels
        assert ch.eigenvalues.dtype == np.float64
        assert ch.eigenvalues.tolist() == eigenvalues
        assert ch.vectors.shape == (len(labels), x.dim)
        assert ch.vectors.tolist() == vectors
        assert len(ch) == sum(table.multiplicities)


def test_signed_torus_order_within_a_shell():
    x = CrossSection.torus(1)
    assert channels(x, spectrum(x, 1.0), signed=True).labels == ("k=(0)", "k=(-1)", "k=(+1)")


def test_unsigned_channel_tables():
    cases = [
        (CrossSection.circle(), 9.0, ("k=0", "k=1", "k=2", "k=3"), [0.0, 1.0, 4.0, 9.0]),
        (CrossSection.torus(2), 2.0, ("|k|^2=0", "|k|^2=1", "|k|^2=2"), [0.0, 1.0, 2.0]),
        (CrossSection.sphere(3), 30.0, tuple(f"l={l}" for l in range(5)),
         [float(l * (l + 2)) for l in range(5)]),
    ]
    for x, cutoff, labels, eigenvalues in cases:
        table = spectrum(x, cutoff)
        ch = channels(x, table, signed=False)
        assert ch.labels == labels and ch.vectors is None
        assert ch.eigenvalues.tolist() == table.eigenvalues.tolist() == eigenvalues
    assert spectrum(CrossSection.sphere(3), 30.0).multiplicities == (1, 4, 9, 16, 25)


def test_generic_channel_table_merges_a_double_eigenvalue():
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    x = CrossSection.generic(q @ np.diag([2.0, 0.5, 2.0]) @ q.T)
    table = spectrum(x, 10.0)
    assert table.multiplicities == (1, 2)
    assert_allclose(table.eigenvalues, [0.5, 2.0], rtol=0, atol=1e-12)
    ch = channels(x, table, signed=True)  # no coordinates: signed has no effect
    assert ch.labels == ("mode0", "mode1") and ch.vectors is None
    assert ch.eigenvalues.tolist() == table.eigenvalues.tolist()


def test_sphere_multiplicities_stay_exact_past_int64():
    table = spectrum(CrossSection.sphere(60), 2670.0)
    assert len(table) == 31  # l (l + 59) <= 2670 up to l = 30
    assert all(type(m) is int for m in table.multiplicities)
    assert max(table.multiplicities) > 2 ** 63
    assert list(table.multiplicities) == [sphere_multiplicity(60, l) for l in range(31)]


def test_signed_torus_over_the_budget_fails_fast():
    # the lattice ball of T^4 at |k|^2 <= 1e6 has about 4.9e12 points
    x = CrossSection.torus(4)
    start = time.perf_counter()
    assert mode_count(x, 1e6, signed=True) > MODE_BUDGET
    with pytest.raises(FredholmKitError, match="budget"):
        channels(x, ModeTable(np.zeros(1), (1,), 1e6, x), signed=True)
    assert time.perf_counter() - start < 1.0
