"""Shared test helpers: smooth window functions with analytic derivatives
and random operator generators with exact (integer) coefficients."""

import math

import numpy as np
import pytest

from fredholm_kit import (
    CoeffTerm,
    Coefficient,
    CrossSection,
    FredholmKitError,
    IndicialRoot,
    LieStructure,
    MultiIndex,
    RootTable,
    make_operator,
)

erf = np.vectorize(math.erf, otypes=[float])


def smooth_window(t, a, b, tau=0.25):
    """C-infinity window that is 1 on [a + 7 tau, b - 7 tau] to machine
    precision and below 1e-16 outside [a - 7 tau, b + 7 tau]."""
    return 0.25 * (1 + erf((t - a) / tau)) * (1 + erf((b - t) / tau))


def windowed_trig(rng, t, a, b, max_freq=3, tau=0.25):
    """Random band-limited function times a window, periodic-friendly on
    any grid containing [a - 7 tau, b + 7 tau]."""
    g = np.zeros_like(t)
    for k in range(max_freq + 1):
        g = g + rng.normal() * np.cos(k * t) + rng.normal() * np.sin(k * t)
    return smooth_window(t, a, b, tau) * g


def cross_partial_factor(cross, lam, vector):
    """Mode action of the tangential partials d/dy^cross on one channel of
    eigenvalue lam and signed lattice frequencies vector (ints, or None for
    an unsigned circle channel, which admits even powers through
    lambda = k^2), in CPython complex arithmetic: the per-channel
    reference for the array-wide mode factors."""
    factor = 1.0 + 0j
    for j, p in enumerate(cross):
        if not p:
            continue
        if vector is not None:
            factor *= (1j * vector[j]) ** p
        elif p % 2 == 0 and len(cross) == 1:
            factor *= (-1.0) ** (p // 2) * lam ** (p // 2)
        else:
            raise FredholmKitError(
                "explicit tangential partials need signed mode channels")
    return factor


def gaussian_packet(rho, center, width, freq):
    """u(rho) with closed-form first and second derivatives, effectively
    supported where the Gaussian is non-negligible."""
    g = np.exp(-(((rho - center) / width) ** 2))
    s = np.sin(freq * rho)
    c = np.cos(freq * rho)
    gp = -2 * (rho - center) / width**2
    u = g * s
    du = g * (freq * c + s * gp)
    d2u = g * (-freq**2 * s + 2 * freq * c * gp + s * (gp**2 - 2 / width**2))
    return u, du, d2u


def random_b_operator(rng, cross=None, allow_lam_poly=False):
    """Random order-<=2 operator in the b frame over the circle, with
    small-integer coefficients so composition identities are float-exact."""
    cross = cross or CrossSection.circle()
    structure = LieStructure.b(cross.dimension)

    def coeff(boundary_visible=False):
        terms = []
        for i in range(rng.integers(1, 3)):
            if boundary_visible:
                nu = 0 if i == 0 else 1
            else:
                nu = int(rng.integers(0, 2))
            val = int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1)
            terms.append(CoeffTerm(nu, complex(val)))
        return Coefficient(terms)

    # boundary-visible leading term, so the frozen operator never vanishes
    terms = {MultiIndex(2): coeff(boundary_visible=True)}
    if rng.random() < 0.7:
        terms[MultiIndex(1)] = coeff()
    if rng.random() < 0.7:
        terms[MultiIndex(0)] = coeff()
    if rng.random() < 0.6:
        terms[MultiIndex(0, (), 1)] = coeff()
    if allow_lam_poly and rng.random() < 0.4:
        terms[MultiIndex(0)] = Coefficient.laplacian_poly(
            [int(rng.integers(-3, 4)), int(rng.integers(1, 3))])
    return make_operator(structure, cross, terms)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


# ---------------------------------------------------------------------------
# 4x4 b systems S diag(p_i) S^-1 over the circle with closed-form roots
# ---------------------------------------------------------------------------


def fixed_similarity(seed=7):
    """Q diag(1, 1.5, 2, 1.2), Q the sign-fixed QR factor of a seeded 4x4
    standard normal matrix: condition number 2."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
    return (q * np.sign(np.diag(r))) @ np.diag([1.0, 1.5, 2.0, 1.2])


def _similar(diag):
    s = fixed_similarity()
    return Coefficient.constant(s @ np.diag(np.asarray(diag, dtype=float)) @ np.linalg.inv(s))


# blocks of the order-2 and order-4 systems
ORDER2_B, ORDER2_C = (0.5, 0.5, -0.25, -0.25), (1.0, 2.0, 3.0, 1.5)
ORDER4_A, ORDER4_C = (0.25, 0.5, 1.0, 1.5), (2.0, 2.5, 3.0, 3.5)


def b_system_order2():
    """Blocks p_i = T^2 + b_i T + L - c_i (T = r d/dr, L the mode
    Laplacian), conjugated by fixed_similarity()."""
    eye = Coefficient.constant(np.eye(4))
    return make_operator(LieStructure.b(1), CrossSection.circle(), {
        MultiIndex(2): eye, MultiIndex(1): _similar(ORDER2_B),
        MultiIndex(0, (), 1): eye, MultiIndex(0): _similar(np.negative(ORDER2_C))})


def b_system_order4():
    """Blocks p_i = (T^2 + L - a_i)(T^2 + L - c_i), conjugated by
    fixed_similarity()."""
    eye = np.eye(4)
    ac = _similar(-(np.asarray(ORDER4_A) + np.asarray(ORDER4_C)))
    return make_operator(LieStructure.b(1), CrossSection.circle(), {
        MultiIndex(4): Coefficient.constant(eye),
        MultiIndex(2, (), 1): Coefficient.constant(2 * eye),
        MultiIndex(0, (), 2): Coefficient.constant(eye),
        MultiIndex(2): ac, MultiIndex(0, (), 1): ac,
        MultiIndex(0): _similar(np.multiply(ORDER4_A, ORDER4_C))})


def b_system_order4_singular():
    """b_system_order4 with p_3 replaced by (L - c_3)(T^2 + L - a_3): the
    leading matrix S diag(1, 1, 1, 0) S^-1 is singular."""
    a, c = np.asarray(ORDER4_A), np.asarray(ORDER4_C)
    top = np.array([1.0, 1.0, 1.0, 0.0])
    return make_operator(LieStructure.b(1), CrossSection.circle(), {
        MultiIndex(4): _similar(top),
        MultiIndex(2, (), 1): _similar(1 + top),
        MultiIndex(0, (), 2): Coefficient.constant(np.eye(4)),
        MultiIndex(2): _similar(-(top * a + c)), MultiIndex(0, (), 1): _similar(-(a + c)),
        MultiIndex(0): _similar(a * c)})


def degree_drop_system():
    """diag(T^2 + L - 1, T + L - 2) on the circle, T = r d/dr: the leading
    matrix diag(1, 0) is singular on every mode, and det P on mode k drops
    from degree 4 to 3, with roots tau = +-i sqrt(k^2 + 1) and
    tau = -i (k^2 + 2).  Not elliptic."""
    return make_operator(LieStructure.b(1), CrossSection.circle(), {
        MultiIndex(2): Coefficient.constant(np.diag([1.0, 0.0])),
        MultiIndex(1): Coefficient.constant(np.diag([0.0, 1.0])),
        MultiIndex(0, (), 1): Coefficient.constant(np.eye(2)),
        MultiIndex(0): Coefficient.constant(np.diag([-1.0, -2.0]))})


def b_system_shifted(shifts, coupled=False, seed=7):
    """Blocks T^2 + L - c_i, conjugated by fixed_similarity(seed); coupled
    adds 1 in the (0, 1) entry before conjugation, a Jordan coupling of
    the first two blocks when c_0 = c_1."""
    a0 = -np.diag(np.asarray(shifts, dtype=float))
    a0[0, 1] = 1.0 if coupled else 0.0
    s = fixed_similarity(seed)
    eye = Coefficient.constant(np.eye(4))
    return make_operator(LieStructure.b(1), CrossSection.circle(), {
        MultiIndex(2): eye, MultiIndex(0, (), 1): eye,
        MultiIndex(0): Coefficient.constant(s @ a0 @ np.linalg.inv(s))})


# a Jordan chain of length 4 at z = 0 on mode 0, and a double root at 0
# beside coefficients of 1e4
JORDAN_SHIFTS, LARGE_SHIFTS = (0.0, 0.0, 1.0, 2.0), (0.0, 1e4, 1.0, 2.0)


def shifted_mellin_roots(shifts):
    """Mode k of b_system_shifted(shifts): +-sqrt(k^2 + c_i)."""
    return lambda k: [sign * math.sqrt(k * k + c) for c in shifts for sign in (-1, 1)]


def order2_mellin_roots(k):
    """Mode k of b_system_order2: the solutions of z^2 + b_i z - (k^2 + c_i) = 0."""
    return [(-b + sign * math.sqrt(b * b + 4 * (k * k + c))) / 2
            for b, c in zip(ORDER2_B, ORDER2_C) for sign in (-1, 1)]


def order4_mellin_roots(k):
    """Mode k of b_system_order4: +-sqrt(k^2 + x) for x in a and c."""
    return [sign * math.sqrt(k * k + x) for x in (*ORDER4_A, *ORDER4_C) for sign in (-1, 1)]


# ---------------------------------------------------------------------------
# root lists that a merge gets wrong, and a diagonal system with a double root
# ---------------------------------------------------------------------------


# (r, neighbour of r): the roots of det P are r x3, r + neighbour, r - 1, r + 2i
MERGE_CASES = {"A": (1 + 0.5j, 0.1), "B": (100 * (1 + 0.5j), 0.01)}


def merge_case_roots(case):
    """The roots of det P for `merge_case(case)`, with multiplicities."""
    r, near = MERGE_CASES[case]
    return [(r, 3), (r + near, 1), (r - 1, 1), (r + 2j, 1)]


def merge_case(case):
    """A 2x2 b system on the circle whose indicial family is the same on
    every mode: P(tau) = S diag((tau - r)^3, q(tau)) S^-1, with S a seeded
    standard normal matrix and q the cubic with roots r + neighbour, r - 1
    and r + 2i (`MERGE_CASES`).  T = r d/dr enters as i tau, so T^j takes
    the coefficient of tau^j over i^j.  Not elliptic: no tangential term."""
    r, near = MERGE_CASES[case]
    s = np.random.default_rng(3).standard_normal((2, 2))
    cube = np.polynomial.polynomial.polyfromroots([r] * 3)
    q = np.polynomial.polynomial.polyfromroots([r + near, r - 1, r + 2j])
    return make_operator(LieStructure.b(1), CrossSection.circle(), {
        MultiIndex(j): Coefficient.constant(s @ np.diag([cube[j], q[j]]) @ np.linalg.inv(s) / 1j ** j)
        for j in range(4)})


def two_double_roots_system():
    """S p(T) S^-1 on the circle, T = r d/dr, with S a seeded standard
    normal 2x2 matrix and p the quadratic with roots tau = -5.5 - 1.5i and
    6 - 0.5i (T^j takes the coefficient of tau^j over i^j): two double
    roots 12 apart on every mode, z = 1.5 - 5.5i and 0.5 + 6i.  Not
    elliptic: no tangential term."""
    s = np.random.default_rng(39).standard_normal((2, 2))
    p = np.polynomial.polynomial.polyfromroots([-5.5 - 1.5j, 6 - 0.5j])
    return make_operator(LieStructure.b(1), CrossSection.circle(), {
        MultiIndex(j): Coefficient.constant(s @ (c * np.eye(2)) @ np.linalg.inv(s) / 1j ** j)
        for j, c in enumerate(p)})


def near_singular_leading_system():
    """(T^2 diag(1, L - 1 + 1e-15) + I L - 2I) on the circle, T = r d/dr:
    on mode k=1 the leading matrix is diag(-1, -9.99e-16), of full rank
    by `np.linalg.matrix_rank`, and det P has the roots +-i sqrt(3) and
    +-i sqrt(3 / 9.99e-16) = +-5.479e7 i.  Not elliptic."""
    top = Coefficient([CoeffTerm(0.0, np.diag([1.0, 0.0])),
                       CoeffTerm(0.0, np.diag([0.0, 1.0]), (-1.0 + 1e-15, 1.0))])
    return make_operator(LieStructure.b(1), CrossSection.circle(), {
        MultiIndex(2): top, MultiIndex(0, (), 1): Coefficient.constant(np.eye(2)),
        MultiIndex(0): Coefficient.constant(-2.0 * np.eye(2))})


def diagonal_system():
    """I T^2 + I L + diag(1, 2) on the circle, T = r d/dr: det P on mode k
    is (tau^2 + k^2 - 1)(tau^2 + k^2 - 2), a double root at 0 on k = +-1."""
    eye = Coefficient.constant(np.eye(2))
    return make_operator(LieStructure.b(1), CrossSection.circle(), {
        MultiIndex(2): eye, MultiIndex(0, (), 1): eye,
        MultiIndex(0): Coefficient.constant(np.diag([1.0, 2.0]))})


# ---------------------------------------------------------------------------
# vanishing constant coefficients: roots at 0, where the oracle starts
# ---------------------------------------------------------------------------


def zero_constant_system():
    """I T^2 + B T + I L on the circle, T = r d/dr, B = [[1, 0.5], [0, 2]]:
    on mode 0, P(tau) = -tau^2 I + i tau B has A_0 = 0, and
    det P = tau^2 (tau - i) (tau - 2i), a double root at 0."""
    return make_operator(LieStructure.b(1), CrossSection.circle(), {
        MultiIndex(2): Coefficient.constant(np.eye(2)),
        MultiIndex(1): Coefficient.constant(np.array([[1.0, 0.5], [0.0, 2.0]])),
        MultiIndex(0, (), 1): Coefficient.constant(np.eye(2))})


def quartic_laplacian():
    """(r d/dr)^4 + L^2 - 16 on the circle: mode k is tau^4 + k^4 - 16, so
    mode 2 is tau^4, a fourfold root at 0."""
    return make_operator(LieStructure.b(1), CrossSection.circle(), {
        MultiIndex(4): 1.0, MultiIndex(0, (), 2): 1.0, MultiIndex(0): -16.0})


def shared_class_root_roots():
    """Roots as `indicial_roots` lists a class root: many labels holding
    its tau and mellin objects, in runs broken by a root of equal values
    but opposite zero signs, by one with its own objects of the same
    values and signs, and by another multiplicity."""
    tau = complex(-1.5, 0.0)
    mellin = 1j * tau  # (-0.0, -1.5)
    shared = [IndicialRoot(f"k=+{k}", tau, mellin, 2) for k in (10, 11, 2, 3, 4, 5)]
    flipped = IndicialRoot("k=-1", complex(-1.5, -0.0), complex(0.0, -1.5), 2)
    own = IndicialRoot("k=-2", complex(-1.5, 0.0), complex(-0.0, -1.5), 2)
    single = IndicialRoot("k=-3", tau, mellin, 1)
    return [*shared[:3], flipped, *shared[3:5], own, single, shared[5], flipped]


def shared_class_root_table():
    """`shared_class_root_roots()` as `indicial_roots` would table them:
    the roots holding the shared objects on one class root, and the
    flipped, own and single roots on class roots of their own."""
    tau = complex(-1.5, 0.0)
    labels = ("k=+10", "k=+11", "k=+2", "k=-1", "k=+3", "k=+4", "k=-2", "k=-3", "k=+5")
    return RootTable(labels, np.array([tau, complex(-1.5, -0.0), tau, tau]),
                     np.array([1j * tau, complex(0.0, -1.5), complex(-0.0, -1.5), 1j * tau]),
                     np.array([2, 2, 2, 1]), np.array([0, 1, 2, 3, 4, 5, 6, 7, 8, 3]),
                     np.array([0, 0, 0, 1, 0, 0, 2, 3, 0, 1]))


def mode_classes(fam):
    """Channel labels grouped by identical coefficient arrays
    (`IndicialFamily.class_rows`), in order of first appearance."""
    first, class_of = fam.class_rows
    groups: list[list[str]] = [[] for _ in first]
    for label, c in zip(fam.channels.labels, class_of.tolist()):
        groups[c].append(label)
    return [tuple(g) for g in groups]
