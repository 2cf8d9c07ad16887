"""Shared test helpers: smooth window functions with analytic derivatives
and random operator generators with exact (integer) coefficients."""

import math

import numpy as np
import pytest

from fredholm_kit import (
    CoeffTerm,
    Coefficient,
    CrossSection,
    LieStructure,
    MultiIndex,
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
