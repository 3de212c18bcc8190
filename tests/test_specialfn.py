import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packbound.specialfn import (
    bessel_j,
    bessel_lambda,
    first_zero,
    log_sphere_volume,
    sphere_surface,
    sphere_volume,
)

from oracle_routes import bessel_j_half, watson_j, zero_asymptotic

mpmath.mp.dps = 30

# float(mpmath.besseljzero(350, 1)) at mp.dps = 30, computed once: the call
# itself takes 20-30 s
FIRST_ZERO_350 = 363.2246603159874


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5, 10.0, 100.5, 350.0])
def test_bessel_j_against_mpmath(nu):
    for x in [0.01, 0.9, 3.7, 25.0, 180.0, 2000.0]:
        ref = float(mpmath.besselj(nu, x))
        got = bessel_j(nu, x)
        if abs(ref) > 1e-280:
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-13)
        else:
            assert got == pytest.approx(ref, abs=1e-290)


def test_bessel_j_pinned_values():
    assert bessel_j(0.5, math.pi) == pytest.approx(0.0, abs=1e-13)
    assert bessel_j(0.5, math.pi / 2) == pytest.approx(2.0 / math.pi, rel=1e-12)
    # near-zero absolute accuracy at a first zero of large order
    assert abs(bessel_j(100, 108.8361659)) < 1e-10


def test_bessel_j_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(1.0, -0.1)
    with pytest.raises(ValueError):
        bessel_j(1.0, math.nan)
    with pytest.raises(ValueError):
        bessel_j(-1.0, 1.0)
    with pytest.raises(ValueError):
        bessel_j(2e4, 1.0)


@pytest.mark.parametrize("nu", [0.5, 1.5])
def test_half_integer_closed_forms(nu):
    x = np.linspace(0.01, 100.0, 757)
    prod = bessel_j(nu, x)
    closed = bessel_j_half(nu, x)
    # relative where the function is not at a node, absolute at the nodes
    assert np.allclose(prod, closed, rtol=1e-12, atol=1e-14)


def test_half_integer_5_2():
    # the 5/2 closed form loses digits to cancellation below x ~ 1, so only
    # compare where it is itself good
    x = np.linspace(1.0, 100.0, 400)
    assert np.allclose(bessel_j(2.5, x), bessel_j_half(2.5, x), rtol=1e-11, atol=1e-13)


def test_derivative_identity():
    # d/dx [J_nu(x)/x^nu] = -J_{nu+1}(x)/x^nu, checked by central differences
    rng = np.random.default_rng(42)
    for _ in range(100):
        nu = rng.uniform(0.0, 12.0)
        x = rng.uniform(0.5, 30.0)
        h = 1e-6 * max(1.0, x)
        f = lambda t: bessel_j(nu, t) / t**nu
        lhs = (f(x + h) - f(x - h)) / (2.0 * h)
        rhs = -bessel_j(nu + 1.0, x) / x**nu
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-12 / x**nu)


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.5, 7.0, 40.0, 100.0, 350.0])
def test_first_zero_against_mpmath(nu):
    ref = FIRST_ZERO_350 if nu == 350.0 else float(mpmath.besseljzero(nu, 1))
    assert first_zero(nu) == pytest.approx(ref, abs=1e-9)


def test_first_zero_pinned_triple():
    assert first_zero(100) == pytest.approx(108.8361659, abs=1e-6)
    assert first_zero(101) == pytest.approx(109.8640469, abs=1e-6)
    assert first_zero(99) == pytest.approx(107.8081033, abs=1e-6)


@pytest.mark.parametrize("nu", [12.0, 31.0, 64.0, 100.0, 150.0])
def test_zero_triple_ordering(nu):
    z0 = first_zero(nu - 1.0)
    x0 = first_zero(nu)
    y0 = first_zero(nu + 1.0)
    assert z0 < x0 < y0
    for order, zero in ((nu - 1.0, z0), (nu, x0), (nu + 1.0, y0)):
        assert abs(bessel_j(order, zero)) < 1e-10


def test_zero_asymptotic_pinned():
    assert zero_asymptotic(100, "x0") == pytest.approx(108.8362071, abs=1e-6)
    assert zero_asymptotic(100, "y0") == pytest.approx(109.8641774, abs=1e-6)
    assert zero_asymptotic(100, "z0") == pytest.approx(107.8082369, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=50.0, max_value=500.0))
def test_zero_asymptotic_tracks_first_zero(nu):
    assert zero_asymptotic(nu, "x0") == pytest.approx(first_zero(nu), rel=1e-4)
    assert zero_asymptotic(nu, "y0") == pytest.approx(first_zero(nu + 1.0), rel=1e-4)
    assert zero_asymptotic(nu, "z0") == pytest.approx(first_zero(nu - 1.0), rel=1e-4)


def test_zero_errors():
    with pytest.raises(ValueError):
        first_zero(0.3)
    with pytest.raises(ValueError):
        zero_asymptotic(5.0, "x0")
    with pytest.raises(ValueError):
        zero_asymptotic(100.0, "w0")


def test_watson_bands():
    # one-term Watson form: the phase error is O(nu^2/x) far from the turning
    # point, so the bands below are ~3x the measured one-term residual
    for nu, x, band in [(0.5, 10.0, 3.5e-2), (0.5, 50.0, 8e-3), (100.0, 200.0, 4e-3), (100.0, 400.0, 3e-4)]:
        amp = math.sqrt(2.0 / (math.pi * math.sqrt(x * x - nu * nu)))
        assert abs(watson_j(nu, x) - bessel_j(nu, x)) < band * amp
    # near the exact zero the phase is right even this close to the turning point
    x0 = 108.8361659
    amp = math.sqrt(2.0 / (math.pi * math.sqrt(x0 * x0 - 100.0**2)))
    assert abs(watson_j(100.0, x0)) < 0.1 * amp
    with pytest.raises(ValueError):
        watson_j(10.0, 9.0)


def test_bessel_lambda_against_mpmath():
    for mu in [0.5, 1.0, 4.0, 17.5, 60.0, 150.0]:
        # straddle the series/log-space split at 2*sqrt(mu+1)
        split = 2.0 * math.sqrt(mu + 1.0)
        for x in [0.0, 0.3, 0.9 * split, 1.1 * split, 3.0 * split]:
            if x == 0.0:
                ref = 1.0
            else:
                ref = float(
                    2**mpmath.mpf(mu)
                    * mpmath.gamma(mu + 1)
                    * mpmath.besselj(mu, x)
                    / mpmath.mpf(x) ** mu
                )
            assert bessel_lambda(mu, x) == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_bessel_lambda_vectorized():
    x = np.linspace(0.0, 50.0, 301)
    v = bessel_lambda(3.0, x)
    assert v.shape == x.shape
    assert v[0] == 1.0
    assert np.all(np.abs(v) <= 1.0 + 1e-12)


@pytest.mark.parametrize("mu", [-0.5, 0.5, 1.0, 12.0, 49.0, 50.0, 51.0, 99.0, 100.0, 101.0, 150.0])
def test_bessel_lambda_scalar_matches_array_bitwise(mu):
    split = 2.0 * math.sqrt(mu + 1.0)
    xs = [0.0, 1e-9, np.nextafter(split, 0.0), split, np.nextafter(split, np.inf)]
    xs += list(np.linspace(0.0, 3.0 * split + 20.0, 401))
    for x in xs:
        via_array = bessel_lambda(mu, np.array([x]))[0]
        for scalar in (float(x), np.float64(x)):
            got = bessel_lambda(mu, scalar)
            assert type(got) is float
            assert got == via_array, (mu, x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -1e-300, -2.0])
def test_bessel_lambda_scalar_domain_errors(x):
    for arg in (x, np.float64(x), np.array([x])):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            bessel_lambda(2.0, arg)


def test_sphere_volume_surface():
    assert sphere_volume(1, 0.5) == pytest.approx(1.0, rel=1e-14)
    assert sphere_volume(3, 1.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
    assert sphere_volume(2, 0.5) == pytest.approx(math.pi / 4.0, rel=1e-14)
    assert sphere_surface(3, 1.0) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert sphere_surface(2, 1.0) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert sphere_surface(1, 1.0) == pytest.approx(2.0, rel=1e-14)
    assert sphere_volume(3, 0.0) == 0.0
    assert log_sphere_volume(200, 0.5) == pytest.approx(
        100.0 * math.log(math.pi) - math.lgamma(101.0) + 200.0 * math.log(0.5), rel=1e-14
    )


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_volume_surface_relation(R):
    for d in range(1, 51):
        assert sphere_volume(d, R) == pytest.approx(sphere_surface(d, R) * R / d, rel=1e-12)
