import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packbound.geometry import log_sphere_volume, sphere_surface, sphere_volume
from packbound.optimizer import MAX_CLOSED_FORM_D, _k_grid, _tangency_terms
from packbound.specialfn import (
    LAMBDA_X_MAX,
    LANDAU_C,
    _LAMBDA_MU_MAX,
    _series_end,
    bessel_lambda,
    first_zero,
    log_lambda_envelope,
    zeta,
)

from oracle_routes import zero_asymptotic

mpmath.mp.dps = 30

# float(mpmath.besseljzero(350, 1)) at mp.dps = 30, computed once: the call
# itself takes 20-30 s
FIRST_ZERO_350 = 363.2246603159874
# and float(mpmath.besseljzero(502, 1)), at the largest order first_zero reads
FIRST_ZERO_502 = 516.878751388572


def test_derivative_identity():
    # _tangency_terms takes u', m' and -dm/dsigma from
    # L_mu'(x) = -x L_{mu+1}(x) / (2 (mu + 1)); they match central differences
    # of its own u and m, in k and in sigma. Each k lies below the series ends
    # of both kernel pairs (2 sqrt(nu) for the pair at k, 2 sqrt(nu + 2)/sigma
    # for the pair at k sigma) or past both, so both _lambda_pair branches and
    # both kernel routes run. The error, scaled by |slope| plus the
    # differences' rounding 1e-9 (1 + |u| + |m|)/h, is at most 1.2e-5 here;
    # 2 nu in place of 2 (nu + 1) makes it 2.5 in m' and 0.5 in -dm/dsigma
    rng = np.random.default_rng(41)
    for d in (2, 3, 8, 24, 100, 301, 1000):
        nu = 0.5 * d
        k_end = _k_grid(d)[-1]
        for i in range(12):
            sigma = rng.uniform(1.0, 1.0 + 4.0 / d)
            ends = (_series_end(nu), _series_end(nu + 1.0) / sigma)
            k = rng.uniform(0.05, 1.0) * min(ends) if i % 2 else rng.uniform(max(ends), k_end)
            u, m, up, mp, neg_m_sigma = _tangency_terms(d, sigma, k)
            hk, hs = 1e-6 * max(1.0, k), 1e-7 * sigma
            u_hi, m_hi, *_ = _tangency_terms(d, sigma, k + hk)
            u_lo, m_lo, *_ = _tangency_terms(d, sigma, k - hk)
            m_s_hi = _tangency_terms(d, sigma + hs, k)[1]
            m_s_lo = _tangency_terms(d, sigma - hs, k)[1]
            noise = 1e-9 * (1.0 + abs(u) + abs(m))
            for slope, diff, h in (
                (up, (u_hi - u_lo) / (2.0 * hk), hk),
                (mp, (m_hi - m_lo) / (2.0 * hk), hk),
                (neg_m_sigma, (m_s_lo - m_s_hi) / (2.0 * hs), hs),
            ):
                assert abs(diff - slope) <= 1e-4 * (abs(slope) + noise / h), (d, sigma, k)


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
        assert abs(mpmath.besselj(order, zero)) < 1e-10


def test_zero_asymptotic_pinned():
    assert zero_asymptotic(100, "x0") == pytest.approx(108.8362071, abs=1e-6)
    assert zero_asymptotic(100, "y0") == pytest.approx(109.8641774, abs=1e-6)
    assert zero_asymptotic(100, "z0") == pytest.approx(107.8082369, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=100, max_value=1000).map(lambda n: 0.5 * n))
def test_zero_asymptotic_tracks_first_zero(nu):
    # first_zero reads the kernel, which takes integer and half-integer orders
    assert zero_asymptotic(nu, "x0") == pytest.approx(first_zero(nu), rel=1e-4)
    assert zero_asymptotic(nu, "y0") == pytest.approx(first_zero(nu + 1.0), rel=1e-4)
    assert zero_asymptotic(nu, "z0") == pytest.approx(first_zero(nu - 1.0), rel=1e-4)


def test_zero_errors():
    # first_zero reads the kernel's order range, up to nu + 2 at d = 1000
    assert first_zero(502.0) == pytest.approx(FIRST_ZERO_502, abs=1e-9)
    for nu in (0.3, 502.5, 250.77, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"first_zero order out of supported range \[0.5, 502\]"):
            first_zero(nu)
    with pytest.raises(ValueError):
        zero_asymptotic(5.0, "x0")
    with pytest.raises(ValueError):
        zero_asymptotic(100.0, "w0")


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


@pytest.mark.parametrize(
    "mu", [-0.5, 0.5, 1.0, 12.0, 49.0, 50.0, 51.0, 99.0, 100.0, 101.0, 150.0, 359.0, 400.0, 501.0]
)
def test_bessel_lambda_scalar_matches_array_bitwise(mu):
    # both sides of the series end 2 sqrt(mu+1), and on past it; the array is
    # read in one call, so each point also keeps the bits it has alone, and
    # again reversed, so that the points' start indices come out of order
    split = _series_end(mu)
    xs = [0.0, 1e-9, np.nextafter(split, 0.0), split, np.nextafter(split, np.inf)]
    xs += list(np.linspace(0.0, 3.0 * split + 20.0, 401))
    via_arrays = bessel_lambda(mu, np.array(xs))
    assert np.array_equal(bessel_lambda(mu, np.array(xs[::-1]))[::-1], via_arrays)
    for x, via_array in zip(xs, via_arrays):
        assert bessel_lambda(mu, np.array([x]))[0] == via_array, (mu, x)
        for scalar in (float(x), np.float64(x)):
            got = bessel_lambda(mu, scalar)
            assert type(got) is float
            assert got == via_array, (mu, x)


def test_landau_envelope_bounds_kernel():
    # log B_mu(x) >= log |L_mu(x)| for the orders the gap scan reads (L_{nu-1}(k)
    # and L_nu(k sigma), nu = d/2, and one order above): every order of
    # d = 2..300 up to the largest k sigma read there, and every 12th order of
    # d = 301..1000 up to the largest k sigma read at d = 1000, at the scan
    # grid's 16/pi points per unit. mpmath's hyp0f1 costs up to 1 ms a point
    # there, so the grid reads the kernel (held to mpmath to 1e-12 in
    # test_bessel_lambda_matches_hyp0f1) and mpmath checks the three tightest
    # grid points of each order. The bound is tight only at order 0,
    # x = 0.78366 (checked exactly below); from order 1/2 on, the peak of
    # x^(1/3) |J_mu(x)| stays 5% or more below c, more than the grid can miss
    # near a peak. The kernel reads no 0 on the grid, so every margin is finite.
    def grid_to(d_hi):
        x_end = max(_k_grid(d)[-1] * (1.0 + 4.0 / d) for d in range(2, d_hi + 1))
        return np.linspace(1e-3, x_end, int(x_end * 16.0 / math.pi))

    x_300, x_1000 = grid_to(300), grid_to(1000)
    orders = [(mu, x_300) for mu in np.arange(0.0, 151.5, 0.5)]
    orders += [(mu, x_1000) for mu in np.r_[np.arange(153.0, 501.0, 12.0), 501.0]]
    with mpmath.workdps(20):
        for mu, x in orders:
            with np.errstate(divide="ignore"):
                margin = log_lambda_envelope(mu, x) - np.log(np.abs(bessel_lambda(mu, x)))
            assert np.all(np.isfinite(margin)), (mu, x[~np.isfinite(margin)][0])
            assert margin.min() > 0.0, (mu, x[np.argmin(margin)], margin.min())
            for i in np.argsort(margin)[:3]:
                ref = mpmath.hyp0f1(mu + 1, -mpmath.mpf(x[i]) ** 2 / 4)
                assert log_lambda_envelope(mu, x[i]) > float(mpmath.log(abs(ref))), (mu, x[i])
    # the bound is attained at order 0: c is the maximum of x^(1/3) J_0(x)
    j0_peak = 0.78366281850347
    assert math.exp(log_lambda_envelope(0.0, j0_peak)) == pytest.approx(
        float(mpmath.besselj(0, j0_peak)), rel=1e-10
    )
    assert LANDAU_C == pytest.approx(0.785746870498513, rel=1e-10)


def test_bessel_lambda_matches_hyp0f1():
    # L_mu(x) = 0F1(; mu+1; -x^2/4) over every order the package reads (-1/2 at
    # d = 1 up to nu + 2 at d = 1000) and x up to the end of the d = 1000 scan
    # grid, and densely past the series end 2 sqrt(mu+1), where the recurrence
    # takes over and J_mu is as small as 1.5e-462 at mu = 502. Relative to 1e-12
    # away from the kernel's zeros. Near a zero, the kernel's error is some x
    # ulps of the local amplitude, here min(1, Landau's envelope): points
    # closer to a zero than 4e-4 x of that amplitude are held to 1e-14 x of it
    # instead.
    x_end = _k_grid(1000)[-1]
    orders = [-0.5, 0.0, 0.5, 1.0, 2.5, 10.0, 49.5, 100.5, 150.0, 151.0, 200.0, 250.5, 300.0]
    orders += [340.0, 346.0, 359.0, 380.5, 400.0, 450.0, 499.0, 500.0, 501.0, 502.0]
    with mpmath.workdps(30):
        for mu in orders:
            split = _series_end(mu)
            x = np.linspace(0.0, x_end, 61)
            x = np.r_[x, split * (1.0 + np.geomspace(1e-5, 1.5, 30)), split]
            for xi, via_array in zip(x, bessel_lambda(mu, x)):
                xi = float(xi)
                ref = float(mpmath.hyp0f1(mu + 1, -mpmath.mpf(xi) ** 2 / 4))
                amp = 1.0 if mu < 0.0 or xi == 0.0 else math.exp(min(0.0, log_lambda_envelope(mu, xi)))
                for got in (via_array, bessel_lambda(mu, xi)):
                    if abs(ref) >= 4e-4 * max(xi, 1.0) * amp:
                        assert abs(got - ref) <= 1e-12 * abs(ref), (mu, xi, got, ref)
                    else:
                        assert abs(got - ref) <= 1e-14 * max(xi, 1.0) * amp, (mu, xi, got, ref)


def test_bessel_lambda_order_capped():
    # 502 is nu + 2 at the largest dimension, the highest order any caller
    # reads, so the two caps cannot drift apart
    assert _LAMBDA_MU_MAX == MAX_CLOSED_FORM_D / 2 + 2
    assert bessel_lambda(502.0, 98.0) > 0.0
    for mu in (502.5, 1000.0):
        with pytest.raises(ValueError, match=r"kernel order out of supported range \[-0.5, 502\]"):
            bessel_lambda(mu, 1.0)


@pytest.mark.parametrize("mu", [73.3, 250.77, 0.25, -0.25, 1.0 + 1e-12])
def test_orders_off_the_half_integer_ladder_rejected(mu):
    # the recurrence is normalized on integer and half-integer orders only (the
    # orders d/2 + j the package reads); any other order is refused, not
    # computed, and the message names it
    for x in (1.0, 60.0, np.array([1.0, 60.0])):
        with pytest.raises(ValueError, match=rf"kernel order .* integers and half-integers: {mu}$"):
            bessel_lambda(mu, x)
    if mu >= 0.5:
        with pytest.raises(ValueError, match=rf"first_zero order .* integers and half-integers: {mu}$"):
            first_zero(mu)


def test_bessel_lambda_argument_capped():
    # a recurrence sweep costs about x steps, so x is capped at LAMBDA_X_MAX
    assert bessel_lambda(3.0, LAMBDA_X_MAX) == bessel_lambda(3.0, np.array([LAMBDA_X_MAX]))[0]
    for arg in (np.nextafter(LAMBDA_X_MAX, np.inf), np.array([1.0, 2.0 * LAMBDA_X_MAX])):
        with pytest.raises(ValueError, match=r"nonnegative, at most 10000"):
            bessel_lambda(3.0, arg)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -1e-300, -2.0])
def test_bessel_lambda_scalar_domain_errors(x):
    for arg in (x, np.float64(x), np.array([x])):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            bessel_lambda(2.0, arg)


@pytest.mark.parametrize("d", [2, 3, 4, 10, 53, 54, 1000])
def test_zeta_against_mpmath(d):
    # d = 2 is the worst of 2..1000 (6.9e-16); from d = 54 on, 2^-d is below
    # half an ulp of 1 and only the n = 1 term is left
    with mpmath.workdps(40):
        ref = mpmath.zeta(d)
        assert abs((mpmath.mpf(zeta(d)) - ref) / ref) <= 1e-15


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
