import math
from contextlib import nullcontext

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from packbound.geometry import (
    _betainc, alpha2, log_sphere_volume, sphere_surface, sphere_volume,
)

from oracle_routes import alpha2_asymptotic, alpha2_integral, alpha2_series


def test_endpoints():
    for d in (1, 2, 3, 7, 24, 100):
        assert alpha2_integral(d, 0.0, 1.0) == 1.0
        assert alpha2_integral(d, 2.0, 1.0) == 0.0
        assert alpha2(d, 0.0, 1.0) == 1.0
        assert alpha2(d, 2.0, 1.0) == 0.0
        assert alpha2(d, 5.0, 1.0) == 0.0
    assert alpha2_series(5, 2.0, 1.0) == pytest.approx(0.0, abs=1e-13)


def test_d1_is_linear():
    for r in np.linspace(0.0, 2.0, 41):
        assert alpha2_integral(1, r, 1.0) == pytest.approx(1.0 - r / 2.0, abs=1e-12)
        assert alpha2(1, r, 1.0) == pytest.approx(1.0 - r / 2.0, abs=1e-13)


def test_d3_closed_polynomial():
    for x in np.linspace(0.0, 1.0, 17):
        want = 1.0 - 1.5 * x + 0.5 * x**3
        assert alpha2_series(3, 2.0 * x, 1.0) == pytest.approx(want, abs=1e-14)
        assert alpha2_integral(3, 2.0 * x, 1.0) == pytest.approx(want, abs=1e-12)


def test_beta2_d1_midpoint():
    # the scaled union volume 2 - alpha2
    assert 2.0 - alpha2(1, 1.0, 1.0) == pytest.approx(1.5, abs=1e-14)


@pytest.mark.parametrize("d", range(1, 13))
def test_series_equals_integral(d):
    r = np.linspace(0.0, 2.0, 1000)
    # at d = 2, 4, 6 the series runs out of terms near x = 1 and falls back to quadrature
    even_fallback = d in (2, 4, 6)
    with pytest.warns(RuntimeWarning, match="quadrature") if even_fallback else nullcontext():
        for ri in r:
            assert alpha2_series(d, ri, 1.0) == pytest.approx(
                alpha2_integral(d, ri, 1.0), abs=1e-10
            )


@pytest.mark.parametrize("d", [1, 2, 3, 5, 12, 40, 200])
def test_betainc_route_matches_integral(d):
    for ri in np.linspace(0.01, 1.99, 29):
        a = alpha2(d, ri, 1.0)
        b = alpha2_integral(d, ri, 1.0)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-300)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 50, 200])
def test_monotone_in_r(d):
    r = np.linspace(0.0, 2.0, 1000)
    v = alpha2(d, r, 1.0)
    assert np.all(np.diff(v) <= 1e-15)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)


def test_monotone_in_d():
    # at fixed x in (0,1) the overlap fraction shrinks with dimension
    for x in (0.1, 0.3, 0.5, 0.8, 0.95):
        vals = [alpha2(d, 2.0 * x, 1.0) for d in range(1, 21)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=0.0, max_value=2.0),
    st.sampled_from([0.5, 1.0, 3.0]),
)
# a small x whose digits are lost if 1 - x^2 is formed first
@example(d=1, x=1.5493558902397792e-06, R=0.5)
def test_bounds_and_linear_envelope(d, x, R):
    r = x * R
    a = alpha2(d, r, R)
    assert 0.0 <= a <= 1.0
    assert a <= 1.0 - r / (2.0 * R) + 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 8, 50, 200, 300, 1000])
def test_alpha2_against_mpmath(d):
    # I_{1-x^2}((d+1)/2, 1/2) at 50 digits, with 1 - x^2 formed exactly. As
    # x -> 1 it holds only if alpha2 forms 1 - x^2 as (1 - x)(1 + x): 1 minus a
    # rounded x^2 is off by 5e-10 relative at x = 1 - 1e-9, d = 1
    a = mpmath.mpf(d + 1) / 2
    # alpha2's incomplete beta switches to its symmetric form at
    # 1 - x^2 = (a + 1)/(a + 5/2); points around it and around x^2 = 1/2
    switch = 1.5 / (float(a) + 2.5)
    steps = 1.0 + np.array([-1e-3, -1e-9, -1e-15, 0.0, 1e-15, 1e-9, 1e-3])
    edges = np.concatenate([math.sqrt(0.5) * steps, math.sqrt(switch) * steps])
    xs = np.concatenate([
        np.geomspace(1e-12, 0.99, 120), np.linspace(0.05, 0.99, 20), [1.0 - 1e-6, 1.0 - 1e-9],
        edges,
    ])
    with mpmath.workdps(50):
        for x in xs:
            ref = mpmath.betainc(a, 0.5, 0, 1 - mpmath.mpf(float(x)) ** 2, regularized=True)
            assert alpha2(d, 2.0 * x, 1.0) == pytest.approx(float(ref), rel=1e-12, abs=0.0), x
    # an array holds the bits of scalar calls, on both sides of the switch
    r = 2.0 * np.concatenate([xs, [1.0, 1.2]])
    x = np.clip(r / 2.0, 0.0, 1.0)
    assert np.any(x * x < switch) and np.any(x * x > switch)
    assert [alpha2(d, float(v), 1.0) for v in r] == alpha2(d, r, 1.0).tolist()


@pytest.mark.parametrize("d", [2, 24, 300, 1000])
def test_betainc_against_mpmath(d):
    # I_x(a, a), I_x(a, 1/2) and I_x(1/2, a) at a = (d+1)/2, the three shapes
    # that alpha2 and the number variance's J(X) read, against 50 digits, on
    # both sides of each switch, as x -> 0 and as x -> 1 (1 - x to full precision)
    a = 0.5 * (d + 1)
    t = np.concatenate([np.geomspace(1e-12, 0.5, 30), 1.0 - np.geomspace(1e-12, 0.5, 30)])
    with mpmath.workdps(50):
        for p, q in ((a, a), (a, 0.5), (0.5, a)):
            switch = (p + 1.0) / (p + q + 2.0)
            for x in np.concatenate([t, switch * (1.0 + np.array([-1e-12, 0.0, 1e-12]))]):
                xc = 1.0 - mpmath.mpf(float(x))
                ref = mpmath.betainc(p, q, 0, float(x), regularized=True)
                if ref < 1e-290:
                    continue  # not a normal double
                got = _betainc(p, q, np.array([x]), np.array([float(xc)]))[0]
                assert got == pytest.approx(float(ref), rel=1e-12, abs=0.0), (p, q, x)


def test_betainc_raises_where_its_fraction_does_not_converge():
    # at a = b = 1e6 the fraction needs thousands of terms at the switch, past
    # the deepest depth tried; that is an error, not a truncated value
    with pytest.raises(RuntimeError, match="did not converge in 256 terms"):
        _betainc(1e6, 1e6, np.array([0.1, 0.5]), np.array([0.9, 0.5]))


def test_scaling_in_R():
    # alpha2 depends on r and R only through r/(2R)
    for d in (2, 9):
        for x in (0.2, 0.7):
            assert alpha2(d, 2.0 * x * 0.5, 0.5) == pytest.approx(
                alpha2(d, 2.0 * x * 4.0, 4.0), rel=1e-13
            )


def test_asymptotic_contact_value():
    assert alpha2_asymptotic(100) == pytest.approx(
        math.sqrt(6.0 / math.pi) * 0.75**50 / 10.0, rel=1e-14
    )
    assert alpha2_asymptotic(50) == pytest.approx(alpha2_integral(50, 1.0, 1.0), rel=0.10)
    assert alpha2_asymptotic(200) == pytest.approx(alpha2_integral(200, 1.0, 1.0), rel=0.05)
    with pytest.raises(ValueError):
        alpha2_asymptotic(9)


def test_series_fallback_warns_near_support_edge():
    # even d, x close to 1: the series tail cannot reach 1e-14 in budget
    with pytest.warns(RuntimeWarning):
        v = alpha2_series(2, 1.9999, 1.0)
    assert v == pytest.approx(alpha2_integral(2, 1.9999, 1.0), rel=1e-9)


def test_domain_errors():
    with pytest.raises(ValueError, match="^dimension must be a positive integer, got 0$"):
        alpha2(0, 1.0, 1.0)
    # the dimension is checked first
    with pytest.raises(ValueError, match="^dimension must be a positive integer, got 2.5$"):
        alpha2(2.5, 1.0, -1.0)
    with pytest.raises(ValueError, match="^sphere radius must be positive, got 0.0$"):
        alpha2(3, 1.0, 0.0)
    with pytest.raises(ValueError, match="^sphere radius must be positive, got nan$"):
        alpha2(2, 1.0, math.nan)
    # a NaN distance is bad input, not a continued fraction that fails to converge
    with pytest.raises(ValueError, match="^center distance r must not be NaN$"):
        alpha2(2, np.array([0.5, math.nan]), 1.0)
    with pytest.raises(ValueError):
        alpha2_series(3, 2.5, 1.0)


# alpha2 at x = r/(2R) in [0, 1] in closed form, at the simulator's dimensions
_ALPHA2_CLOSED = {
    1: lambda x: 1.0 - x,
    2: lambda x: 2.0 * (np.arccos(x) - x * np.sqrt((1.0 - x) * (1.0 + x))) / math.pi,
    3: lambda x: 0.5 * (1.0 - x) ** 2 * (2.0 + x),
}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_beta2_closed_forms(d):
    # the scaled union volume 2 - alpha2 against its closed form, and the
    # closed form against 2 - I_{1-x^2}((d+1)/2, 1/2) at 50 digits, on r in
    # [0, 2R], at the contact distance's neighbours and past 2R
    for R in (0.5, 1.0, 3.0):
        r = 2.0 * R * np.concatenate(
            [np.linspace(0.0, 1.0, 401), [1e-12, 0.5 - 1e-9, 1.0 - 1e-12, 1.25]]
        )
        got = 2.0 - alpha2(d, r, R)
        assert [2.0 - alpha2(d, float(v), R) for v in r] == got.tolist()
        closed = 2.0 - _ALPHA2_CLOSED[d](np.clip(r / (2.0 * R), 0.0, 1.0))
        assert np.all(np.abs(got - closed) <= 5e-16 * got)
        a = mpmath.mpf(d + 1) / 2
        with mpmath.workdps(50):
            for v, b in zip(r, closed):
                x = min(mpmath.mpf(float(v)) / (2 * mpmath.mpf(R)), 1)
                ref = 2 - mpmath.betainc(a, 0.5, 0, 1 - x * x, regularized=True)
                assert abs(b - ref) <= 3e-16 * ref, v


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_ball_volume_and_surface_against_mpmath(R):
    # math.lgamma is off by a few 1e-16 near 0.5, 1.5 and 2.5, and each log
    # term is rounded, so the log of a volume or surface may be off by a few
    # ulps of the largest term; exp adds one rounding
    eps = np.finfo(float).eps
    lnpi, lnr = math.log(math.pi), abs(math.log(R))
    with mpmath.workdps(30):
        pi, Rm = mpmath.pi, mpmath.mpf(R)
        for d in range(1, 1001):
            half = mpmath.mpf(d) / 2
            size = 0.5 * d * lnpi + abs(math.lgamma(1.0 + 0.5 * d)) + d * lnr
            lv = half * mpmath.log(pi) - mpmath.loggamma(1 + half) + d * mpmath.log(Rm)
            assert abs(log_sphere_volume(d, R) - lv) <= 4 * eps * size, d
            # surface = 2 (d/2) volume / R
            ls = lv + mpmath.log(d) - mpmath.log(Rm)
            for got, ref in ((sphere_volume(d, R), lv), (sphere_surface(d, R), ls)):
                ref = mpmath.exp(ref)
                if ref > 1e-300:
                    assert abs(got - ref) <= (4 * size + 2) * eps * ref, d
