import math
from contextlib import nullcontext

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import betainc, betaincc

from packbound.geometry import alpha2, beta2

from oracle_routes import alpha2_asymptotic, alpha2_integral, alpha2_series


def test_endpoints():
    for d in (1, 2, 3, 7, 24, 100):
        assert alpha2_integral(d, 0.0, 1.0) == 1.0
        assert alpha2_integral(d, 2.0, 1.0) == 0.0
        assert alpha2(d, 0.0, 1.0) == 1.0
        assert alpha2(d, 2.0, 1.0) == 0.0
        assert beta2(d, 0.0, 1.0) == 1.0
        assert beta2(d, 2.0, 1.0) == 2.0
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
    assert beta2(1, 1.0, 1.0) == pytest.approx(1.5, abs=1e-14)


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
    b = beta2(d, r, R)
    assert 1.0 - 1e-12 <= b <= 2.0 + 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 8, 50, 200, 300])
def test_alpha2_against_mpmath(d):
    # I_{1-x^2}((d+1)/2, 1/2) at 50 digits, with 1 - x^2 formed exactly
    a = mpmath.mpf(d + 1) / 2
    xs = np.concatenate([np.geomspace(1e-12, 0.99, 120), np.linspace(0.05, 0.99, 20)])
    with mpmath.workdps(50):
        for x in xs:
            ref = mpmath.betainc(a, 0.5, 0, 1 - mpmath.mpf(float(x)) ** 2, regularized=True)
            assert alpha2(d, 2.0 * x, 1.0) == pytest.approx(float(ref), rel=1e-12), x
    # each form runs only on its side of x^2 = 1/2; the result has the bits of
    # evaluating both forms on every point and picking one, and of scalar calls
    edge = math.sqrt(0.5) * (1.0 + np.array([-1e-3, -1e-9, -1e-15, 0.0, 1e-15, 1e-9, 1e-3]))
    r = 2.0 * np.concatenate([xs, edge, [1.0, 1.2]])
    y = np.clip(r / 2.0, 0.0, 1.0) ** 2
    assert np.any(y < 0.5) and np.any(y >= 0.5)
    af = 0.5 * (d + 1)
    both = np.where(y < 0.5, betaincc(0.5, af, y), betainc(af, 0.5, 1.0 - y))
    got = alpha2(d, r, 1.0)
    assert np.array_equal(got, both)
    assert [alpha2(d, float(v), 1.0) for v in r] == got.tolist()


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
    with pytest.raises(ValueError):
        alpha2(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        alpha2(3, 1.0, 0.0)
    with pytest.raises(ValueError):
        alpha2_series(3, 2.5, 1.0)
