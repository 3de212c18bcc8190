import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from packbound.geometry import alpha2
from packbound.models import PackingDensity, RadialModel
from packbound.optimizer import terminal_delta, terminal_gap
from packbound.variance import (
    VarianceCheck,
    fractional_count_bound,
    number_variance,
    yamada_check,
)


def _gap_model(d):
    rec = terminal_gap(d)
    return RadialModel(kind="gap", sigma=rec.sigma_star, Z=rec.Z_star), PackingDensity(d, rec.phi_star)


def _delta_model(d):
    rec = terminal_delta(d)
    return RadialModel(kind="delta", sigma=1.0, Z=rec.Z_star), PackingDensity(d, rec.phi_star)


STEP = RadialModel(kind="step", sigma=1.0, Z=0.0)


def _x_one_minus_x(d, phi, R):
    """x(1-x), x = 2^d phi R^d: the variance for 2R <= sigma with no contact term (2R <= 1)."""
    x = (2.0 * R) ** d * phi
    return x * (1.0 - x)


def _quad_variance(model, density, R):
    """Oracle: sigma^2(R) with I(R) by adaptive quadrature.

    I(R) = int_0^m d r^(d-1) alpha2(r; R) dr, m = min(sigma, 2R), taken as
    m^d times an integral over s = r/m in [0, 1]. (Integrating over u = r^d
    instead loses the peak of the integrand near u = 0 at d >= 100 and
    2R just above sigma: quad reports roundoff and misses by 7 decades.)
    """
    d, phi, sigma = density.d, density.phi, model.sigma
    log_count = d * math.log(2.0 * R) + math.log(phi)
    if 2.0 * R <= sigma:
        bracket = -math.expm1(log_count)
    else:
        m = min(sigma, 2.0 * R)
        integral, err = quad(
            lambda s: d * s ** (d - 1) * alpha2(d, m * s, R),
            0.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=200,
        )
        assert err <= 1e-8 * integral, f"oracle quadrature error {err:.2e} at d={d}, R={R}"
        log_integral = d * math.log(m) + math.log(integral)
        bracket = -math.expm1(d * math.log(2.0) + math.log(phi) + log_integral)
    bracket += model.Z * alpha2(d, 1.0, R)
    return math.exp(log_count) * bracket


def _odd_variance_terms(model, density, R):
    """Oracle at odd d in rational arithmetic: (sigma^2, sum of |bracket terms| * count).

    With m = (d-1)/2, alpha2(x) = c int_x^1 (1-t^2)^m dt is a polynomial and
    c = 1 / int_0^1 (1-t^2)^m dt, so J(X) = int_0^X d x^(d-1) alpha2(x) dx is
    exact term by term.
    """
    d = density.d
    m = (d - 1) // 2
    coef = [Fraction(math.comb(m, j) * (-1) ** j, 2 * j + 1) for j in range(m + 1)]
    c = 1 / sum(coef)

    def alpha2_exact(x):
        if x >= 1:
            return Fraction(0)
        return c * sum(a * (1 - x ** (2 * j + 1)) for j, a in enumerate(coef))

    R, phi, Z = Fraction(R), Fraction(density.phi), Fraction(model.Z)
    X = min(Fraction(model.sigma), 2 * R) / (2 * R)
    J = c * sum(
        a * (X**d - Fraction(d, d + 2 * j + 1) * X ** (d + 2 * j + 1)) for j, a in enumerate(coef)
    )
    count = phi * (2 * R) ** d
    integral_term = 2**d * phi * (2 * R) ** d * J
    contact = Z * alpha2_exact(1 / (2 * R))
    terms = count * (1 + integral_term + contact)
    return float(count * (1 - integral_term + contact)), float(terms)


def _oracle_cases(d):
    """Step and delta at their terminal points, and one fixed gap model."""
    sigma = 1.0 + 1.0 / d
    delta = RadialModel(kind="delta", sigma=1.0, Z=d / 2.0)
    gap = RadialModel(kind="gap", sigma=sigma, Z=0.5)
    return [
        (STEP, PackingDensity(d, 2.0**-d)),
        (delta, PackingDensity(d, (d + 2.0) / 2.0 ** (d + 1))),
        (gap, PackingDensity(d, 0.5 * (2.0 * sigma) ** -d)),
    ]


def _oracle_radii(sigma):
    # 2R < sigma, 2R = sigma, 2R just above sigma, X = 1/2 -+ 1e-12 (the
    # seam between the series and the incomplete-beta forms), and R = 10
    return [
        0.4 * sigma,
        0.5 * sigma,
        0.5 * sigma * (1.0 + 1e-9),
        sigma / (1.0 - 2e-12),
        sigma / (1.0 + 2e-12),
        10.0,
    ]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 24, 100, 200, 300])
def test_number_variance_closed_form_matches_oracles(d):
    for model, dens in _oracle_cases(d):
        radii = _oracle_radii(model.sigma)
        got = number_variance(model, dens, np.array(radii))
        for R, s2 in zip(radii, got):
            oracle = _quad_variance(model, dens, R)
            assert_allclose(s2, oracle, rtol=1e-9, err_msg=f"{model.kind} d={d} R={R}")
            if d % 2:
                exact, terms = _odd_variance_terms(model, dens, R)
                assert abs(s2 - exact) <= 1e-12 * terms, f"{model.kind} d={d} R={R}: {s2} vs {exact}"
            # the array route is the scalar route, element by element
            assert number_variance(model, dens, R) == s2
        if d % 2:
            # far windows take alpha2 at a small r/2R; the bracket cancels to
            # ~1/R of its terms, so sigma^2 itself is held to the exact value
            for R in (1e4, 1e5):
                s2 = number_variance(model, dens, R)
                exact, _ = _odd_variance_terms(model, dens, R)
                assert s2 == pytest.approx(exact, rel=1e-8), f"{model.kind} d={d} R={R}"


def test_number_variance_scalar_and_array_inputs():
    dens = PackingDensity(3, 0.125)
    assert type(number_variance(STEP, dens, 2.0)) is float
    assert type(number_variance(STEP, dens, np.float64(0.3))) is float
    assert type(number_variance(STEP, PackingDensity(3, 0.0), 2.0)) is float
    assert number_variance(STEP, dens, np.array([0.3, 2.0])).shape == (2,)
    for bad in ([0.5, 0.0, 2.0], [1.0, -2.0], [1.0, math.nan], [1.0, math.inf]):
        with pytest.raises(ValueError):
            number_variance(STEP, dens, np.array(bad))
    with pytest.raises(ValueError):
        number_variance(STEP, dens, math.inf)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=8),
    phi=st.floats(min_value=1e-6, max_value=1.0),
    frac=st.floats(min_value=1e-3, max_value=1.0),
)
def test_exact_small_window_identity(d, phi, frac):
    # window diameter below the core: variance is x(1-x) with no quadrature
    R = 0.5 * frac
    x = (2.0 * R) ** d * phi
    # near x = 1 the reference itself loses digits to cancellation in (1 - x),
    # so keep the comparison where both routes are well conditioned
    assume(x <= 0.99)
    got = number_variance(STEP, PackingDensity(d, phi), R)
    assert_allclose(got, x * (1.0 - x), rtol=1e-12, atol=1e-300)


def test_exact_branch_near_saturation():
    # expm1 keeps the bracket accurate where 1 - exp(log x) would cancel
    phi, frac, d = 0.99999, 0.99999, 4
    R = 0.5 * frac
    log_x = d * math.log(2.0 * R) + math.log(phi)
    want = math.exp(log_x) * -math.expm1(log_x)
    got = number_variance(STEP, PackingDensity(d, phi), R)
    assert_allclose(got, want, rtol=1e-15)


def test_exact_branch_continuity():
    model, dens = _gap_model(3)
    half = model.sigma / 2.0
    below = number_variance(model, dens, half * (1.0 - 1e-7))
    above = number_variance(model, dens, half * (1.0 + 1e-7))
    assert_allclose(below, above, rtol=1e-5)


def test_delta_d1_terminal_variance_is_constant():
    model, dens = _delta_model(1)
    for R in (0.7, 1.3, 5.9, 23.0):
        assert_allclose(number_variance(model, dens, R), 0.1875, rtol=1e-10)


def test_step_surface_scaling_floor():
    # the half-occupancy step model grows like the window surface
    for d in (1, 2, 3):
        dens = PackingDensity(d, 2.0**-d)
        R = 10.0
        ratio = number_variance(STEP, dens, R) / R ** (d - 1)
        assert ratio >= d / (2.0 * (d + 1)) - 1e-12


def test_zero_density_gives_zero_variance():
    assert number_variance(STEP, PackingDensity(3, 0.0), 2.0) == 0.0
    wide = RadialModel(kind="gap", sigma=4.0, Z=0.0)
    assert _x_one_minus_x(3, 0.0, 2.0) == 0.0
    assert number_variance(wide, PackingDensity(3, 0.0), 2.0) == _x_one_minus_x(3, 0.0, 2.0)


def test_lower_bound_examples():
    # peak value 1/4 at half occupancy, zero at full occupancy; with the step
    # edge at 2 every window here has 2R <= sigma, where the variance is x(1-x)
    wide = RadialModel(kind="gap", sigma=2.0, Z=0.0)
    d, phi = 3, 0.125
    R_half = 0.5 * (0.5 / phi) ** (1.0 / d)
    assert_allclose(_x_one_minus_x(d, phi, R_half), 0.25, rtol=1e-12)
    assert_allclose(number_variance(wide, PackingDensity(d, phi), R_half), 0.25, rtol=1e-12)
    assert abs(_x_one_minus_x(d, phi, 1.0)) < 1e-14
    assert abs(number_variance(wide, PackingDensity(d, phi), 1.0)) < 1e-14
    assert_allclose(_x_one_minus_x(2, 0.1, 1.0), 0.4 * 0.6, rtol=1e-12)
    assert_allclose(number_variance(wide, PackingDensity(2, 0.1), 1.0), 0.4 * 0.6, rtol=1e-12)


def test_variance_respects_lower_bound():
    cases = [
        (STEP, PackingDensity(3, 0.1)),
        (RadialModel(kind="delta", sigma=1.0, Z=1.5), PackingDensity(2, 0.4)),
        (RadialModel(kind="gap", sigma=1.2, Z=5.0), PackingDensity(4, 0.2)),
    ]
    for model, dens in cases:
        for R in (0.3, 0.5, 0.75, 1.1):
            x = (2.0 * R) ** dens.d * dens.phi
            if x > 1.0:
                continue
            s2 = number_variance(model, dens, R)
            lb = _x_one_minus_x(dens.d, dens.phi, R)
            assert s2 >= lb - 1e-10
            if 2.0 * R <= 1.0:
                # inside the core and short of the contact shell: exactly x(1-x)
                assert_allclose(s2, lb, rtol=1e-12)


def test_yamada_d1_delta_terminal_violates():
    model, dens = _delta_model(1)
    chk = yamada_check(model, dens, 10.0)
    assert len(chk.violations) > 0
    assert all(r > chk.R0 for r in chk.violations)
    # every flagged window has bound above the flat 3/16 variance
    vio = set(chk.violations)
    for r, b in zip(chk.R, chk.yamada_bound):
        if float(r) in vio:
            assert b > 0.1875


def _mp_delta_terms(d, phi, Z, R):
    """(sigma^2, dropped term 2^d phi (2R)^d J(X)) of a delta model, X = 1/(2R), by mpmath."""
    with mpmath.workdps(30):
        a = mpmath.mpf(d + 1) / 2
        X = 1 / (2 * mpmath.mpf(R))

        def alpha2(x):
            return mpmath.betainc(a, 0.5, 0, 1 - x * x, regularized=True)

        # J = X^d int_0^1 d s^(d-1) alpha2(X s) ds, the weight sits within ~1/d of s = 1
        J = X**d * mpmath.quad(lambda s: d * s ** (d - 1) * alpha2(X * s), [0, 1 - 20.0 / d, 1])
        count = mpmath.mpf(phi) * (2 * mpmath.mpf(R)) ** d
        dropped = 2**d * mpmath.mpf(phi) * (2 * mpmath.mpf(R)) ** d * J
        return float(count * (1 - dropped + Z * alpha2(X))), dropped


@pytest.mark.parametrize("d", [887, 900, 1000])
def test_delta_underflowed_integral_rows_match_mpmath(d):
    # J(X) underflows to 0 on the rows R0 < R <= 1 from d = 887 on; the
    # integral term is then dropped without a divide-by-zero warning, and
    # mpmath puts it below 1e-50 of the bracket
    model, dens = _delta_model(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chk = yamada_check(model, dens, 10.0)
    R = np.asarray(chk.R)
    rows = np.flatnonzero(R <= 1.0)
    assert rows.size > 400
    for i in rows[[0, rows.size // 2, -1]]:
        s2, dropped = _mp_delta_terms(d, dens.phi, model.Z, float(R[i]))
        assert dropped < 1e-50
        assert chk.sigma2[i] == pytest.approx(s2, rel=1e-12), f"d={d} R={R[i]}"


def test_yamada_d2_delta_terminal_clean():
    model, dens = _delta_model(2)
    assert yamada_check(model, dens, 10.0).violations == []


def test_yamada_step_d3_clean():
    chk = yamada_check(STEP, PackingDensity(3, 0.125), 10.0)
    assert chk.violations == []
    assert_allclose(chk.R0, 1.0, rtol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 8, 24])
def test_yamada_gap_optimum_clean(d):
    model, dens = _gap_model(d)
    assert yamada_check(model, dens, 10.0, n_grid=500).violations == []


def test_gap_optimum_variance_grows_like_surface():
    for d in (2, 3):
        model, dens = _gap_model(d)
        ratios = [number_variance(model, dens, R) / R ** (d - 1) for R in np.linspace(2.0, 10.0, 9)]
        assert min(ratios) > 0.0
        assert max(ratios) / min(ratios) < 2.0
        # sub-volume growth: the hyperuniform optimum beats Poisson scaling
        assert number_variance(model, dens, 10.0) / 10.0**d < number_variance(model, dens, 2.0) / 2.0**d


def test_fractional_count_bound():
    assert fractional_count_bound(2.5) == 0.25
    assert_allclose(fractional_count_bound(7.25), 0.1875, rtol=1e-15)
    assert fractional_count_bound(6.0) == 0.0
    # beyond float integer resolution the worst case is reported
    assert fractional_count_bound(2.0**60) == 0.25
    assert fractional_count_bound(math.inf) == 0.25
    with pytest.raises(ValueError):
        fractional_count_bound(-1.0)


def test_grid_contains_half_count_radii():
    model, dens = _delta_model(1)
    chk = yamada_check(model, dens, 10.0)
    assert np.all(np.diff(chk.R) > 0)
    assert chk.R[0] > chk.R0
    assert chk.R[-1] <= 10.0 + 1e-12
    # expected count 1.5 at R = 1.0 for phi = 3/4 in one dimension
    assert np.any(np.abs(chk.R - 1.0) < 1e-12)


def test_domain_errors():
    with pytest.raises(ValueError):
        number_variance(STEP, PackingDensity(3, 0.1), 0.0)
    with pytest.raises(ValueError):
        number_variance(RadialModel(kind="gap", sigma=2.0, Z=0.0), PackingDensity(3, 0.1), -1.0)
    with pytest.raises(ValueError):
        yamada_check(STEP, PackingDensity(3, 0.125), 0.5)  # R_max below R0 = 1
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            yamada_check(STEP, PackingDensity(3, 0.125), bad)
    with pytest.raises(ValueError):
        yamada_check(STEP, PackingDensity(3, 0.125), 10.0, n_grid=1)


def test_check_record_validation():
    r = np.array([1.0, 2.0])
    good = np.array([0.1, 0.2])
    with pytest.raises(ValueError):
        VarianceCheck(R=r, sigma2=good, yamada_bound=np.array([0.3, 0.1]), R0=0.5)
    with pytest.raises(ValueError):
        VarianceCheck(R=r, sigma2=np.array([-1.0, 0.2]), yamada_bound=good, R0=0.5)
    with pytest.raises(ValueError):
        VarianceCheck(R=r, sigma2=good, yamada_bound=good, R0=1.5, violations=[1.0])
