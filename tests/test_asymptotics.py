"""Expansion constants and large-d predictions against their quoted values."""

import math

import pytest

from packbound.asymptotics import (
    beta_ratio_asymptotic,
    beta_ratio_exact,
    build_report,
    delta_nu_exact,
    delta_nu_terms,
    kissing_asymptotic,
    kmin_asymptotic,
    kmin_linearized,
    phi_from_optimum,
    phi_star_asymptotic,
    sigma_star_asymptotic,
    solve_constants,
)
from packbound.optimizer import terminal_gap

from oracle_routes import c_exact_triple, c_expansions


def test_constants_cached_and_frozen():
    c = solve_constants()
    assert c is solve_constants()
    with pytest.raises(Exception):
        c.q1 = 0.0


def test_q1_root():
    c = solve_constants()
    resid = c.q1 * math.exp(c.q1) + math.exp(2 * c.q1) - 5 * math.exp(c.q1) + 4
    assert abs(resid) <= 1e-12
    assert 0.5 < c.q1 < 1.5
    assert c.q1 == pytest.approx(0.9076358932628538, rel=1e-12)


def test_q2_and_Q1():
    c = solve_constants()
    assert c.q2 == pytest.approx(-1.279349474, abs=1e-8)
    assert c.Q1 == 2 * (c.q1 - 1) / (math.exp(c.q1) - 2)
    assert c.Q1 == pytest.approx(-0.38609215998173774, rel=1e-12)


def test_C_constants():
    c = solve_constants()
    assert c.C1 == pytest.approx(-1.104938082, abs=1e-8)
    assert c.C2 == pytest.approx(1.627074727, abs=1e-8)
    assert c.C11 == pytest.approx(-1.123958144, abs=1e-8)
    # the refined estimate differs from the dominant one in the third
    # significant figure
    assert 0.01 < abs(c.C11 - c.C1) < 0.03


def test_D_constants():
    c = solve_constants()
    e1 = math.exp(c.q1)
    assert c.D1 == pytest.approx(0.1084878572, abs=1e-8)
    assert c.D1 == pytest.approx(c.C11 * (2 - e1) / (2 * e1), rel=1e-14)
    assert c.D2 == pytest.approx(0.3360848198, abs=1e-8)


def test_E_identities():
    c = solve_constants()
    assert c.E1 == c.a2 - c.a1**2 / 2
    assert c.E2 == -c.Q1 * c.a1 + (c.a1**4 - 4 * c.a1**2 * c.a2 + 4 * c.a2**2) / 8
    assert c.E1 == pytest.approx(-0.6887672071, abs=1e-9)


def test_exponents():
    c = solve_constants()
    log2e = math.log2(math.e)
    assert c.phi_exponent == pytest.approx((3 - log2e) / 2, abs=1e-15)
    assert c.kiss_exponent == pytest.approx((log2e - 1) / 2, abs=1e-15)
    assert c.phi_exponent + c.kiss_exponent == pytest.approx(1.0, abs=1e-15)
    assert c.phi_exponent == pytest.approx(0.7786524795, abs=1e-10)
    assert c.kiss_exponent == pytest.approx(0.2213475205, abs=1e-10)


def test_sigma_star_expansion():
    assert sigma_star_asymptotic(200) == pytest.approx(1.008482538, abs=2e-9)
    assert abs(sigma_star_asymptotic(200) - 1.008510) < 3e-5
    assert sigma_star_asymptotic(1e9) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        sigma_star_asymptotic(10)


def test_kmin_expansion_and_linearized():
    assert kmin_asymptotic(200) == pytest.approx(108.4501542, rel=1e-8)
    assert abs(kmin_asymptotic(200) - 108.4395) < 2e-2
    # reproduction of the quoted evaluation with its external inputs
    k = kmin_linearized(200, 108.8361659, 109.8640469, 1.008510, 1.003189733)
    assert k == pytest.approx(108.4368917, abs=1e-5)
    # in-house variant stays in the same neighborhood
    assert kmin_asymptotic(200, "linearized") == pytest.approx(108.44, abs=0.05)
    with pytest.raises(ValueError):
        kmin_asymptotic(200, "quadratic")


def test_beta_ratio():
    assert beta_ratio_asymptotic(200) == pytest.approx(1.007122331, abs=1e-8)
    # matches one of the two mutually inconsistent quoted comparison values;
    # the other (1.003189733) appears only as a linearization input
    assert beta_ratio_exact(200) == pytest.approx(1.006215695, abs=1e-8)
    assert beta_ratio_asymptotic(4000) == pytest.approx(1.0, abs=1e-3)


def test_c_expansions_triple():
    a13, a14, a15 = c_expansions(100)
    assert a13 == pytest.approx(-0.04778125640, abs=1e-9)
    assert a14 == pytest.approx(-0.04743934518, abs=1e-9)
    assert a15 == pytest.approx(-0.04812316762, abs=1e-9)
    with pytest.raises(ValueError):
        c_expansions(19)


def test_c_exact_triple():
    b1, b2, b3 = c_exact_triple(100)
    assert b1 == pytest.approx(-0.04829366129, abs=1e-8)
    assert b2 == pytest.approx(-0.04799533693, abs=1e-8)
    assert b3 == pytest.approx(-0.04859672879, abs=1e-8)


def test_delta_nu_term_predictions():
    delta, kpow, sigpow = delta_nu_terms(200)
    assert delta == pytest.approx(0.00567441932, abs=1e-9)
    assert kpow == pytest.approx(3353.018128, rel=1e-8)
    assert sigpow == pytest.approx(5.405924156, rel=1e-8)


def test_exact_evaluations_at_quoted_point():
    # direct evaluation at the quoted (sigma, k); the value reproduces the
    # tabulated phi* through the optimum relation to a few parts in 1e7
    assert delta_nu_exact(200, 1.008510, 108.4395) == pytest.approx(
        0.005627891273, rel=1e-9
    )
    phi = phi_from_optimum(200, 1.008510, 108.4395)
    assert phi == pytest.approx(5.667098e-44, rel=5e-7)
    assert (108.4395 / 100.0) ** 100.0 == pytest.approx(3301.799093, abs=0.01)
    assert 1.008510**200.0 == pytest.approx(5.445550297, abs=1e-5)


def test_phi_from_optimum_rejects_nonpositive_tangency():
    with pytest.raises(ValueError):
        phi_from_optimum(2, 1.0, 5.520078)


def test_phi_star_full_and_dominant():
    c = solve_constants()
    assert phi_star_asymptotic(200, "full") == pytest.approx(5.626727001e-44, rel=1e-8)
    coef = 1.0 / (2.0 ** (2.0 / 3.0) * c.D1 * math.sqrt(math.pi))
    assert coef == pytest.approx(3.276100896, rel=1e-8)
    dom = phi_star_asymptotic(200, "dominant")
    assert dom == pytest.approx(coef * 200 ** (1.0 / 6.0) * 2.0 ** (-c.phi_exponent * 200),
                                rel=1e-12)
    with pytest.raises(ValueError):
        phi_star_asymptotic(200, "exact")


def test_phi_star_vs_numeric(table_records):
    full = phi_star_asymptotic(200, "full")
    assert abs(full / table_records[200].phi_star - 1.0) < 0.01
    errs = [
        abs(phi_star_asymptotic(d, "full") / table_records[d].phi_star - 1.0)
        for d in (80, 100, 125, 150, 175, 200)
    ]
    assert errs[-1] < 0.05
    assert all(b < a * 1.02 for a, b in zip(errs, errs[1:])), errs


@pytest.mark.parametrize("d", [301, 720, 834, 1000])
def test_phi_star_full_vs_numeric_past_300(d):
    # the full expansion tracks the direct optimum up to the last supported d
    # (4.1e-3 at d = 301, 1.8e-3 at d = 1000)
    assert abs(phi_star_asymptotic(d, "full") / terminal_gap(d).phi_star - 1.0) < 5e-3


def test_kissing_bound():
    c = solve_constants()
    coef = 2.0 ** (1.0 / 3.0) * math.exp(2 * c.q1) / (c.D1 * math.sqrt(math.pi))
    assert coef == pytest.approx(40.24850787, rel=1e-8)
    # the compact form drops a 2^(o(d)) factor; magnitude comparisons against
    # the numeric optimum go through the full route
    z_full = kissing_asymptotic(200, "full")
    assert abs(math.log10(z_full / 4.959086e17)) < 0.5
    assert kissing_asymptotic(200, "compact") < z_full


def test_sigma_convergence_invariant(table_records):
    c = solve_constants()
    for d in (100, 150, 200, 300):
        rec = table_records[d] if d in table_records else terminal_gap(d)
        nu = 0.5 * d
        gap = abs(sigma_star_asymptotic(d) - rec.sigma_star) * nu
        assert gap <= 2 * abs(c.q2) / nu ** (2.0 / 3.0) + 0.01


def test_build_report():
    rep = build_report(200)
    assert rep["d"] == 200
    assert rep["constants"]["q1"] == solve_constants().q1
    assert "quoted_reference" in rep
    assert rep["numeric"]["phi_rel_err"] < 0.01
    # the optimum identity at the numeric (sigma*, k_min) gives back phi*
    num = rep["numeric"]
    assert num["delta_nu_exact"] == delta_nu_exact(200, num["sigma_star"], num["k_min"])
    assert num["delta_nu_exact"] > 0.0
    assert num["phi_from_optimum"] == pytest.approx(num["phi_star"], rel=1e-12)
    # and at the asymptotic sigma* with the linearized k_min, the quoted prediction
    pred = rep["predictions"]
    assert pred["phi_star_from_linearized_kmin"] == phi_from_optimum(
        200, pred["sigma_star"], pred["kmin_linearized"]
    )
    assert pred["phi_star_from_linearized_kmin"] == pytest.approx(
        rep["quoted_reference"]["phi_star_from_linearized_kmin"], rel=1e-5
    )
    rep100 = build_report(100, include_numeric=False)
    assert "numeric" not in rep100 and "quoted_reference" not in rep100
    assert rep100["predictions"]["phi_star_from_linearized_kmin"] > 0.0
    with pytest.raises(ValueError):
        build_report(12)
