import math

import numpy as np
import pytest

from packbound.geometry import sphere_surface
from packbound.models import (
    PackingDensity,
    RadialModel,
    hyperuniform_Z,
    make_curve,
    structure_factor,
    structure_factor_gap,
)

from oracle_routes import (
    center_density,
    g2_eval,
    maclaurin_coefficients,
    structure_factor_numeric,
)

# a few reference gap optima (sigma*, Z*, phi*) used as fixed parameters here;
# the optimizer tests recompute them from scratch
GAP_D3 = (1.246997, 7.932582, 0.5758254)
GAP_D5 = (1.186929, 21.97918, 0.3048322)


def test_model_validation():
    with pytest.raises(ValueError):
        RadialModel("step", sigma=1.2)
    with pytest.raises(ValueError):
        RadialModel("delta", sigma=1.2, Z=1.0)
    with pytest.raises(ValueError):
        RadialModel("gap", sigma=0.9)
    with pytest.raises(ValueError):
        RadialModel("gap", sigma=1.2, Z=-1.0)
    with pytest.raises(ValueError):
        RadialModel("widget")
    for kind, sigma, Z, name in (
        ("gap", math.nan, 1.0, "sigma"),
        ("gap", math.inf, 1.0, "sigma"),
        ("gap", 1.2, math.nan, "Z"),
        ("gap", 1.2, math.inf, "Z"),
        ("delta", 1.0, math.nan, "Z"),
        ("delta", 1.0, math.inf, "Z"),
        ("step", math.nan, 0.0, "sigma"),
    ):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RadialModel(kind, sigma=sigma, Z=Z)
    with pytest.raises(ValueError):
        PackingDensity(3, 1.5)
    with pytest.raises(ValueError):
        PackingDensity(0, 0.5)


def test_rho_relation_exact():
    from packbound.geometry import sphere_volume

    for d, phi in [(1, 0.75), (3, 0.3), (8, 1e-2), (64, 2.2e-13)]:
        dens = PackingDensity(d, phi)
        assert center_density(dens) == pytest.approx(phi / sphere_volume(d, 0.5), rel=1e-14)


def test_g2_eval_cases():
    # hard core
    assert g2_eval(RadialModel("step"), PackingDensity(3, 0.1), 0.5) == (0.0, 0.0)
    # contact weight for the delta model
    dens = PackingDensity(3, 5.0 / 16.0)
    cont, w = g2_eval(RadialModel("delta", 1.0, 1.5), dens, 1.5)
    assert cont == 1.0
    assert w == pytest.approx(1.5 / (sphere_surface(3, 1.0) * center_density(dens)), rel=1e-14)
    # inside the gap the continuous part vanishes but the delta stays
    cont, w = g2_eval(RadialModel("gap", 1.2, 2.0), PackingDensity(2, 0.3), 1.1)
    assert cont == 0.0 and w > 0.0


def test_step_closed_form_d1():
    # S(k) = 1 - 2 phi sin(k)/k in one dimension
    for phi in (0.1, 0.5):
        for k in (0.05, 1.0, 6.0, 31.4):
            want = 1.0 - 2.0 * phi * math.sin(k) / k
            assert structure_factor_gap(1, phi, 1.0, 0.0, k) == pytest.approx(want, abs=1e-13)
    # terminal density: the k=0 limit closes to 0
    assert structure_factor_gap(1, 0.5, 1.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_step_ideal_gas():
    k = np.linspace(0.0, 40.0, 101)
    assert np.all(structure_factor_gap(4, 0.0, 1.0, 0.0, k) == 1.0)


def test_delta_crossover_and_terminal():
    # crossover contact weight flips the k=0 value to 1 - 2^(d+1) phi/(d+2)
    for d, phi in [(2, 0.2), (3, 0.2), (6, 0.05)]:
        Z = 2**d * phi * d / (d + 2.0)
        assert structure_factor_gap(d, phi, 1.0, Z, 0.0) == pytest.approx(
            1.0 - 2.0 ** (d + 1) * phi / (d + 2.0), rel=1e-12
        )
    # terminal parameters: S(0) = 0
    assert structure_factor_gap(3, 5.0 / 16.0, 1.0, 1.5, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_gap_terminal_s0():
    sigma, Z, phi = GAP_D3
    # quoted-precision parameters: S(0) closes to 0 at their rounding level
    assert abs(structure_factor_gap(3, phi, sigma, Z, 0.0)) < 1e-5
    # exact hyperuniform contact weight: S(0) = 0 to machine precision
    Zh = hyperuniform_Z(3, phi, sigma)
    assert structure_factor_gap(3, phi, sigma, Zh, 0.0) == pytest.approx(0.0, abs=1e-13)


def test_min_S_nonnegative_at_terminal():
    # condition (iii) on the default grid for all three models at terminal
    cases = [
        (RadialModel("step"), PackingDensity(3, 2.0**-3)),
        (RadialModel("step"), PackingDensity(8, 0.5 * 2.0**-8)),
        (RadialModel("delta", 1.0, 3.0 / 2.0), PackingDensity(3, 5.0 / 16.0)),
        (RadialModel("delta", 1.0, 4.0), PackingDensity(8, 10.0 / 2.0**9)),
    ]
    for sigma, _, phi in (GAP_D3, GAP_D5):
        d = 3 if sigma == GAP_D3[0] else 5
        Z = hyperuniform_Z(d, 0.999 * phi, sigma)
        cases.append((RadialModel("gap", sigma, Z), PackingDensity(d, 0.999 * phi)))
    for model, dens in cases:
        if model.kind == "gap" and dens.d == 3:
            # make_curve's fixed 0.05 tail tolerance fires on this correct curve,
            # whose contact term decays only like k^-(d-1)/2 (a FOUND in CHANGES.md)
            with pytest.warns(RuntimeWarning, match="tail has not settled"):
                _, S = make_curve(model, dens, n=1024)
        else:
            _, S = make_curve(model, dens, n=1024)
        assert S.min() >= -1e-9, (model.kind, dens.d, S.min())


def _richardson_c2(f, s0, h):
    def r1(hh):
        return (4.0 * (f(hh / 2.0) - s0) / (hh / 2.0) ** 2 - (f(hh) - s0) / hh**2) / 3.0

    return (16.0 * r1(h / 2.0) - r1(h)) / 15.0


@pytest.mark.parametrize(
    "model,dens",
    [
        (RadialModel("step"), PackingDensity(3, 0.05)),
        (RadialModel("delta", 1.0, 1.2), PackingDensity(4, 0.04)),
        (RadialModel("gap", 1.186929, 21.97918), PackingDensity(5, 0.3048322)),
        (RadialModel("gap", 1.246997, 7.932582), PackingDensity(3, 0.5758254)),
    ],
)
def test_maclaurin_quadratic_via_richardson(model, dens):
    s0, c2 = maclaurin_coefficients(model, dens)
    f = lambda k: structure_factor(model, dens, k)
    assert f(0.0) == pytest.approx(s0, rel=1e-12, abs=1e-12)
    got = _richardson_c2(f, s0, 0.08)
    assert got == pytest.approx(c2, rel=1e-8, abs=1e-10)


def test_gap_hyperuniform_quadratic_growth():
    # |S(k)| <= C k^2 near 0 once Z closes S(0)
    d, (sigma, _, phi) = 5, GAP_D5
    Z = hyperuniform_Z(d, phi, sigma)
    _, c2 = maclaurin_coefficients(RadialModel("gap", sigma, Z), PackingDensity(d, phi))
    for k in (1e-1, 1e-2, 1e-3):
        S = structure_factor_gap(d, phi, sigma, Z, k)
        assert abs(S) <= 1.5 * abs(c2) * k**2 + 1e-14


@pytest.mark.parametrize("d", [1, 2, 8])
def test_numeric_oracle_spot(d):
    nu = 0.5 * d
    phi_t = 2.0**-d
    cases = [
        (RadialModel("step"), PackingDensity(d, phi_t)),
        (RadialModel("delta", 1.0, 0.5 * d), PackingDensity(d, (d + 2.0) / 2.0 ** (d + 1))),
        (RadialModel("gap", 1.3, 2.0), PackingDensity(d, 0.25 * phi_t)),
    ]
    ks = np.linspace(0.01, 4.0 * max(nu, 1.0), 40)
    for model, dens in cases:
        closed = structure_factor(model, dens, ks)
        numeric = np.array([structure_factor_numeric(model, dens, k) for k in ks])
        assert np.max(np.abs(closed - numeric)) < 1e-6


def test_numeric_oracle_pinned_examples():
    got = structure_factor_numeric(RadialModel("step"), PackingDensity(3, 0.1), 5.0)
    assert got == pytest.approx(structure_factor_gap(3, 0.1, 1.0, 0.0, 5.0), abs=1e-6)
    dens = PackingDensity(2, 0.5)
    assert structure_factor_numeric(RadialModel("delta", 1.0, 1.0), dens, 0.01) == pytest.approx(
        structure_factor_gap(2, 0.5, 1.0, 1.0, 0.01), abs=1e-6
    )
    sigma, Z, phi = GAP_D5
    k_min = 5.297074  # deepest minimum of the d=5 optimum, located by the optimizer suite
    got = structure_factor_numeric(RadialModel("gap", sigma, Z), PackingDensity(5, phi), k_min)
    assert got == pytest.approx(0.0, abs=1e-5)


def test_curve_refinement_and_tail():
    # at d=3 the contact term still rings at ~Z k^(-d/2) ~ 0.1 at the default
    # grid end, so the settled-tail check must warn rather than hold
    sigma, Z, phi = GAP_D3
    with pytest.warns(RuntimeWarning):
        k, S = make_curve(RadialModel("gap", sigma, Z), PackingDensity(3, phi))
    # the grid starts at k = 0, so S[0] is the k -> 0 limit
    assert k[0] == 0.0
    assert S[0] == pytest.approx(structure_factor_gap(3, phi, sigma, Z, 0.0), rel=1e-14)
    # refinement adds points beyond the base grid
    assert k.size > 2048

    # by d=8 the same default grid does settle within 0.05
    k8, S8 = make_curve(RadialModel("gap", 1.137967, 70.88348), PackingDensity(8, 0.09985085))
    tail = S8[k8 > 0.9 * k8.max()]
    assert np.all(np.abs(tail - 1.0) < 0.05)
