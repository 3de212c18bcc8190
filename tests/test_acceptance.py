"""End-to-end acceptance gate: one test per headline reproduction target.

Each test asserts a quoted reference value at its stated tolerance. Failures
whose assertion message explains a documented discrepancy with the quoted
digits are expected and deliberate: the implementation reproduces its own
verified values and the mismatch analysis, never an adjusted constant.
"""

import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from packbound.asymptotics import (
    delta_nu_exact,
    phi_from_optimum,
    phi_star_asymptotic,
    solve_constants,
)
from packbound.geometry import alpha2
from packbound.matern import MaternConfig, simulate
from packbound.models import PackingDensity, RadialModel, structure_factor
from packbound.optimizer import terminal_delta, terminal_step
from packbound.specialfn import bessel_lambda, first_zero
from packbound.variance import yamada_check

from conftest import REFERENCE_TABLE, TABLE_DIMS
from oracle_routes import (
    alpha2_integral,
    alpha2_series,
    c_exact_triple,
    c_expansions,
    g2_matern_limit,
    saturation_time,
    structure_factor_numeric,
    zero_asymptotic,
)


def test_acceptance_terminal_table(table_records):
    """All tabulated gap optima: sigma*, Z*, phi* each within 1e-4 relative."""
    failures = []
    for d in TABLE_DIMS:
        sig_ref, z_ref, phi_ref, _ = REFERENCE_TABLE[d]
        rec = table_records[d]
        for name, ours, ref in (
            ("sigma_star", rec.sigma_star, sig_ref),
            ("Z_star", rec.Z_star, z_ref),
            ("phi_star", rec.phi_star, phi_ref),
        ):
            rel = abs(ours - ref) / abs(ref)
            if rel > 1e-4:
                failures.append(
                    f"{name} at d={d}: ours {ours:.10e} vs quoted {ref:.7e} (rel {rel:.1e})"
                )
    assert not failures, (
        "quoted-table mismatches beyond 1e-4 relative:\n  "
        + "\n  ".join(failures)
        + "\nsigma_star and phi_star agree everywhere; the quoted (sigma, phi) rows"
        " satisfy the same feasibility curve as ours to ~1e-6, so the quoted Z"
        " values correspond to near-optimal rather than optimal sigma, and the"
        " hyperuniformity relation Z = (2 sigma)^d phi - 1 amplifies a sigma"
        " offset by a factor of order d."
    )


def test_acceptance_closed_forms():
    """Step and delta terminal parameters exactly, d = 1..64."""
    for d in range(1, 65):
        s = terminal_step(d)
        assert s.phi_star == 2.0**-d
        assert s.Z_star == 0.0
        t = terminal_delta(d)
        assert t.phi_star == (d + 2.0) / 2.0 ** (d + 1)
        assert t.Z_star == d / 2.0


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_acceptance_oracle_equivalence(d):
    """Closed-form S(k) against the quadrature oracle, 200 points per model."""
    phi_t = 2.0**-d
    cases = [
        (RadialModel(kind="step", sigma=1.0, Z=0.0), PackingDensity(d, phi_t)),
        (
            RadialModel(kind="delta", sigma=1.0, Z=0.5 * d),
            PackingDensity(d, (d + 2.0) / 2.0 ** (d + 1)),
        ),
        (RadialModel(kind="gap", sigma=1.3, Z=2.0), PackingDensity(d, 0.25 * phi_t)),
    ]
    ks = np.linspace(0.01, 4.0 * max(0.5 * d, 1.0), 200)
    for model, dens in cases:
        closed = structure_factor(model, dens, ks)
        numeric = np.array([structure_factor_numeric(model, dens, k) for k in ks])
        worst = float(np.max(np.abs(closed - numeric)))
        assert worst <= 1e-6, f"{model.kind} at d={d}: max |closed - numeric| = {worst:.2e}"


def test_acceptance_high_dim_cross_checks(table_records):
    """Quoted d=200 quantities at the quoted evaluation point."""
    sigma_q, k_q = 1.008510, 108.4395
    failures = []

    k_min = table_records[200].k_min
    if abs(k_min - k_q) > 1e-3:
        failures.append(f"binding wavenumber {k_min:.7f} vs quoted {k_q} (tol 1e-3)")

    dn = delta_nu_exact(200, sigma_q, k_q)
    if abs(dn - 0.00559813885) > 1e-8:
        phi_ours = phi_from_optimum(200, sigma_q, k_q)
        failures.append(
            f"exact discriminant at the quoted point: ours {dn:.11f} vs quoted"
            f" 0.00559813885 (tol 1e-8); ours feeds the optimum identity to give"
            f" phi = {phi_ours:.9e}, matching the quoted terminal density"
            f" 5.667098e-44 to 2e-7, while the quoted discriminant digits would"
            f" shift that density by 5e-3 relative"
        )

    kpow = (k_q / 100.0) ** 100
    if abs(kpow - 3301.799093) > 0.01:
        failures.append(f"(k/nu)^nu = {kpow:.6f} vs quoted 3301.799093 (tol 0.01)")

    spow = sigma_q ** 200
    if abs(spow - 5.445550297) > 1e-5:
        failures.append(f"sigma^(2 nu) = {spow:.9f} vs quoted 5.445550297 (tol 1e-5)")

    assert not failures, "d=200 cross-check mismatches:\n  " + "\n  ".join(failures)


def test_acceptance_asymptotic_constants(table_records):
    """Expansion constants and the d=200 density prediction."""
    c = solve_constants()
    failures = []

    if abs(c.q1 - 0.90763589355) > 1e-10:
        failures.append(
            f"q1 = {c.q1:.13f} vs quoted 0.90763589355 (tol 1e-10, off by"
            f" {abs(c.q1 - 0.90763589355):.2e}); our root satisfies the defining"
            f" equation x e^x + e^(2x) - 5 e^x + 4 = 0 to 1e-15, so the quoted"
            f" 11th digit is rounded high"
        )
    if abs(c.q2 - (-1.279349474)) > 1e-8:
        failures.append(f"q2 = {c.q2:.10f} vs quoted -1.279349474 (tol 1e-8)")
    if abs(c.Q1 - (-0.3860921576)) > 1e-9:
        failures.append(
            f"Q1 = {c.Q1:.13f} vs quoted -0.3860921576 (tol 1e-9, off by"
            f" {abs(c.Q1 - (-0.3860921576)):.2e}); Q1 = 2(q1-1)/(e^q1 - 2) evaluated"
            f" at the verified q1 root, so the quoted value inherits the q1 rounding"
        )
    if abs(c.C1 - (-1.104938082)) > 1e-8:
        failures.append(f"C1 = {c.C1:.12f} vs quoted -1.104938082 (tol 1e-8)")
    if abs(c.C11 - (-1.123958144)) > 1e-8:
        failures.append(f"refined C1 = {c.C11:.12f} vs quoted -1.123958144 (tol 1e-8)")
    if abs(c.D1 - 0.1084878572) > 1e-8:
        failures.append(f"D1 = {c.D1:.12f} vs quoted 0.1084878572 (tol 1e-8)")

    phi_pred = phi_star_asymptotic(200)
    if abs(phi_pred / 5.626727001e-44 - 1.0) > 1e-8:
        failures.append(f"asymptotic phi(200) = {phi_pred:.10e} vs quoted 5.626727001e-44")
    phi_num = table_records[200].phi_star
    if abs(phi_pred / phi_num - 1.0) > 0.01:
        failures.append(
            f"asymptotic phi(200) = {phi_pred:.6e} vs numeric {phi_num:.6e} beyond 1%"
        )

    assert not failures, "asymptotic-constant mismatches:\n  " + "\n  ".join(failures)


def test_acceptance_bessel_zero_values():
    """First zeros near order 100 and their second-order expansion."""
    assert first_zero(100) == pytest.approx(108.8361659, abs=1e-6)
    assert first_zero(101) == pytest.approx(109.8640469, abs=1e-6)
    assert first_zero(99) == pytest.approx(107.8081033, abs=1e-6)
    assert zero_asymptotic(100, "x0") == pytest.approx(108.8362071, abs=1e-6)
    assert zero_asymptotic(100, "y0") == pytest.approx(109.8641774, abs=1e-6)
    assert zero_asymptotic(100, "z0") == pytest.approx(107.8082369, abs=1e-6)


def test_acceptance_expansion_coefficients():
    """Quadratic-coefficient expansions at nu = 100, expanded and exact routes."""
    base, lower, upper = c_expansions(100)
    assert base == pytest.approx(-0.04778125640, abs=1e-9)
    assert lower == pytest.approx(-0.04743934518, abs=1e-9)
    assert upper == pytest.approx(-0.04812316762, abs=1e-9)
    eb, el, eu = c_exact_triple(100)
    assert eb == pytest.approx(-0.04829366129, abs=1e-8)
    assert el == pytest.approx(-0.04799533693, abs=1e-8)
    assert eu == pytest.approx(-0.04859672878, abs=1e-8)


def test_acceptance_variance_realizability(table_records):
    """Yamada check: violated at the d=1 delta terminal point, clean for d >= 2."""
    delta1 = terminal_delta(1)
    chk = yamada_check(
        RadialModel(kind="delta", sigma=1.0, Z=delta1.Z_star),
        PackingDensity(1, delta1.phi_star),
        10.0,
    )
    assert len(chk.violations) > 0

    offenders = []
    for d in (2, 3, 4, 8, 16):
        rec = terminal_delta(d)
        chk = yamada_check(
            RadialModel(kind="delta", sigma=1.0, Z=rec.Z_star),
            PackingDensity(d, rec.phi_star),
            10.0,
        )
        if chk.violations:
            offenders.append(f"delta d={d}: {len(chk.violations)} violations")
    for d in TABLE_DIMS:
        rec = table_records[d]
        chk = yamada_check(
            RadialModel(kind="gap", sigma=rec.sigma_star, Z=rec.Z_star),
            PackingDensity(d, rec.phi_star),
            10.0,
        )
        if chk.violations:
            offenders.append(f"gap d={d}: {len(chk.violations)} violations")
    assert not offenders, "unexpected variance violations:\n  " + "\n  ".join(offenders)


def test_acceptance_simulator_ensemble():
    """Ghost-process ensemble vs analytics, and standard-RSA saturation."""
    from scipy.stats import chi2

    t0 = time.monotonic()
    T = saturation_time(1, deficit=1e-4)
    phis = []
    edges = np.linspace(0.999, 3.0, 51)
    pooled_C = np.zeros(50)
    pooled_E = np.zeros(50)
    for seed in range(1, 21):
        res = simulate(MaternConfig(d=1, L=200.0, T=T, kappa=1, seed=seed))
        phis.append(res.phi_hat)
        pooled_C += res.pair_counts
        pooled_E += res.pair_norm * res.g2_analytic
    mean_phi = float(np.mean(phis))
    assert abs(mean_phi - 0.5) <= 0.005, f"ensemble mean density {mean_phi:.5f} off 1/2 by >1%"

    keep = (edges[:-1] >= 1.0) & (pooled_E > 5.0)
    x2 = float(((pooled_C[keep] - pooled_E[keep]) ** 2 / pooled_E[keep]).sum())
    dof = int(keep.sum())
    threshold = float(chi2.ppf(0.95, dof))
    assert x2 < threshold, f"pair-histogram chi2 {x2:.1f} over {dof} bins exceeds {threshold:.1f}"

    res0 = simulate(MaternConfig(d=1, L=5000.0, T=500.0, kappa=0, seed=1))
    assert abs(res0.phi_hat - 0.7476) <= 0.01, f"RSA saturation {res0.phi_hat:.4f} vs 0.7476"

    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0, f"simulator criterion took {elapsed:.0f}s, budget 120s"


def test_acceptance_property_suites(table_records):
    """Named invariants spot-checked end to end."""
    # scaled intersection volume decreases in separation
    rr = np.linspace(0.0, 2.0, 41)
    vals = [alpha2(3, r, 1.0) for r in rr]
    assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))

    # series and integral routes agree
    assert_allclose(alpha2_series(5, 0.7, 1.0), alpha2_integral(5, 0.7, 1.0), rtol=1e-11)

    # hyperuniformity at gap optima: S(0) = 0 numerically at moderate d,
    # amplitude identity (2 sigma)^d phi = Z + 1 at all d
    for d in (3, 24):
        rec = table_records[d]
        model = RadialModel(kind="gap", sigma=rec.sigma_star, Z=rec.Z_star)
        S0 = float(structure_factor(model, PackingDensity(d, rec.phi_star), 0.0))
        assert abs(S0) <= 1e-9
    for d in TABLE_DIMS:
        rec = table_records[d]
        amp = math.exp(d * math.log(2.0 * rec.sigma_star) + math.log(rec.phi_star))
        assert_allclose(amp, rec.Z_star + 1.0, rtol=1e-11)

    # derivative identity for the normalized Bessel kernel
    mu, x, h = 2.5, 3.7, 1e-6
    num = (bessel_lambda(mu, x + h) - bessel_lambda(mu, x - h)) / (2.0 * h)
    ana = -x * bessel_lambda(mu + 1.0, x) / (2.0 * (mu + 1.0))
    assert_allclose(num, ana, rtol=1e-8)

    # simulated configurations are valid packings (also enforced on construction)
    res = simulate(MaternConfig(d=2, L=15.0, T=20.0, kappa=1, seed=3))
    from scipy.spatial import cKDTree

    tree = cKDTree(res.accepted_centers, boxsize=15.0)
    dmin, _ = tree.query(res.accepted_centers, k=2)
    assert float(dmin[:, 1].min()) >= 1.0 - 1e-12
    # saturated contact value in one dimension
    assert_allclose(g2_matern_limit(1, 1.0), 4.0 / 3.0, rtol=1e-12)
