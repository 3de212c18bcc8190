"""Terminal densities: closed forms, the gap-model search, classical bounds."""

import math
import sys

import numpy as np
import pytest

from conftest import REFERENCE_TABLE, TABLE_DIMS
from packbound.models import hyperuniform_Z, structure_factor_gap
from packbound.optimizer import (
    MAX_CLOSED_FORM_D,
    TerminalDensityRecord,
    classical_bounds,
    find_minima,
    gap_feasible_t,
    terminal_delta,
    terminal_gap,
    terminal_step,
)

# regression pins from this implementation, tighter than the 7-digit references
SIGMA_PINS = {
    3: 1.2469966708,
    8: 1.1379678403,
    24: 1.0589923493,
    200: 1.0085095231,
}

# full-precision (sigma*, phi*, Z*, k_min) at every tabulated d; a change to
# the search or the kernels must reproduce them to 1e-10 relative
FULL_PRECISION_PINS = {
    3: (1.2469966707850375, 0.5758254126839258, 7.932575518341107, 4.0159930266205945),
    4: (1.2125900064425152, 0.4252472735710529, 13.710162124393765, 4.6641204677323165),
    5: (1.1869280905744108, 0.30483227973073107, 21.97909780280775, 5.297073873486433),
    6: (1.1669995191511748, 0.21364447777154866, 33.537882553298374, 5.918227883609116),
    7: (1.1510459243999402, 0.1471059282678758, 49.40675088485216, 6.529901442201153),
    8: (1.1379678402658608, 0.09985085534879165, 70.88390557713292, 7.133762956663115),
    24: (1.0589923493012847, 8.245250969758534e-05, 5473.588950532181, 16.271158915237148),
    36: (1.0416101757355236, 2.5662999909336107e-07, 76519.00138995856, 22.838077967834778),
    56: (1.0280359653949969, 1.253255534720611e-11, 4248000.5460014, 33.56383601059235),
    60: (1.0263301855283686, 1.6741315874946277e-12, 9179423.656708311, 35.68828592497935),
    64: (1.0248226467977266, 2.2214145927075301e-13, 19681899.80433338, 37.80758180329978),
    80: (1.0202113255626986, 6.521679336628135e-17, 390814191.70682406, 46.242311068888675),
    100: (1.0164186588998703, 2.288485570206267e-21, 14784636311.555693, 56.71345389091811),
    125: (1.0133109421723647, 5.610270199668246e-27, 1246162801594.1665, 69.72364284677519),
    150: (1.0111991204433286, 1.2756628986159414e-32, 96769333899765.44, 82.6714611972676),
    175: (1.0096693511851107, 2.745831180425931e-38, 7083997589551747.0, 95.57313441891765),
    200: (1.0085095230955499, 5.667099393635463e-44, 4.9586181107405414e17, 108.43902393683985),
}


def test_step_closed_form():
    for d in range(1, 65):
        rec = terminal_step(d)
        assert rec.phi_star == 2.0**-d
        assert rec.Z_star == 0.0 and rec.sigma_star == 1.0 and rec.k_min == 0.0
        assert rec.ratio == pytest.approx(2.0 / (d + 2), rel=1e-13)


def test_delta_closed_form():
    for d in range(1, 65):
        rec = terminal_delta(d)
        assert rec.phi_star == (d + 2) / 2.0 ** (d + 1)
        assert rec.Z_star == 0.5 * d
        # the contact optimum is exactly the crossover where the ratio is 1
        assert rec.ratio == pytest.approx(1.0, abs=1e-13)
    assert terminal_delta(24).phi_star == 26 / 2.0**25


@pytest.mark.parametrize("d", TABLE_DIMS)
def test_gap_sigma_phi_match_reference(d, table_records):
    sig, _, phi, _ = REFERENCE_TABLE[d]
    rec = table_records[d]
    assert abs(rec.sigma_star - sig) / sig <= 1e-4
    assert abs(rec.phi_star - phi) / phi <= 1e-4


@pytest.mark.parametrize("d", TABLE_DIMS)
def test_gap_Z_reproduction_band(d, table_records):
    # Z = (2 sigma)^d phi - 1 amplifies a sigma offset by a factor of d, and
    # several reference rows sit a few parts in 1e4 off the constraint-curve
    # maximum (their phi at their sigma matches ours to 1e-6, but the sigma is
    # not the argmax). The strict 1e-4 comparison lives in the acceptance
    # suite; this band guards against regressions in the search itself.
    Z_ref = REFERENCE_TABLE[d][1]
    rec = table_records[d]
    assert abs(rec.Z_star - Z_ref) / Z_ref <= 2.5e-3


@pytest.mark.parametrize("d", TABLE_DIMS)
def test_ratio_matches_reference(d, table_records):
    ratio_ref = REFERENCE_TABLE[d][3]
    rec = table_records[d]
    assert abs(rec.ratio - ratio_ref) / ratio_ref <= 1e-4, (
        f"improvement column mismatch at d={d}: ours {rec.ratio:.7e} is "
        f"2^(d+1) phi/(d+2) of our phi_star (phi agrees with the reference row "
        f"to {abs(rec.phi_star - REFERENCE_TABLE[d][2]) / REFERENCE_TABLE[d][2]:.1e}), "
        f"but the quoted column value {ratio_ref:.7e} is not consistent with the "
        f"quoted phi_star in the same row"
    )


def test_ratio_identity(table_records):
    for d, rec in table_records.items():
        expect = math.exp(
            math.log(rec.phi_star) + (d + 1) * math.log(2.0) - math.log(d + 2.0)
        )
        assert rec.ratio == pytest.approx(expect, rel=1e-12)


def test_sigma_regression_pins(table_records):
    for d, sig in SIGMA_PINS.items():
        assert table_records[d].sigma_star == pytest.approx(sig, rel=1e-6)


@pytest.mark.parametrize("d", TABLE_DIMS)
def test_gap_optimum_full_precision_pins(d, table_records):
    rec = table_records[d]
    got = (rec.sigma_star, rec.phi_star, rec.Z_star, rec.k_min)
    for name, value, pin in zip(("sigma*", "phi*", "Z*", "k_min"), got, FULL_PRECISION_PINS[d]):
        assert value == pytest.approx(pin, rel=1e-10), f"{name} at d={d}"


def test_gap_search_requires_sign_change(monkeypatch):
    import packbound.optimizer as opt

    # d(log t)/d(sigma) one above d/sigma: the envelope derivative is positive everywhere
    monkeypatch.setattr(opt, "gap_feasible_t", lambda d, s: (1.0, 0.0, d / s + 1.0))
    with pytest.raises(RuntimeError, match="does not change sign"):
        opt.terminal_gap.__wrapped__(5)


@pytest.mark.parametrize("d", [2, 3, 100])
def test_gap_search_scans_each_step_edge_once(monkeypatch, d):
    import packbound.optimizer as opt

    real, seen = opt.gap_feasible_t, []

    def recorder(d, sigma):
        seen.append(sigma)
        return real(d, sigma)

    monkeypatch.setattr(opt, "gap_feasible_t", recorder)
    rec = opt.terminal_gap.__wrapped__(d)
    assert len(seen) == len(set(seen)) > 2
    assert rec.sigma_star in seen


def test_gap_tangency_requires_sign_change(monkeypatch):
    import packbound.optimizer as opt

    real = opt.bessel_lambda
    # the grid arrays stay real; scalar calls read 0, so N is 0 at every cell end
    monkeypatch.setattr(opt, "bessel_lambda", lambda mu, x: real(mu, x) if np.ndim(x) else 0.0)
    with pytest.raises(RuntimeError, match="tangency numerator does not change sign"):
        opt.gap_feasible_t(5, 1.2)


def test_sigma_free_kernels_read_only():
    from packbound.optimizer import _sigma_free_kernels

    for a in _sigma_free_kernels(5):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_d2_quoted_optimum():
    rec = terminal_gap(2)
    assert rec.sigma_star == pytest.approx(1.2946, rel=1e-4)
    assert rec.Z_star == pytest.approx(4.0148, rel=1e-4)
    assert rec.phi_star == pytest.approx(0.74803, rel=1e-4)


def test_d200_binding_wavenumber(table_records):
    assert abs(table_records[200].k_min - 108.4395) <= 1e-3


def test_d12_first_minimum_is_deepest():
    rec = terminal_gap(12)
    minima = find_minima(rec.d, rec.phi_star, rec.sigma_star, rec.Z_star)
    assert minima
    depths = [s for _, s in minima]
    assert depths[0] == min(depths)


def test_minima_refined_to_stationarity(table_records):
    rec = table_records[3]
    assert rec.k_min == pytest.approx(4.015993, abs=1e-5)
    h = 1e-6
    s = structure_factor_gap(3, rec.phi_star, rec.sigma_star, rec.Z_star,
                             np.array([rec.k_min - h, rec.k_min + h]))
    assert abs(s[1] - s[0]) / (2 * h) < 1e-5


def test_no_minima_for_ideal_gas():
    assert find_minima(3, 0.0, 1.0, 0.0) == []


@pytest.mark.parametrize("d", TABLE_DIMS)
def test_deepest_minimum_is_binding_tangency(d, table_records):
    # find_minima and gap_feasible_t scan one grid, so at the optimum the
    # deepest minimum of S is the tangency that binds t (d = 2, where two
    # tangencies bind, is not tabulated)
    rec = table_records[d]
    minima = find_minima(d, rec.phi_star, rec.sigma_star, rec.Z_star)
    k_deep = min(minima, key=lambda p: p[1])[0]
    _, k_bind, _ = gap_feasible_t(d, rec.sigma_star)
    assert abs(k_deep - k_bind) <= 1e-9


@pytest.mark.parametrize(
    "d, sigma, branch",
    [
        (3, 1.05, "cap"),
        (8, 1.01, "cap"),
        (24, 1.03, "cap"),
        (3, 1.2, "tangency"),
        (3, 1.3, "tangency"),
        (8, 1.15, "tangency"),
        (100, 1.01, "tangency"),
    ],
)
def test_envelope_derivative_central_difference(d, sigma, branch):
    def log_phi_part(s):
        # log phi(sigma) up to the constant -d log 2
        return math.log(gap_feasible_t(d, s)[0]) - d * math.log(s)

    assert (gap_feasible_t(d, sigma)[1] == 0.0) == (branch == "cap")
    h = 1e-6
    fd = (log_phi_part(sigma + h) - log_phi_part(sigma - h)) / (2.0 * h)
    g = gap_feasible_t(d, sigma)[2] - d / sigma
    assert abs(fd - g) <= 1e-5 * abs(g)


def test_structure_factor_nonnegative_on_grid(table_records):
    for d in (2, 3, 8, 24, 100):
        rec = table_records[d] if d in table_records else terminal_gap(d)
        kk = np.linspace(1e-9, rec.d / 2 + 40.0, 4000)
        s = structure_factor_gap(d, rec.phi_star, rec.sigma_star, rec.Z_star, kk)
        assert s.min() >= -1e-9


def test_gap_optima_hyperuniform(table_records):
    for d, rec in table_records.items():
        t = math.exp(d * math.log(2.0 * rec.sigma_star) + math.log(rec.phi_star))
        assert rec.Z_star + 1.0 == pytest.approx(t, rel=1e-12)
        # Z* is the hyperuniform weight of the record's phi* and sigma*, so
        # S(0) = 1 - t + Z cancels exactly at every d, not just to rounding
        assert rec.Z_star == hyperuniform_Z(d, rec.phi_star, rec.sigma_star)
        assert structure_factor_gap(d, rec.phi_star, rec.sigma_star, rec.Z_star, 0.0) == 0.0
        assert rec.min_S_residual <= 1e-7


def test_monotone_improvement(table_records):
    for d in (3, 4, 5, 8, 24, 64, 100, 200):
        gap = table_records[d].phi_star
        delta = terminal_delta(d).phi_star
        step = terminal_step(d).phi_star
        assert gap > delta > step


def test_below_blichfeldt(table_records):
    for d, rec in table_records.items():
        assert rec.phi_star <= classical_bounds(d).blichfeldt


def test_perturbation_certificate(table_records):
    for d in (3, 24, 200):
        rec = table_records[d]
        log_phi_star = math.log(rec.phi_star)
        for s in (rec.sigma_star - 0.002, rec.sigma_star + 0.002):
            if s < 1.0:
                continue
            t, _, _ = gap_feasible_t(d, s)
            log_phi = math.log(t) - d * math.log(2.0 * s)
            assert log_phi <= log_phi_star + 1e-12


def test_classical_values():
    b2 = classical_bounds(2)
    assert b2.minkowski == pytest.approx(math.pi**2 / 12.0, rel=1e-14)
    assert b2.rogers == pytest.approx(1.0 / math.e, rel=1e-14)
    assert b2.blichfeldt == pytest.approx(1.0, rel=1e-14)
    assert b2.kabatiansky_levenshtein == pytest.approx(2.0**-1.1980, rel=1e-14)
    assert classical_bounds(3).greedy == 0.125
    zeta3 = sum(1.0 / n**3 for n in range(1, 200000))
    assert classical_bounds(3).ball == pytest.approx(zeta3 / 2.0, rel=1e-9)


def test_densest_known_comparison(table_records):
    assert classical_bounds(56).densest_known == 2.327670e-11
    assert classical_bounds(3).densest_known is None
    # at d=60 the terminal density exceeds the best packing known there
    assert table_records[60].phi_star > classical_bounds(60).densest_known
    assert table_records[56].phi_star < classical_bounds(56).densest_known


def test_domain_errors():
    with pytest.raises(ValueError):
        terminal_gap(1)
    with pytest.raises(ValueError):
        terminal_gap(301)
    with pytest.raises(ValueError):
        terminal_step(0)
    with pytest.raises(ValueError):
        terminal_delta(-3)
    with pytest.raises(ValueError):
        classical_bounds(1)
    # the closed forms stop where 2^-d, the step optimum, is still a normal double
    d = MAX_CLOSED_FORM_D
    assert terminal_step(d).phi_star == classical_bounds(d).greedy == 2.0**-d >= sys.float_info.min
    assert terminal_delta(d).phi_star == (d + 2.0) / 2.0 ** (d + 1)
    for fn in (terminal_step, terminal_delta, classical_bounds):
        with pytest.raises(ValueError, match=f"dimension must be an integer in .* got {d + 1}"):
            fn(d + 1)


def test_record_validation():
    with pytest.raises(ValueError):
        TerminalDensityRecord(3, "gap", 1.2, 7.9, 1.5, 4.0, 1.8, 0.0)
    with pytest.raises(ValueError):
        TerminalDensityRecord(3, "gap", 1.2, 7.9, 0.5, 4.0, 1.8, 1e-6)
