import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial import cKDTree
from scipy.stats import chi2

import packbound.matern as mt
from packbound.geometry import alpha2, beta2
from packbound.matern import (
    MAX_ARRIVALS,
    MAX_BINS,
    MaternConfig,
    _ghost_accept,
    _rsa_accept,
    arrivals,
    g2_matern,
    phi_of_t,
    simulate,
)
from packbound.specialfn import sphere_volume
from oracle_routes import (
    g2_matern_limit,
    ghost_survivors_brute,
    rsa_kept_brute,
    saturation_time,
)


def test_phi_of_t():
    assert phi_of_t(2, 0.0) == 0.0
    assert_allclose(phi_of_t(3, 1e6), 0.125, rtol=1e-15)
    # quadratic truncation error at small t
    v = math.pi
    t = 1e-4
    assert abs(phi_of_t(2, t) - (v * t / 4.0 - v**2 * t**2 / 8.0)) < v**3 * t**3
    with pytest.raises(ValueError):
        phi_of_t(2, -1.0)


def test_saturation_time():
    t = saturation_time(1)
    assert_allclose(phi_of_t(1, t), 0.5 * (1.0 - 1e-4), rtol=1e-12)
    with pytest.raises(ValueError):
        saturation_time(2, deficit=0.0)


def test_g2_finite_time():
    assert g2_matern(2, 0.5, 3.0) == 0.0
    assert g2_matern(3, 2.0, 0.7) == 1.0
    assert g2_matern(3, 2.8, 123.0) == 1.0
    # long-time value approaches the saturated curve
    assert_allclose(g2_matern(2, 1.5, 1e5), g2_matern_limit(2, 1.5), rtol=1e-12)
    assert_allclose(g2_matern(1, 1.0, 1e7), 4.0 / 3.0, rtol=1e-10)
    # low coverage looks ideal-gas beyond contact
    assert_allclose(g2_matern(2, 1.3, 1e-4), 1.0, atol=1e-3)
    with pytest.raises(ValueError):
        g2_matern(2, 1.5, 0.0)


@pytest.mark.parametrize("T", [1e-300, 1e-12, 1e-8, 1e-4, 1.0])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("r", [1.0, 1.5, 1.99])
def test_g2_small_time_against_mpmath(T, d, r):
    # the direct form cancels to eps/(vT) and underflows at T = 1e-300
    b = mpmath.mpf(beta2(d, r, 1.0))
    with mpmath.workdps(450):
        x = mpmath.mpf(sphere_volume(d, 1.0)) * mpmath.mpf(T)
        e1 = mpmath.expm1(-x)
        ref = 2 * (mpmath.expm1(-b * x) - b * e1) / (b * (b - 1) * e1 * e1)
        assert abs(g2_matern(d, r, T) - ref) <= 1e-9 * ref


def test_g2_limit():
    assert_allclose(g2_matern_limit(1, 1.0), 4.0 / 3.0, rtol=1e-15)
    assert g2_matern_limit(4, 2.0) == 1.0
    assert g2_matern_limit(3, 0.2) == 0.0
    expected = 2.0 / (2.0 - alpha2(5, 1.2, 1.0))
    assert_allclose(g2_matern_limit(5, 1.2), expected, rtol=1e-14)


def test_config_validation():
    good = dict(d=2, L=30.0, T=5.0, kappa=1, seed=3, bins=50)
    MaternConfig(**good)
    MaternConfig(**dict(good, bins=MAX_BINS))
    for bad in (
        dict(good, d=4),
        dict(good, L=2.0),
        dict(good, T=0.0),
        dict(good, kappa=2),
        dict(good, bins=10),
        dict(good, bins=MAX_BINS + 1),
        dict(good, seed=-1),
        dict(good, L=math.nan),
        dict(good, L=math.inf),
        dict(good, T=math.nan),
        dict(good, T=math.inf),
    ):
        with pytest.raises(ValueError):
            MaternConfig(**bad)


def test_simulated_configuration_is_packing():
    res = simulate(MaternConfig(d=2, L=20.0, T=30.0, kappa=1, seed=42))
    acc = res.accepted_centers
    assert len(acc) > 10
    tree = cKDTree(acc, boxsize=20.0)
    dmin, _ = tree.query(acc, k=2)
    assert float(dmin[:, 1].min()) >= 1.0 - 1e-12
    assert res.phi_hat <= 1.0
    assert res.ghost_count == len(arrivals(42, 2, 20.0, 30.0)[0]) - len(acc)


@pytest.mark.parametrize(
    "centers, valid",
    [
        # d = 1: overlap across the periodic wrap, just inside contact, exact contact
        ([[0.2], [9.7]], False),
        ([[2.0], [3.0 - 2e-12]], False),
        ([[2.0], [3.0]], True),
        # d = 2: the same three, the last one across the wrap
        ([[0.2, 5.0], [9.9, 5.3]], False),
        ([[4.0, 1.0], [4.0, 2.0 - 2e-12]], False),
        ([[0.5, 3.0], [9.5, 3.0]], True),
    ],
    ids=["d1-wrap", "d1-inside", "d1-contact", "d2-wrap", "d2-inside", "d2-contact-wrap"],
)
def test_pair_histogram_checks_packing(centers, valid):
    acc = np.array(centers)
    if valid:
        counts, _ = mt._pair_histogram(acc, 10.0, 50)
        assert counts.sum() == 1
    else:
        with pytest.raises(ValueError, match="not a valid packing"):
            mt._pair_histogram(acc, 10.0, 50)


def test_simulate_rejects_overlapping_acceptance(monkeypatch):
    # a rule that keeps every arrival is caught by the packing check
    monkeypatch.setattr(mt, "_ghost_accept", lambda pos, times, L: np.ones(len(pos), dtype=bool))
    with pytest.raises(ValueError, match="not a valid packing"):
        simulate(MaternConfig(d=2, L=10.0, T=1.0, kappa=1, seed=0))


def test_ghost_acceptance_order_independent():
    pos, times = arrivals(9, 2, 25.0, 8.0)
    acc = pos[_ghost_accept(pos, times, 25.0)]
    rng = np.random.default_rng(123)
    perm = rng.permutation(len(pos))
    acc_shuf = pos[perm][_ghost_accept(pos[perm], times[perm], 25.0)]
    a = set(map(tuple, np.round(acc, 10)))
    b = set(map(tuple, np.round(acc_shuf, 10)))
    assert a == b


def test_coupled_runs_are_monotone_in_T():
    sets = []
    phis = []
    for T in (1.0, 3.0, 9.0):
        res = simulate(MaternConfig(d=1, L=80.0, T=T, kappa=1, seed=17))
        sets.append(set(map(tuple, np.round(res.accepted_centers, 10))))
        phis.append(res.phi_hat)
    assert sets[0] <= sets[1] <= sets[2]
    assert phis[0] <= phis[1] <= phis[2]


def test_ghost_accepted_is_subset_of_rsa():
    # with identical arrivals, anything the ghost rule keeps survives RSA too
    pos, times = arrivals(11, 1, 100.0, 5.0)
    ghost = pos[_ghost_accept(pos, times, 100.0)]
    rsa = _rsa_accept(pos, times, 100.0)
    gs = set(map(tuple, np.round(ghost, 10)))
    rs = set(map(tuple, np.round(rsa, 10)))
    assert gs <= rs
    assert len(rs) > len(gs)


def test_density_estimate_within_three_se():
    res = simulate(MaternConfig(d=2, L=40.0, T=50.0, kappa=1, seed=7))
    n = len(res.accepted_centers)
    se = res.phi_hat / math.sqrt(n)
    assert abs(res.phi_hat - res.phi_analytic) <= 3.0 * se


def test_tail_histogram_consistent_with_ideal_gas():
    # pool a few seeds so per-bin expected pair counts clear 5
    C = None
    E = None
    for seed in range(1, 7):
        res = simulate(MaternConfig(d=1, L=200.0, T=saturation_time(1), kappa=1, seed=seed))
        mask = res.bin_centers >= 2.0
        c = res.pair_counts[mask].astype(float)
        e = res.pair_norm[mask]
        C = c if C is None else C + c
        E = e if E is None else E + e
    keep = E > 5.0
    x2 = float(((C[keep] - E[keep]) ** 2 / E[keep]).sum())
    dof = int(keep.sum())
    assert dof > 10
    assert x2 < chi2.ppf(0.95, dof)


def test_rsa_mode_reports_nan_analytics():
    res = simulate(MaternConfig(d=1, L=50.0, T=20.0, kappa=0, seed=4))
    assert math.isnan(res.phi_analytic)
    assert np.all(np.isnan(res.g2_analytic))
    assert res.phi_hat > 0.5  # beats the ghost saturation


def test_simulation_deterministic():
    cfg = MaternConfig(d=2, L=15.0, T=10.0, kappa=1, seed=99)
    a = simulate(cfg)
    b = simulate(cfg)
    assert np.array_equal(a.accepted_centers, b.accepted_centers)
    assert np.array_equal(a.pair_counts, b.pair_counts)


def test_decorrelation_profile():
    # contact excess g2(1+; infinity) - 1 against d decays like (3/4)^(d/2)
    excess = {d: g2_matern_limit(d, 1.0) - 1.0 for d in range(1, 61)}
    assert excess[1] == pytest.approx(1.0 / 3.0, rel=1e-12)
    for d in range(50, 59, 2):
        ratio = excess[d + 2] / excess[d]
        assert abs(ratio - 0.75) < 0.075
    vals = list(excess.values())
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        g2_matern_limit(3, -0.1)


def test_arrival_count_capped_before_allocation(monkeypatch):
    def never(*args):
        raise AssertionError("arrivals drawn")

    monkeypatch.setattr(mt, "arrivals", never)
    for d, L, T in ((1, 5000.0, 3356.0), (2, 4097.0, 1.0), (3, 1e300, 1.0), (3, 6.0, 1e300)):
        with pytest.raises(ValueError, match=f"L\\^d\\*T must be at most {MAX_ARRIVALS}"):
            MaternConfig(d=d, L=L, T=T)
    MaternConfig(d=1, L=5000.0, T=3355.0)
    MaternConfig(d=2, L=4096.0, T=0.999)


def _shuffled_arrivals(seed, d, L, T):
    pos, times = arrivals(seed, d, L, T)
    perm = np.random.default_rng(seed).permutation(len(pos))
    return pos[perm], times[perm]


@pytest.mark.parametrize("slab_points", [mt._GHOST_SLAB_POINTS, 40])
@pytest.mark.parametrize("d,T", [(1, 20.0), (2, 6.0), (3, 1.5)])
@pytest.mark.parametrize("L", [6.0, 7.3, 9.0])
def test_ghost_matches_brute_force(monkeypatch, slab_points, d, T, L):
    # 40 points per slab cuts the box into many slabs, thinner than the halo
    monkeypatch.setattr(mt, "_GHOST_SLAB_POINTS", slab_points)
    for seed in (1, 2):
        pos, times = _shuffled_arrivals(seed, d, L, T)
        assert np.array_equal(_ghost_accept(pos, times, L), ghost_survivors_brute(pos, times, L))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ghost_pairs_across_slab_seam_and_wrap(d):
    L = 9.0
    w = L / 2  # two slabs for fewer than 2^17 points
    x0 = [w - 0.3, w + 0.3, 0.2, L - 0.3, 2.0]
    rest = [[1.0, 1.0], [1.2, 1.1], [5.0, 5.0], [5.1, 4.9], [7.0, 3.0]]
    pos = np.array([[x] + r[: d - 1] for x, r in zip(x0, rest)])
    times = np.array([0.5, 0.3, 0.1, 0.2, 0.4])
    expected = np.array([False, True, True, False, True])
    assert np.array_equal(ghost_survivors_brute(pos, times, L), expected)
    assert np.array_equal(_ghost_accept(pos, times, L), expected)
    perm = np.array([3, 0, 4, 2, 1])
    assert np.array_equal(_ghost_accept(pos[perm], times[perm], L), expected[perm])


def test_equal_times_reject_the_higher_index():
    pos = np.array([[1.0, 1.0], [1.5, 1.2], [4.0, 4.0]])
    times = np.array([0.3, 0.3, 0.1])
    expected = np.array([True, False, True])
    for p in (pos, pos[[1, 0, 2]]):
        assert np.array_equal(ghost_survivors_brute(p, times, 8.0), expected)
        assert np.array_equal(_ghost_accept(p, times, 8.0), expected)
        assert np.array_equal(_rsa_accept(p, times, 8.0), p[[2, 0]])
        assert np.array_equal(rsa_kept_brute(p, times, 8.0), p[[2, 0]])


@pytest.mark.parametrize("batch", [mt._RSA_BATCH, 7])
@pytest.mark.parametrize("d,L,T", [(1, 7.3, 30.0), (1, 40.0, 10.0), (2, 9.0, 8.0), (3, 6.5, 4.0)])
def test_rsa_matches_brute_force(monkeypatch, batch, d, L, T):
    # a batch of 7 runs the tree screen against the kept bed many times
    monkeypatch.setattr(mt, "_RSA_BATCH", batch)
    for seed in (3, 4):
        pos, times = _shuffled_arrivals(seed, d, L, T)
        assert np.array_equal(_rsa_accept(pos, times, L), rsa_kept_brute(pos, times, L))


def test_rsa_pairs_across_cell_seams_and_wrap():
    # L = 7.3, not a whole number: pairs across x = 6 and 7 and across the box
    # wrap (0.1 and 7.2), first alone and then with a second coordinate
    L = 7.3
    x = [0.1, 7.2, 3.9, 4.2, 5.8, 6.5, 5.1, 6.05, 2.5]
    times = np.arange(len(x), dtype=float)
    pos = np.array([[v] for v in x])
    expected = pos[[0, 2, 4, 8]]
    assert np.array_equal(rsa_kept_brute(pos, times, L), expected)
    assert np.array_equal(_rsa_accept(pos, times, L), expected)
    pos2 = np.array([[v, 3.0 + 0.1 * k] for k, v in enumerate(x)])
    assert np.array_equal(_rsa_accept(pos2, times, L), rsa_kept_brute(pos2, times, L))


@pytest.mark.parametrize("batch", [mt._RSA_BATCH, 1, 2])
def test_exact_contact_blocks_at_every_batch_size(monkeypatch, batch):
    # 2.0 touches 1.0 exactly: contact counts as overlap, however the
    # arrivals are split into batches
    monkeypatch.setattr(mt, "_RSA_BATCH", batch)
    pos = np.array([[1.0], [2.0], [4.5]])
    times = np.array([0.1, 0.2, 0.3])
    assert np.array_equal(_rsa_accept(pos, times, 10.0), pos[[0, 2]])
    assert np.array_equal(_ghost_accept(pos, times, 10.0), [True, False, True])


@st.composite
def _contact_configurations(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    L = draw(st.sampled_from([6.0, 7.3, 9.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = rng.random((draw(st.integers(1, 40)), d)) * L
    # some points sit 1.0 along an axis from another (exactly, unless wrapped)
    extra = []
    for k in draw(st.lists(st.integers(0, len(pos) - 1), max_size=10)):
        p = pos[k].copy()
        axis = draw(st.integers(0, d - 1))
        p[axis] = (p[axis] + 1.0) % L
        extra.append(p)
    pos = np.concatenate([pos, np.reshape(extra, (-1, d))])
    # few distinct times give equal-time ties
    times = rng.integers(0, draw(st.sampled_from([3, 1000])), len(pos)).astype(float)
    return pos, times, L


@settings(max_examples=200, deadline=None)
@given(_contact_configurations(), st.sampled_from([1, 2, 7, mt._RSA_BATCH]))
def test_accept_rules_match_brute_force_near_contact(config, batch):
    pos, times, L = config
    old = mt._RSA_BATCH
    mt._RSA_BATCH = batch
    try:
        assert np.array_equal(_rsa_accept(pos, times, L), rsa_kept_brute(pos, times, L))
    finally:
        mt._RSA_BATCH = old
    assert np.array_equal(_ghost_accept(pos, times, L), ghost_survivors_brute(pos, times, L))
