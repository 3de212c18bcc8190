import dataclasses
import math
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial import cKDTree
from scipy.stats import chi2

import packbound.matern as mt
from packbound.geometry import alpha2, sphere_volume
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
    b = 2 - mpmath.mpf(alpha2(d, r, 1.0))
    with mpmath.workdps(450):
        x = mpmath.mpf(sphere_volume(d, 1.0)) * mpmath.mpf(T)
        e1 = mpmath.expm1(-x)
        ref = 2 * (mpmath.expm1(-b * x) - b * e1) / (b * (b - 1) * e1 * e1)
        assert abs(g2_matern(d, r, T) - ref) <= 1e-9 * ref


def test_g2_array_matches_scalar():
    # an ndarray r gives the scalar values bit for bit, exact 0 and 1 included,
    # on both sides of the small-time switch and with no warning inside contact
    r = np.concatenate([np.linspace(0.0, 3.0, 61), [0.999, 1.0 - 1e-15, 2.0 - 1e-15]])
    for d in (1, 2, 3):
        for T in (1e-9, 1e-3, 1.0, 100.0):
            got = g2_matern(d, r, T)
            assert got.tolist() == [g2_matern(d, float(v), T) for v in r]
            assert np.all(got[r < 1.0] == 0.0) and np.all(got[r >= 2.0] == 1.0)


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
        with pytest.raises(RuntimeError, match="not a valid packing"):
            mt._pair_histogram(acc, 10.0, 50)


def test_simulate_rejects_overlapping_acceptance(monkeypatch):
    # a rule that keeps every arrival is caught by the packing check
    monkeypatch.setattr(mt, "_ghost_accept", lambda pos, L: np.ones(len(pos), dtype=bool))
    with pytest.raises(RuntimeError, match="not a valid packing"):
        simulate(MaternConfig(d=2, L=10.0, T=1.0, kappa=1, seed=0))


def test_result_rejects_density_above_one():
    res = simulate(MaternConfig(d=1, L=10.0, T=1.0, kappa=1, seed=0))
    with pytest.raises(RuntimeError, match="density estimate 1.5 exceeds 1"):
        dataclasses.replace(res, phi_hat=1.5)


@pytest.mark.parametrize("kappa", [0, 1])
@pytest.mark.parametrize("d,L,T", [(1, 9.0, 20.0), (2, 7.3, 6.0), (3, 6.0, 1.5)])
def test_arrivals_come_in_time_order(d, L, T, kappa):
    # both rules rank the arrivals by row, so the run agrees with the
    # all-pairs rules, which rank them by the returned times, only if the
    # rows come in time order
    pos, times = arrivals(5, d, L, T)
    assert np.all(np.diff(times) >= 0.0)
    acc = simulate(MaternConfig(d=d, L=L, T=T, kappa=kappa, seed=5)).accepted_centers
    expected = rsa_kept_brute(pos, times, L) if kappa == 0 else pos[ghost_survivors_brute(pos, times, L)]
    assert np.array_equal(acc, expected)


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
    pos = arrivals(11, 1, 100.0, 5.0)[0]
    ghost = pos[_ghost_accept(pos, 100.0)]
    rsa = _rsa_accept(pos, 100.0)
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


def _ranked(pos, times):
    """The rows of pos in rank order: by time, and by index on equal times."""
    return pos[np.argsort(times, kind="stable")]


def _ghost_mask(pos, times, L):
    """_ghost_accept on the rows in rank order, as a mask over the rows as given."""
    order = np.argsort(times, kind="stable")
    mask = np.empty(len(pos), dtype=bool)
    mask[order] = _ghost_accept(pos[order], L)
    return mask


def _assert_ghost_matches_brute_force(d, T, L):
    for seed in (1, 2):
        pos, times = _shuffled_arrivals(seed, d, L, T)
        assert np.array_equal(_ghost_mask(pos, times, L), ghost_survivors_brute(pos, times, L))


@pytest.mark.parametrize("slab_points", [2**17, 40])
@pytest.mark.parametrize("d,T", [(1, 20.0), (2, 6.0), (3, 1.5)])
@pytest.mark.parametrize("L", [6.0, 7.3, 9.0])
def test_ghost_matches_brute_force(monkeypatch, slab_points, d, T, L):
    # these runs hold fewer than 2^17 arrivals, so 2^17 points per band sweeps
    # the box as one band; 40 cuts it into many bands, thinner than the halo
    monkeypatch.setattr(mt, "_GHOST_SLAB_POINTS", slab_points)
    _assert_ghost_matches_brute_force(d, T, L)


def _seam_and_wrap_case(d):
    """Two pairs along axis 0, one across x = L/2 and one across the wrap."""
    L = 9.0
    x0 = [L / 2 - 0.3, L / 2 + 0.3, 0.2, L - 0.3, 2.0]
    rest = [[1.0, 1.0], [1.2, 1.1], [5.0, 5.0], [5.1, 4.9], [7.0, 3.0]]
    pos = np.array([[x] + r[: d - 1] for x, r in zip(x0, rest)])
    times = np.array([0.5, 0.3, 0.1, 0.2, 0.4])
    expected = np.array([False, True, True, False, True])
    return pos, times, expected, L


def _assert_ghost_case(pos, times, expected, L):
    assert np.array_equal(ghost_survivors_brute(pos, times, L), expected)
    assert np.array_equal(_ghost_mask(pos, times, L), expected)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ghost_pairs_across_slab_seam_and_wrap(monkeypatch, d):
    # one point per band gives five bands, two or three give three or two,
    # with a band seam at L/2 in the last case
    for slab_points in (mt._GHOST_SLAB_POINTS, 3, 2, 1):
        monkeypatch.setattr(mt, "_GHOST_SLAB_POINTS", slab_points)
        _assert_ghost_case(*_seam_and_wrap_case(d))


def test_band_of_the_last_column_on_the_largest_grid():
    # near MAX_ARRIVALS arrivals at d = 1 the sweep has 2^9 bands over up to
    # 2^23 cell columns, so column * bands passes 2^31
    m, bands = 2**23, 2**9
    L = 2.0 * m
    grouped, starts = mt._by_band((np.arange(m - 4, m) + 0.5) * (L / m), L, m, bands)
    assert grouped.tolist() == [0, 1, 2, 3]
    assert starts.tolist() == [0] * bands + [4]


_CELL_BOXES = [6.0, 6.5, 7.3, 8.9, 9.0, 12.0]


def _on_cell_edges(d, L, seed):
    """Shuffled arrivals of about 2.5 L^d points, so the unit-reach cell grid has
    m = floor(L / (1 + 1e-9)) cells per axis, with one point at the origin and
    m - 1 more with every coordinate exactly on a cell edge k L / m."""
    m = math.floor(L / (1.0 + 1e-9))
    pos, times = _shuffled_arrivals(seed, d, L, 2.5)
    edges = np.arange(m) * (L / m)
    rng = np.random.default_rng(seed)
    extra = np.stack([rng.permutation(edges) for _ in range(d)], axis=1)
    extra[0] = 0.0
    pos = np.concatenate([pos, extra])
    times = np.concatenate([times, rng.random(m)])
    perm = rng.permutation(len(pos))
    return pos[perm], times[perm], m


@pytest.mark.parametrize("L", _CELL_BOXES)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_accept_rules_match_brute_force_on_cell_edges(monkeypatch, d, L):
    pos, times, m = _on_cell_edges(d, L, seed=5)
    assert len(pos) >= 2 * m**d  # the cell grid is not capped by the count
    expected = ghost_survivors_brute(pos, times, L)
    # bands are runs of whole cell columns, so m points lie on band edges too:
    # one band; two and three, which read every arrival; four, which read
    # their neighbour bands; and one column per band. Band 0's halo wraps
    for bands in (1, 2, 3, 4, m):
        monkeypatch.setattr(mt, "_GHOST_SLAB_POINTS", 1 if bands == m else -(-len(pos) // bands))
        assert min(m, -(-len(pos) // mt._GHOST_SLAB_POINTS)) == bands
        assert np.array_equal(_ghost_mask(pos, times, L), expected)
    assert np.array_equal(_rsa_accept(_ranked(pos, times), L), rsa_kept_brute(pos, times, L))


def _exact_contact_pairs(d, L):
    """Pairs at minimum-image distance 1 along each axis: across the seam of
    the unit-reach cells 1 and 2, from the origin, and across the box wrap.

    The coordinates are multiples of 1/8, so the distances are exactly 1 where
    L is too; at L = 7.3 and 8.9 the wrap pairs sit within rounding of it.
    """
    m = math.floor(L / (1.0 + 1e-9))
    below_seam = (math.ceil(16 * L / m) - 1) / 8
    pairs = []
    for axis in range(d):
        for a, b in ((below_seam, below_seam + 1.0), (0.0, 1.0), (0.0, L - 1.0), (0.25, L - 0.75)):
            pair = np.full((2, d), L / 2)
            pair[:, axis] = a, b
            pairs.append(pair)
    return pairs


@pytest.mark.parametrize("L", _CELL_BOXES)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_exact_contact_across_cell_seam_and_wrap(d, L):
    # each pair arrives second and third, after a point L/2 away from its
    # first member, and before the background arrivals: so its later member
    # survives either rule iff the pair alone lets it, and standard RSA
    # settles the pair within its batch of two
    background, bg_times = _shuffled_arrivals(7, d, L, 4.0)
    # enough points that the cell grid is the unit-reach one, not capped
    assert len(background) >= 2 * math.floor(L / (1.0 + 1e-9)) ** d
    rng = np.random.default_rng(7)
    for pair in _exact_contact_pairs(d, L):
        alone = ghost_survivors_brute(pair, np.array([0.0, 0.5]), L)
        if L in (6.0, 6.5, 9.0, 12.0):
            assert alone.tolist() == [True, False]
        axis = np.flatnonzero(pair[0] != pair[1])[0]
        far = pair[:1].copy()
        far[0, axis] = (far[0, axis] + L / 2) % L
        pos = np.concatenate([far, pair, background])
        times = np.concatenate([[0.0, 0.25, 0.5], bg_times + 1.0])
        perm = rng.permutation(len(pos))
        at = np.argsort(perm)[1:3]
        ghost = _ghost_mask(pos[perm], times[perm], L)
        assert ghost[at].tolist() == alone.tolist()
        rsa = _rsa_accept(_ranked(pos[perm], times[perm]), L)
        kept = [bool(np.all(rsa == p, axis=1).any()) for p in pos[:3]]
        assert kept == [True, *alone.tolist()]


@pytest.mark.parametrize("slab_points", [1, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_ghost_pairs_across_piece_seam_and_wrap(monkeypatch, d, slab_points):
    # the slab case with axis 0 and the last axis swapped: its pairs cross the
    # last axis at L/2 and across its wrap, whichever pieces (bands) the sweep
    # cuts along axis 0: one band, and slab_points and one more points per
    # band, which give five and three bands, or two and two
    pos, times, expected, L = _seam_and_wrap_case(d)
    pos = pos[:, ::-1].copy()
    for points in (mt._GHOST_SLAB_POINTS, slab_points, slab_points + 1):
        monkeypatch.setattr(mt, "_GHOST_SLAB_POINTS", points)
        _assert_ghost_case(pos, times, expected, L)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_accept_rules_match_brute_force_in_a_sparse_box(d):
    # L^d / n is in the thousands, so the cell count is capped near n/2; half
    # the points have a partner 0.9 or exactly 1 away, across the wrap too
    L = 2.0e4 ** (1 / d) * 10.0
    rng = np.random.default_rng(d)
    base = rng.random((100, d)) * L
    base[:10, 0] = L - 0.5
    shift = np.zeros((100, d))
    shift[np.arange(100), rng.integers(0, d, 100)] = rng.choice([0.9, 1.0], 100)
    pos = np.concatenate([base, (base + shift) % L])
    times = rng.random(200)
    assert mt._cells_per_axis(L, 1.0, len(pos), d) < L / 2
    assert np.array_equal(_ghost_mask(pos, times, L), ghost_survivors_brute(pos, times, L))
    assert np.array_equal(_rsa_accept(_ranked(pos, times), L), rsa_kept_brute(pos, times, L))


@pytest.mark.parametrize("kappa", [0, 1])
def test_arrivals_are_freed_before_the_pair_histogram(monkeypatch, kappa):
    refs = []
    real_arrivals, real_histogram = mt.arrivals, mt._pair_histogram

    def recording_arrivals(*args):
        pos, times = real_arrivals(*args)
        refs.extend([weakref.ref(pos), weakref.ref(times)])
        return pos, times

    def checking_histogram(acc, L, bins):
        assert len(refs) == 2 and all(ref() is None for ref in refs)
        return real_histogram(acc, L, bins)

    monkeypatch.setattr(mt, "arrivals", recording_arrivals)
    monkeypatch.setattr(mt, "_pair_histogram", checking_histogram)
    res = simulate(MaternConfig(d=2, L=12.0, T=3.0, kappa=kappa, seed=4))
    assert len(res.accepted_centers) > 10


@pytest.mark.parametrize("d", [1, 2, 3])
def test_arrivals_hold_no_more_than_what_they_return(d):
    # the time chunks (n floats) are freed before the positions are drawn, so
    # the peak is that of the concatenation (2n floats) or the returned
    # n (d + 1) floats, plus a few 8192-gap chunks, and not their sum
    L = {1: 200_000.0, 2: 400.0, 3: 50.0}[d]
    tracemalloc.start()
    try:
        pos, times = arrivals(3, d, L, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(times)
    assert 100_000 < n < 250_000
    assert peak < 8 * n * max(2, d + 1) + 2**18


def _tree_pairs(acc, L):
    """Pairs within _RMAX from a cKDTree of the periodic box, kept apart from the program."""
    pairs = cKDTree(acc, boxsize=L).query_pairs(mt._RMAX, output_type="ndarray")
    return pairs[:, 0], pairs[:, 1]


def _out_of_place_distances(acc, L, i, j):
    """Minimum-image distances of the pairs (acc[i], acc[j]) by rounding."""
    diff = acc[i] - acc[j]
    return np.sqrt(((diff - L * np.round(diff / L)) ** 2).sum(1))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pair_distances_match_out_of_place_formula(d, seed):
    # random points, so many pairs lie across the box wrap and many overlap
    rng = np.random.default_rng(seed)
    L = [6.0, 7.3, 9.0][seed]
    acc = rng.random((60 * d, d)) * L
    i, j = _tree_pairs(acc, L)
    r = np.sqrt(mt._torus_sq(acc[i], acc[j], L))
    assert np.any(np.abs(acc[i] - acc[j]) > L / 2)
    assert np.array_equal(r, _out_of_place_distances(acc, L, i, j))
    # the order within a pair does not change a bit
    assert np.array_equal(r, np.sqrt(mt._torus_sq(acc[j], acc[i], L)))
    assert r.min() < 1.0
    with pytest.raises(RuntimeError, match="not a valid packing"):
        mt._pair_histogram(acc, L, 50)


@pytest.mark.parametrize("L", _CELL_BOXES + [40.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_pair_histogram_counts_every_pair_within_reach(d, L):
    # below L = 9 the cell list of reach 3 is one cell; the reference counts
    # the pairs of a cKDTree query, bit for bit the same distances
    pos, times, _ = _on_cell_edges(d, L, seed=3)
    acc = pos[_ghost_mask(pos, times, L)]
    counts, edges = mt._pair_histogram(acc, L, 64)
    i, j = _tree_pairs(acc, L)
    expected, _ = np.histogram(_out_of_place_distances(acc, L, i, j), bins=edges)
    assert counts.sum() > 0
    assert np.array_equal(counts, expected)


@pytest.mark.parametrize("batch", [mt._RSA_BATCH, 7])
@pytest.mark.parametrize("d,L,T", [(1, 7.3, 30.0), (1, 40.0, 10.0), (2, 9.0, 8.0), (3, 6.5, 4.0)])
def test_rsa_matches_brute_force(monkeypatch, batch, d, L, T):
    # a batch of 7 screens against the kept bed's cell list many times
    monkeypatch.setattr(mt, "_RSA_BATCH", batch)
    for seed in (3, 4):
        pos, times = _shuffled_arrivals(seed, d, L, T)
        assert np.array_equal(_rsa_accept(_ranked(pos, times), L), rsa_kept_brute(pos, times, L))


def test_rsa_pairs_across_cell_seams_and_wrap():
    # L = 7.3, not a whole number: pairs across x = 6 and 7 and across the box
    # wrap (0.1 and 7.2), first alone and then with a second coordinate
    L = 7.3
    x = [0.1, 7.2, 3.9, 4.2, 5.8, 6.5, 5.1, 6.05, 2.5]
    times = np.arange(len(x), dtype=float)
    pos = np.array([[v] for v in x])
    expected = pos[[0, 2, 4, 8]]
    assert np.array_equal(rsa_kept_brute(pos, times, L), expected)
    assert np.array_equal(_rsa_accept(pos, L), expected)
    pos2 = np.array([[v, 3.0 + 0.1 * k] for k, v in enumerate(x)])
    assert np.array_equal(_rsa_accept(pos2, L), rsa_kept_brute(pos2, times, L))


@pytest.mark.parametrize("batch", [mt._RSA_BATCH, 1, 2])
def test_exact_contact_blocks_at_every_batch_size(monkeypatch, batch):
    # 2.0 touches 1.0 exactly: contact counts as overlap, however the
    # arrivals are split into batches
    monkeypatch.setattr(mt, "_RSA_BATCH", batch)
    pos = np.array([[1.0], [2.0], [4.5]])
    assert np.array_equal(_rsa_accept(pos, 10.0), pos[[0, 2]])
    assert np.array_equal(_ghost_accept(pos, 10.0), [True, False, True])


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
        assert np.array_equal(_rsa_accept(_ranked(pos, times), L), rsa_kept_brute(pos, times, L))
    finally:
        mt._RSA_BATCH = old
    assert np.array_equal(_ghost_mask(pos, times, L), ghost_survivors_brute(pos, times, L))
