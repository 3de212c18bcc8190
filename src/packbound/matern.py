"""Ghost RSA (exactly solvable sequential packing) and standard RSA on a torus.

The ghost process drops test spheres as a unit-rate Poisson rain on the
periodic box and keeps one iff no EARLIER test sphere, kept or not, landed
within unit distance. Rejected spheres keep blocking forever, which is what
makes the density and pair statistics exactly solvable. Standard RSA (kappa=0)
lets only kept spheres block, so it saturates denser but has no closed form.

The simulator draws arrival times and positions from two child streams of one
SeedSequence, times first as chunked exponential gaps and positions afterward
as a single uniform block. Runs at the same seed and growing horizon T then
share their arrival prefix exactly, so acceptance is monotone along T, which
the coupling property test exploits.

Neither rule holds every pair or scans every kept sphere. The ghost rule
finds the pairs within unit distance band by band along axis 0, about 2^16
arrivals per band, with the bands spread over a thread pool of one worker per
CPU the process may run on (cKDTree releases the GIL while it builds and
queries). Each band is cut along its last axis into pieces of at most about
2^14 arrivals, one tree each, so as the box grows at most the workers times
2^16 arrivals and the pairs of the workers times 2^14 arrivals are held at
once. The arrival arrays are freed before the pair histogram of the accepted
centers is built.
Standard RSA takes the arrivals in batches of doubling size, capped, screens
each batch against the kept bed with one tree query and settles the survivors
of the batch among themselves from their pairs. Both give the accepted set of
the all-pairs computation bit for bit.

Every neighbour test is a cKDTree query, and both rules use one contact rule:
a center at distance <= 1 (minimum image) from an earlier blocking center is
rejected, so exact contact counts as overlap.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .geometry import beta2
from .specialfn import sphere_surface, sphere_volume

__all__ = [
    "MaternConfig",
    "MaternResult",
    "phi_of_t",
    "g2_matern",
    "arrivals",
    "simulate",
]

_RMAX = 3.0

#: most pair-histogram bins MaternConfig accepts
MAX_BINS = 2**16

#: largest expected arrival count L^d*T MaternConfig accepts, 6.7x the
#: 2.5M arrivals of the largest run in the tests (d=1, L=5000, T=500)
MAX_ARRIVALS = 2**24

# most arrivals per standard-RSA batch; fixes the batch sizes, not the answer
_RSA_BATCH = 20000

# most arrivals per ghost-rule band; fixes the band count, not the answer
_GHOST_SLAB_POINTS = 2**16

# most arrivals per ghost-rule tree, before its halo; fixes the piece count
# of a band, not the answer
_GHOST_TREE_POINTS = 2**14


def _tree(points: np.ndarray, L: float):
    """Unbalanced cKDTree of points on the periodic box [0, L)^d.

    scipy.spatial is imported here, on the first simulation, so that commands
    that never simulate do not pay for loading it. The sliding-midpoint split
    builds faster than the median split on uniform points and finds the same
    pairs.
    """
    from scipy.spatial import cKDTree

    return cKDTree(points, boxsize=L, balanced_tree=False)


@dataclass(frozen=True)
class MaternConfig:
    """One simulator run, checked before any allocation.

    50 <= bins <= MAX_BINS (2^16), and the expected arrival count L^d*T is at
    most MAX_ARRIVALS (2^24).
    """

    d: int
    L: float
    T: float
    kappa: int = 1
    seed: int = 0
    bins: int = 50

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2 or 3, got {self.d}")
        if not (math.isfinite(self.L) and math.isfinite(self.T)):
            raise ValueError(
                f"box length and time horizon must be finite, got L={self.L}, T={self.T}"
            )
        if self.L < 6.0:
            raise ValueError(f"box length must be at least 6 diameters, got {self.L}")
        if self.T <= 0.0:
            raise ValueError(f"time horizon must be positive, got {self.T}")
        # in logs, since L**d overflows for huge L
        if self.d * math.log(self.L) + math.log(self.T) > math.log(MAX_ARRIVALS):
            raise ValueError(
                f"expected arrival count L^d*T must be at most {MAX_ARRIVALS}, "
                f"got L={self.L}, T={self.T} at d={self.d}"
            )
        if self.kappa not in (0, 1):
            raise ValueError(f"kappa must be 0 or 1, got {self.kappa}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if not 50 <= self.bins <= MAX_BINS:
            raise ValueError(f"need 50 <= histogram bins <= {MAX_BINS}, got {self.bins}")


@dataclass(frozen=True)
class MaternResult:
    config: MaternConfig
    accepted_centers: np.ndarray
    ghost_count: int
    phi_hat: float
    phi_analytic: float
    bin_centers: np.ndarray
    pair_counts: np.ndarray
    pair_norm: np.ndarray
    g2_hat: np.ndarray
    g2_stderr: np.ndarray
    g2_analytic: np.ndarray

    def __post_init__(self):
        if self.phi_hat > 1.0:
            raise RuntimeError(f"density estimate {self.phi_hat} exceeds 1")


def phi_of_t(d: int, t: float) -> float:
    """Ghost-process packing fraction at time t; saturates at 2^-d."""
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return -math.expm1(-sphere_volume(d, 1.0) * t) / 2.0**d


def g2_matern(d: int, r: float, t: float) -> float:
    """Pair correlation of the ghost process at finite time."""
    if r < 0.0:
        raise ValueError(f"separation must be nonnegative, got {r}")
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
    if r < 1.0:
        return 0.0
    if r >= 2.0:
        # the union volume is twice a sphere, the expression is exactly 1
        return 1.0
    v = sphere_volume(d, 1.0)
    b = beta2(d, r, 1.0)
    x = v * t
    if x < 1e-3:
        # the direct form below cancels to about eps/x relative and its e1*e1
        # underflows at tiny x. With x = v t, expm1(-b x) - b expm1(-x) =
        # b (b-1) x^2 sum_m (-x)^m h_m / (m+2)!, h_m = 1 + b + ... + b^m, and
        # -expm1(-x) = x sum_m (-x)^m / (m+1)!; five terms of each are exact to
        # double precision here
        num = den = 0.0
        h = term = 1.0
        for m in range(5):
            den += term
            num += h * term / (m + 2)
            term *= -x / (m + 2)
            h = 1.0 + b * h
        return 2.0 * num / (den * den)
    e1 = math.expm1(-v * t)
    return 2.0 * (math.expm1(-v * b * t) - b * e1) / (b * (b - 1.0) * e1 * e1)


def _arrival_times(rng: np.random.Generator, rate: float, T: float) -> np.ndarray:
    """Sorted Poisson arrival times in [0, T], as chunks of 8192 exponential gaps."""
    chunks = []
    total = 0.0
    while True:
        cum = np.cumsum(rng.exponential(1.0 / rate, size=8192)) + total
        stop = int(np.searchsorted(cum, T, side="right"))
        if stop < cum.size:
            chunks.append(cum[:stop])
            return np.concatenate(chunks)
        chunks.append(cum)
        total = float(cum[-1])


def arrivals(seed: int, d: int, L: float, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Poisson rain on [0,L)^d x [0,T]: positions and sorted arrival times.

    Times come from one child stream as exponential gaps, positions from the
    other as a single block, so a longer horizon extends the same realization.
    The time chunks are freed before the positions are drawn, so at most the
    two returned arrays are held at once.
    """
    ss = np.random.SeedSequence(seed)
    st, sx = ss.spawn(2)
    times = _arrival_times(np.random.default_rng(st), float(L) ** d, T)
    pos = np.random.default_rng(sx).random((len(times), d)) * L
    return pos, times


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _window(x: np.ndarray, lo: float, width: float, L: float) -> np.ndarray:
    """Indices of the coordinates x in [lo, lo + width + 2) on the circle [0, L).

    The halo of 2 is one wider than the unit reach, so rounding in this test
    cannot drop a pair whose lower member lies in [lo, lo + width).
    """
    hi = lo + width + 2.0
    inside = (x >= lo) & (x < hi)
    if hi > L:
        inside |= x < hi - L
    return np.flatnonzero(inside)


def _ghost_accept(pos: np.ndarray, times: np.ndarray, L: float) -> np.ndarray:
    """Boolean mask of survivors under the ghost rule (all arrivals block).

    Every pair within unit distance rejects its later member (on equal times,
    the one with the higher index). The pairs are found band by band along
    axis 0: S = max(2, ceil(n / _GHOST_SLAB_POINTS)) bands of width w = L/S,
    each taken together with a halo of width 2 beyond its upper edge
    (`_window`). For d >= 2 each band's points are cut the same way along the
    last axis into P = ceil(m / _GHOST_TREE_POINTS) pieces (at least 1) for a
    band of m points, each with its halo and the periodic wrap, and each piece
    is one tree query; for d = 1 the band is one query. Each subset keeps the
    full periodic box, so a pair's distance is computed as in one whole-box
    query and every pair found is a real pair; every real pair has its lower
    member (along axis 0, and then along the last axis) in some band and
    piece and its upper one within their halos, also across a seam and across
    the box wrap.

    Each band is one task on a thread pool of min(S, usable_cpus()) workers,
    which returns the global indices of the later members of its pairs, each
    once; this thread marks them rejected. At most about workers x 2^16
    points and the pairs of workers x 2^14 points are held at once, not all
    of them.
    """
    n, d = pos.shape
    rejected = np.zeros(n, dtype=bool)
    if n > 1:
        # imported here, on this thread, so that no worker runs the import
        import scipy.spatial  # noqa: F401
        from concurrent.futures import ThreadPoolExecutor

        slabs = max(2, -(-n // _GHOST_SLAB_POINTS))
        w = L / slabs
        x0 = pos[:, 0]

        def later_members(s: int) -> np.ndarray:
            idx = _window(x0, s * w, w, L)
            sub = pos[idx]
            rej = np.zeros(len(idx), dtype=bool)
            pieces = max(1, -(-len(idx) // _GHOST_TREE_POINTS)) if d > 1 else 1
            for p in range(pieces):
                part = _window(sub[:, -1], p * L / pieces, L / pieces, L)
                pairs = _tree(sub[part], L).query_pairs(1.0, output_type="ndarray")
                # idx and part are increasing, so local index order is global
                # index order
                i, j = pairs[:, 0], pairs[:, 1]
                t = times[idx[part]]
                rej[part[np.where(t[i] > t[j], i, j)]] = True
            return idx[rej]

        with ThreadPoolExecutor(max_workers=min(slabs, usable_cpus())) as pool:
            for later in pool.map(later_members, range(slabs)):
                rejected[later] = True
    return ~rejected


def _rsa_accept(pos: np.ndarray, times: np.ndarray, L: float) -> np.ndarray:
    """Standard RSA: only previously kept spheres block. Sequential by time.

    The time-sorted arrivals go in batches of 1, 2, 4, ... arrivals, capped at
    _RSA_BATCH. Each batch is screened against the kept bed with one tree
    query; the survivors are then settled among themselves from their pairs
    within unit distance, in arrival order: one is kept iff no earlier kept
    survivor of its batch is paired with it. Doubling keeps the first batches,
    where nearly every arrival survives the screen, small; the cap bounds the
    memory of the last ones.
    """
    pos = pos[np.argsort(times, kind="stable")]
    kept = pos[:0]
    lo, size = 0, 1
    while lo < len(pos):
        block = pos[lo : lo + size]
        lo, size = lo + size, min(2 * size, _RSA_BATCH)
        if len(kept):
            near = _tree(kept, L).query_ball_point(block, 1.0, return_length=True)
            block = block[near == 0]
        pairs = _tree(block, L).query_pairs(1.0, output_type="ndarray")
        keep = np.ones(len(block), dtype=bool)
        # by later member, so each earlier member's fate is settled when read
        for i, j in pairs[np.argsort(pairs[:, 1])].tolist():
            if keep[i]:
                keep[j] = False
        kept = np.concatenate([kept, block[keep]])
    return kept


def _pair_distances(acc: np.ndarray, L: float) -> np.ndarray:
    """Minimum-image distances of the pairs within _RMAX, in query_pairs order.

    The same arithmetic as sqrt(((diff - L*round(diff/L))**2).sum(1)), bit for
    bit, done in place: no pair-sized array is held beyond diff and q.
    """
    pairs = _tree(acc, L).query_pairs(_RMAX, output_type="ndarray")
    diff = acc[pairs[:, 0]]
    diff -= acc[pairs[:, 1]]
    del pairs
    q = diff / L
    np.round(q, out=q)
    q *= L
    diff -= q
    del q
    diff *= diff
    r = diff.sum(axis=1)
    return np.sqrt(r, out=r)


def _pair_histogram(acc: np.ndarray, L: float, bins: int) -> tuple[np.ndarray, np.ndarray]:
    edges = np.linspace(0.999, _RMAX, bins + 1)
    if len(acc) < 2:
        return np.zeros(bins, dtype=np.int64), edges
    r = _pair_distances(acc, L)
    # the packing check: every pair closer than 1 is among the pairs within _RMAX
    if r.size and r.min() < 1.0 - 1e-12:
        raise RuntimeError("accepted configuration is not a valid packing")
    counts, _ = np.histogram(r, bins=edges)
    return counts.astype(np.int64), edges


def simulate(config: MaternConfig) -> MaternResult:
    """Run one sequential-adsorption realization and compare with the formulas."""
    d, L, T = config.d, config.L, config.T
    pos, times = arrivals(config.seed, d, L, T)
    if config.kappa == 1:
        acc = pos[_ghost_accept(pos, times, L)]
        phi_analytic = phi_of_t(d, T)
    else:
        acc = _rsa_accept(pos, times, L)
        phi_analytic = math.nan
    n = len(acc)
    ghost_count = len(pos) - n
    # the arrivals are not needed past this point; free them before the
    # histogram's pair query
    del pos, times
    vol = L**d
    phi_hat = n * sphere_volume(d, 0.5) / vol

    counts, edges = _pair_histogram(acc, L, config.bins)
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    rho = n / vol
    norm = np.array([0.5 * n * rho * sphere_surface(d, m) * w for m, w in zip(mids, widths)])
    with np.errstate(divide="ignore", invalid="ignore"):
        g2_hat = np.where(norm > 0.0, counts / norm, 0.0)
        g2_err = np.where(norm > 0.0, np.sqrt(np.maximum(counts, 1)) / norm, 0.0)
    if config.kappa == 1:
        g2_ref = np.array([g2_matern(d, m, T) for m in mids])
    else:
        g2_ref = np.full(len(mids), math.nan)

    return MaternResult(
        config=config,
        accepted_centers=acc,
        ghost_count=ghost_count,
        phi_hat=phi_hat,
        phi_analytic=phi_analytic,
        bin_centers=mids,
        pair_counts=counts,
        pair_norm=norm,
        g2_hat=g2_hat,
        g2_stderr=g2_err,
        g2_analytic=g2_ref,
    )
