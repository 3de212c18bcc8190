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
the coupling property test exploits. The times are a running sum of positive
gaps, so the rows come in arrival order: a row's index is its rank, and both
rules read the positions alone.

Every neighbour search runs on one numpy cell list (`_cell_list`): cells of
side just above the search reach, so each pair within reach lies in one cell
or in two neighbouring ones, with the points sorted by cell and, within a
cell, by rank. The ghost rule sweeps the box along axis 0 in bands of whole
cell columns, about 2^15 arrivals per band, so the cell index alone places
an arrival in its band, its band's halo and its cell; each arrival walks the
earlier arrivals of its own cell and then of the neighbour cells, stopping
at the first one within unit distance; most stop in their own cell.
Standard RSA takes the arrivals in batches of doubling size, capped,
screens each batch against a cell list of the kept bed the same way and
settles the survivors of the batch among themselves from their pairs. Both give the accepted set of the all-pairs
computation bit for bit. The arrival times are freed before acceptance
starts and the positions before the pair histogram of the accepted centers
is built, from the candidate pairs of a cell list of reach 3.

Both rules use one contact rule: a center at distance <= 1 (minimum image)
from an earlier blocking center is rejected, so exact contact counts as
overlap. One distance rule (`_torus_sq`, computed as in the brute-force
rules of the tests) serves contact, the packing check and the histogram.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import beta2, sphere_surface, sphere_volume

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

# arrivals per ghost-rule band on average (a band is at least one cell
# column wide), and most centers per pair-histogram chunk; fixes the memory
# held at once, not the answer
_GHOST_SLAB_POINTS = 2**15


@dataclass(frozen=True)
class MaternConfig:
    """One simulator run, checked before any allocation.

    50 <= bins <= MAX_BINS (2^16), the expected arrival count L^d*T is at
    most MAX_ARRIVALS (2^24), and the box volume L^d is a finite float.
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
        # a tiny T lets a box volume past the float range through the check above
        try:
            float(self.L) ** self.d
        except OverflowError:
            raise ValueError(f"box volume L^d overflows at --L {self.L}, --d {self.d}") from None
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


def _cells_per_axis(L: float, reach: float, n: int, d: int) -> int:
    """Cells per axis of a cell list for the pairs within `reach` of n points.

    m = floor(L / (reach (1 + 1e-9))) cells of side L/m > reach, so a pair
    within reach (minimum image) lies in one cell or in two cells that are
    neighbours mod m, however the cell index rounds. m is capped at
    (n/2)^(1/d), so that a cell holds two points on average or more: a
    sparse box gets fewer cells to walk, not more cells than points. With
    fewer than 3 cells per axis a cell's neighbours are not distinct, so the
    box is one cell.
    """
    m = min(math.floor(L / (reach * (1.0 + 1e-9))), math.floor((n / 2) ** (1.0 / d)))
    return m if m >= 3 else 1


def _offsets(d: int, m: int, half: bool = False) -> np.ndarray:
    """Cell offsets in {-1, 0, 1}^d, 0 first; only 0 when the box is one cell.

    With `half`, 0 and one of each pair o, -o (its first nonzero entry is 1).
    """
    if m == 1:
        return np.zeros((1, d), dtype=np.int32)
    offs = sorted(itertools.product((-1, 0, 1), repeat=d), key=any)
    if half:
        offs = [o for o in offs if o >= tuple(-x for x in o)]
    return np.array(offs, dtype=np.int32)


def _cell_coords(P: np.ndarray, L: float, m: int) -> np.ndarray:
    """Cell coordinates floor(x m / L) of the points P, as int32 in [0, m)."""
    c = (P * (m / L)).astype(np.int32)
    np.minimum(c, m - 1, out=c)
    return c


def _flat(c: np.ndarray, periods: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Cell numbers of the cells at offset o from the cell coordinates c, each
    axis taken mod its period."""
    key = (c[:, 0] + o[0]) % periods[0]
    for k in range(1, len(periods)):
        key *= periods[k]
        key += (c[:, k] + o[k]) % periods[k]
    return key


@dataclass(frozen=True)
class _Cells:
    """Points sorted by cell, and in input order within a cell.

    Cell `key` holds the sorted points starts[key] to starts[key + 1] - 1.
    rank[p] is the input index of sorted point p, and rank[k] = k past the
    last of the k points, so that a walk may read one past its cell.
    """

    m: int
    periods: np.ndarray
    points: np.ndarray
    coords: np.ndarray
    rank: np.ndarray
    starts: np.ndarray


def _cell_list(P: np.ndarray, L: float, m: int, base: int | None = None) -> _Cells:
    """Cell list of the points P on m cells per axis, all periodic.

    Given `base`, axis 0 is counted from cell `base` on and cut three cells
    past the highest one in use, or left at m if that is fewer: a band of the
    box then needs cells for the band alone. This loses no pair within reach:
    two such points have axis-0 cells that differ by at most 1 mod m, and
    below the cut they are numbered less than m - 3 apart, so they differ by
    at most 1 as numbered too; a lookup that wraps lands in an empty cell.
    """
    c = _cell_coords(P, L, m)
    periods = np.full(P.shape[1], m, dtype=np.int32)
    if base is not None and len(c):
        c[:, 0] -= base
        c[:, 0] %= m
        periods[0] = min(m, int(c[:, 0].max()) + 3)
    key = _flat(c, periods, np.zeros_like(periods))
    # one value sort of (cell, input index) packed in 64 bits orders the
    # points by cell and stably within a cell, faster than a stable argsort
    packed = (key.astype(np.int64) << 32) | np.arange(len(key))
    packed.sort()
    order = packed & 0xFFFFFFFF
    starts = np.zeros(int(np.prod(periods)) + 1, dtype=np.intp)
    np.cumsum(np.bincount(key, minlength=len(starts) - 1), out=starts[1:])
    rank = np.append(order, len(order))
    return _Cells(m, periods, P.take(order, axis=0), c.take(order, axis=0), rank, starts)


def _torus_sq(a: np.ndarray, b: np.ndarray, L: float) -> np.ndarray:
    """Squared minimum-image distances between the rows of a and b.

    |dx|, then min(|dx|, L - |dx|), squares summed over the axes in order:
    the arithmetic of the brute-force rules in the tests, so that both decide
    exact contact alike. a - b and b - a differ only in sign, so the order
    within a pair does not change a bit. The work is done in place in a,
    which every caller passes as a fresh `take`.
    """
    a -= b
    np.abs(a, out=a)
    np.minimum(a, L - a, out=a)
    a *= a
    s = a[:, 0].copy()
    for k in range(1, a.shape[1]):
        s += a[:, k]
    return s


def _walk(cells: _Cells, L: float, Pq, first, last, rq) -> np.ndarray:
    """Mask of the queries Pq[k] within unit distance of a point that ranks
    below rq[k] among the sorted points first[k] to last[k] - 1.

    Each range is walked in order, one step for all queries at once, and a
    walk stops at its first contact or at its first point that ranks at or
    above rq[k]; the points of one cell are in rank order, so none after it
    ranks below rq[k] either.
    """
    hit = np.zeros(len(Pq), dtype=bool)
    at = np.arange(len(Pq))
    go = first < last
    while True:
        go &= cells.rank.take(first) < rq
        at, Pq, first, last, rq = (a.compress(go, axis=0) for a in (at, Pq, first, last, rq))
        if not at.size:
            return hit
        close = _torus_sq(cells.points.take(first, axis=0), Pq, L) <= 1.0
        hit[at.compress(close)] = True
        first += 1
        go = first < last
        go &= ~close


def _blocked(cells: _Cells, L: float, Pq, cq, rq) -> np.ndarray:
    """Mask of the queries Pq (in cells cq) with a point of `cells` that ranks
    below rq and lies within unit distance.

    Each query walks its own cell first and then its 3^d - 1 neighbour cells,
    and stops at its first contact.
    """
    hit = np.zeros(len(Pq), dtype=bool)
    at = np.arange(len(Pq))
    for o in _offsets(cq.shape[1], cells.m):
        key = _flat(cq, cells.periods, o)
        found = _walk(cells, L, Pq, cells.starts.take(key), cells.starts.take(key + 1), rq)
        hit[at.compress(found)] = True
        at, Pq, cq, rq = (a.compress(~found, axis=0) for a in (at, Pq, cq, rq))
    return hit


def _near_pairs(cells: _Cells, lo: int, hi: int, o: np.ndarray):
    """Sorted positions (i, j) of the pairs from each point i in [lo, hi) to the
    points j of the cell at offset o from its own; at offset 0, to the later
    points of its own cell.

    Over every i and the half offsets, each pair of points in one cell or in
    two neighbouring cells comes up exactly once.
    """
    key = _flat(cells.coords[lo:hi], cells.periods, o)
    last = cells.starts.take(key + 1)
    first = np.arange(lo + 1, hi + 1) if not o.any() else cells.starts.take(key)
    lens = last - first
    i = np.repeat(np.arange(lo, hi), lens)
    j = np.arange(len(i)) + np.repeat(first - np.cumsum(lens) + lens, lens)
    return i, j


def _by_band(x: np.ndarray, L: float, m: int, bands: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the coordinates x grouped by band, increasing within a band,
    as int32; and the start of each band's group, with the count of x last.

    x lies in the cell column c of `_cell_coords` on m cells, and column c in
    band c * bands // m. Two passes, _GHOST_SLAB_POINTS coordinates at a time,
    count the bands and then place the indices, so nothing as long as x is
    held but the result.
    """

    def band_of(lo: int) -> np.ndarray:
        return _cell_coords(x[lo : lo + _GHOST_SLAB_POINTS], L, m).astype(np.int64) * bands // m

    chunks = range(0, len(x), _GHOST_SLAB_POINTS)
    starts = np.zeros(bands + 1, dtype=np.intp)
    for lo in chunks:
        starts[1:] += np.bincount(band_of(lo), minlength=bands)
    np.cumsum(starts, out=starts)
    grouped = np.empty(len(x), dtype=np.int32)
    fill = starts[:-1].copy()
    for lo in chunks:
        b = band_of(lo)
        packed = (b << 32) | np.arange(lo, lo + len(b))
        packed.sort()
        b = packed >> 32
        count = np.bincount(b, minlength=bands)
        # the k-th index of band t in this chunk goes to grouped[fill[t] + k]
        grouped[fill.take(b) + np.arange(len(b)) - (np.cumsum(count) - count).take(b)] = packed & 0xFFFFFFFF
        fill += count
    return grouped, starts


def _ghost_accept(pos: np.ndarray, L: float) -> np.ndarray:
    """Boolean mask of survivors under the ghost rule (all arrivals block).

    Row k of pos is the k-th arrival. An arrival is rejected iff an earlier
    one lies within unit distance. The box is swept along axis 0 in
    S = min(m, ceil(n / _GHOST_SLAB_POINTS)) bands of whole columns of the
    unit-reach cell grid (m cells per axis): column c is in band c S // m
    (`_by_band`). A cell's side is above 1, so an arrival's contacts lie in
    its own column or the next one on either side, which are in the next
    band at most. Each band's arrivals, together with those of the column on
    either side (read from the neighbour bands), go into one cell list in
    rank order, and each of the band's own arrivals walks the earlier
    arrivals of its own cell and then of the 3^d - 1 neighbour cells
    (`_blocked`), stopping at its first contact.
    `_cell_coords` alone decides band, halo and cell, so at most one band
    and its halo are sorted at once, and most arrivals stop in their own
    cell.
    """
    n, d = pos.shape
    rejected = np.zeros(n, dtype=bool)
    m = _cells_per_axis(L, 1.0, n, d)
    bands = min(m, max(1, -(-n // _GHOST_SLAB_POINTS)))
    grouped, starts = _by_band(pos[:, 0], L, m, bands)
    for s in range(bands):
        # band s holds the columns first to first + width - 1
        first = -(-s * m // bands)
        width = -(-(s + 1) * m // bands) - first
        # with S <= 3 the neighbour bands are every band, and idx is arange(n)
        near = {(s - 1) % bands, s, (s + 1) % bands}
        idx = np.sort(np.concatenate([grouped[starts[t] : starts[t + 1]] for t in near]))
        P = pos.take(idx, axis=0)
        inside = np.flatnonzero((_cell_coords(P[:, 0], L, m) - (first - 1)) % m < width + 2)
        # idx increases, so the rows stay in rank (arrival) order
        idx, P = idx.take(inside), P.take(inside, axis=0)
        cells = _cell_list(P, L, m, base=(first - 1) % m)
        del P
        q = np.flatnonzero((cells.coords[:, 0] - 1) % m < width)
        hit = _blocked(cells, L, cells.points.take(q, axis=0), cells.coords.take(q, axis=0), cells.rank.take(q))
        rejected[idx.take(cells.rank.take(q.compress(hit)))] = True
    return ~rejected


def _rsa_accept(pos: np.ndarray, L: float) -> np.ndarray:
    """Standard RSA: only previously kept spheres block. Sequential by row.

    Row k of pos is the k-th arrival. The arrivals go in batches of 1, 2, 4,
    ... arrivals, capped at _RSA_BATCH. Each batch is screened against a cell list of the kept bed
    (`_blocked`); the survivors are then settled among themselves from their
    pairs within unit distance, found from a cell list of the batch, in
    arrival order: one is kept iff no earlier kept survivor of its batch is
    paired with it. Doubling keeps the first batches, where nearly every
    arrival survives the screen, small; the cap bounds the memory of the last
    ones.
    """
    d = pos.shape[1]
    kept = pos[:0]
    lo, size = 0, 1
    while lo < len(pos):
        block = pos[lo : lo + size]
        lo, size = lo + size, min(2 * size, _RSA_BATCH)
        if len(kept):
            bed = _cell_list(kept, L, _cells_per_axis(L, 1.0, len(kept), d))
            cq = _cell_coords(block, L, bed.m)
            block = block[~_blocked(bed, L, block, cq, np.full(len(block), len(kept)))]
        cells = _cell_list(block, L, _cells_per_axis(L, 1.0, len(block), d))
        pairs = [_near_pairs(cells, 0, len(block), o) for o in _offsets(d, cells.m, half=True)]
        i, j = (np.concatenate(p) for p in zip(*pairs))
        close = _torus_sq(cells.points.take(i, axis=0), cells.points.take(j, axis=0), L) <= 1.0
        i, j = cells.rank.take(i.compress(close)), cells.rank.take(j.compress(close))
        i, j = np.minimum(i, j), np.maximum(i, j)
        keep = np.ones(len(block), dtype=bool)
        # by later member, so each earlier member's fate is settled when read
        by_later = np.argsort(j)
        for a, b in zip(i[by_later].tolist(), j[by_later].tolist()):
            if keep[a]:
                keep[b] = False
        kept = np.concatenate([kept, block[keep]])
    return kept


def _pair_histogram(acc: np.ndarray, L: float, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair counts of the centers acc over `bins` bins from 0.999 to _RMAX.

    The candidate pairs come from a cell list of reach _RMAX, a chunk of at
    most _GHOST_SLAB_POINTS centers and one neighbour offset at a time; those
    past _RMAX are read by the packing check only.
    """
    edges = np.linspace(0.999, _RMAX, bins + 1)
    counts = np.zeros(bins, dtype=np.int64)
    n, d = acc.shape
    cells = _cell_list(acc, L, _cells_per_axis(L, _RMAX, n, d))
    for lo in range(0, n, _GHOST_SLAB_POINTS):
        hi = min(lo + _GHOST_SLAB_POINTS, n)
        for o in _offsets(d, cells.m, half=True):
            i, j = _near_pairs(cells, lo, hi, o)
            r = np.sqrt(_torus_sq(cells.points.take(i, axis=0), cells.points.take(j, axis=0), L))
            # the packing check: every pair closer than 1 is a candidate
            if r.size and r.min() < 1.0 - 1e-12:
                raise RuntimeError("accepted configuration is not a valid packing")
            counts += np.histogram(r.compress(r <= _RMAX), bins=edges)[0]
    return counts, edges


def simulate(config: MaternConfig) -> MaternResult:
    """Run one sequential-adsorption realization and compare with the formulas."""
    d, L, T = config.d, config.L, config.T
    # the rows are in arrival order, which is all the rules read of the times
    pos = arrivals(config.seed, d, L, T)[0]
    if config.kappa == 1:
        acc = pos[_ghost_accept(pos, L)]
        phi_analytic = phi_of_t(d, T)
    else:
        acc = _rsa_accept(pos, L)
        phi_analytic = math.nan
    n = len(acc)
    ghost_count = len(pos) - n
    # the arrivals are not needed past this point; free them before the
    # histogram's pair query
    del pos
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
