"""Number variance in spherical windows and the Yamada realizability check.

For the hard-core test models the variance factorizes as

    sigma^2(R) = rho v1(R) [ 1 - 2^d phi I(R) + Z alpha2(1; R) ]

with I(R) the integral of alpha2(u^(1/d); R) du over u in [0, min(sigma,2R)^d]
(the continuous part of h is -1 on [0, sigma) and 0 beyond) and the contact
term handled analytically since quadrature cannot resolve a Dirac mass. For
2R <= sigma the integral covers the whole overlap support, I = R^d exactly,
and where the contact term vanishes too (Z = 0 or 2R <= 1) the variance
collapses to x(1-x) with x = 2^d phi R^d.

Beyond that, I(R) = (2R)^d J(X) with X = sigma/(2R) and
J(X) = int_0^X d x^(d-1) alpha2(x) dx. Integrating by parts with
alpha2'(x) = -c(d) (1-x^2)^((d-1)/2) and a = (d+1)/2 gives the closed form

    J(X) = X^d alpha2(X) + (c(d)/2) B(a, a) I_{X^2}(a, a),

used as written for X >= 1/2, with B(a, a) and I_{X^2}(a, a) from geometry's
in-house incomplete beta. Below 1/2, X^d underflows at large d, so
X^d is factored out of the incomplete beta's front factor (DLMF 8.17.8):

    J(X) = X^d [alpha2(X) + c(d)/(d+1) X (1-X^2)^a K(X^2)],

with K(y) = 2F1(2a, 1; a+1; y) = sum_k (2a)_k/(a+1)_k y^k, the continued
fraction of geometry's incomplete beta at a = b (_beta_cf, DLMF 8.17.22).

Both forms run over a whole array of radii at once. (Adaptive quadrature of
the defining integral survives only as the oracle in the tests.)

The Yamada condition sigma^2 >= theta(1-theta), theta the fractional part of
the expected count rho v1(R), only binds for windows larger than
R0 = phi^(-1/d)/2 (below R0 the exact x(1-x) form saturates it). The checker
walks a geometric R grid, densified with the worst-case radii where the
expected count is half-integer (theta = 1/2), and fails at the first radius
where the bracket's estimated rounding error reaches the printed digits. It
reads the counts, the bracket and the contact term from the same
number_variance pass that forms the variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import _beta_cf, _betainc, _cd, _log_beta, alpha2
from .models import PackingDensity, RadialModel, log_amplitude

__all__ = [
    "VarianceCheck",
    "number_variance",
    "fractional_count_bound",
    "yamada_check",
    "MAX_R_GRID",
]

# beyond this the spacing of doubles exceeds 1, the fractional part of the
# expected count is unresolvable, and the bound is capped at its maximum
_COUNT_RESOLUTION = 2.0**53

# a count whose absolute error (count times the relative error of its density)
# exceeds this has an unknown fractional part and is capped too; below it,
# theta(1 - theta) is known to this much, a tenth of the last digit printed of 1/4
_THETA_TOL = 1e-8

#: most geometric R-grid points yamada_check accepts (the half-integer-count
#: radii it adds on top are capped at twice this)
MAX_R_GRID = 2**20

# relative error of a number variance past which yamada_check reports its
# digits as lost, well below the half unit in the 7th digit that is printed
_SIGMA2_RTOL = 5e-8

# rounding error of the bracket 1 - 2^d phi I + Z alpha2, in units of eps times
# the summed magnitudes of its terms, that does not grow with R; with the
# 2 d ln(2R) of yamada_check's estimate added, the estimate is at least 2.8
# times the error against exact rational variances (step and delta terminals,
# d = 1 and 3, 6,000 radii up to R = 1e12)
_BRACKET_ULPS = 8.0


@dataclass(frozen=True)
class VarianceCheck:
    R: np.ndarray
    sigma2: np.ndarray
    yamada_bound: np.ndarray
    R0: float
    violations: list[float] = field(default_factory=list)

    def __post_init__(self):
        if len(self.R) != len(self.sigma2) or len(self.R) != len(self.yamada_bound):
            raise RuntimeError("grid and value arrays must have equal length")
        if np.min(self.yamada_bound) < 0.0 or np.max(self.yamada_bound) > 0.25 + 1e-15:
            raise RuntimeError("yamada bound entries must lie in [0, 1/4]")
        if any(r <= self.R0 for r in self.violations):
            raise RuntimeError("violations must lie beyond R0")


def _expected_counts(d: int, phi: float, rr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log rho v1(R) and rho v1(R) (inf past e^700) for each radius.

    These stay on libm, one radius at a time: the fractional part of a large
    count turns the 1-ulp differences of numpy's SIMD exp/log into visible
    changes of theta(1 - theta).
    """
    # rho v1(R) = phi (2R)^d
    log_count = np.array([log_amplitude(d, phi, r) for r in rr])
    count = np.array([math.exp(v) if v < 700.0 else math.inf for v in log_count])
    return log_count, count


def _log_j(d: int, X: np.ndarray) -> np.ndarray:
    """log J(X) for 0 < X < 1, J(X) = int_0^X d x^(d-1) alpha2(x) dx."""
    a = 0.5 * (d + 1)
    cd = _cd(d)
    out = np.empty_like(X)
    hi = X >= 0.5
    if np.any(hi):
        x = X[hi]
        # alpha2(d, x, 0.5) is alpha2 at r/2R = x
        J = x**d * alpha2(d, x, 0.5) + 0.5 * cd * math.exp(_log_beta(a, a)) * _betainc(
            a, a, x * x, (1.0 - x) * (1.0 + x)
        )
        # from d = 887 on, J underflows to 0 on the rows R0 < R <= 1; log J = -inf
        # gives a bracket of exactly 1 there, which is its correctly rounded value
        with np.errstate(divide="ignore"):
            out[hi] = np.log(J)
    lo = ~hi
    if np.any(lo):
        x = X[lo]
        y = x * x
        tail = cd / (d + 1.0) * x * (1.0 - y) ** a * _beta_cf(a, a, y)
        out[lo] = d * np.log(x) + np.log(alpha2(d, x, 0.5) + tail)
    return out


def number_variance(model: RadialModel, density: PackingDensity, R, *, _parts: bool = False):
    """Variance of the particle count in a window of radius R.

    Scalar or ndarray in R, like ``alpha2``; a scalar R gives a float. With
    _parts, for yamada_check's one pass over its grid of radii (phi > 0),
    it returns (sigma^2, expected count, bracket, contact term Z alpha2(1; R))
    as 1-d arrays.
    """
    Ra = np.asarray(R, dtype=float)
    ok = (Ra > 0.0) & (Ra < math.inf)
    if not np.all(ok):
        raise ValueError(f"window radius must be positive and finite, got {Ra[~ok][0]}")
    d, phi = density.d, density.phi
    if phi == 0.0:
        return 0.0 if Ra.ndim == 0 else np.zeros_like(Ra)
    rr = Ra.reshape(-1)
    sigma, Z = model.sigma, model.Z
    log_count, count = _expected_counts(d, phi, rr)

    two_r = 2.0 * rr
    inside = two_r <= sigma
    bracket = np.empty_like(rr)
    # overlap support fully inside the core: the integral is R^d exactly,
    # and expm1 keeps the bracket accurate when the count approaches 1
    bracket[inside] = -np.expm1(log_count[inside])
    beyond = ~inside
    if np.any(beyond):
        log_integral = d * np.log(two_r[beyond]) + _log_j(d, sigma / two_r[beyond])
        bracket[beyond] = -np.expm1(log_amplitude(d, phi, 1.0) + log_integral)
    contact = np.zeros_like(rr)
    if Z > 0.0:
        # alpha2(1; R) with r/2R = 1/(2R)
        contact = Z * alpha2(d, 0.5 / rr, 0.5)
        bracket += contact
    overflow = np.isinf(count) & (bracket <= 0.0)
    if np.any(overflow):
        raise OverflowError(f"expected count overflows at d={d}, R={rr[overflow][0]}")
    # a finite count times a positive bracket may pass DBL_MAX: such a row reads
    # inf, which holds the Yamada bound (at most 1/4) as the true variance does
    with np.errstate(over="ignore"):
        sigma2 = count * bracket
    if _parts:
        return sigma2, count, bracket, contact
    out = sigma2.reshape(Ra.shape)
    return float(out) if Ra.ndim == 0 else out


def fractional_count_bound(expected_count, rel_err: float = 0.0):
    """theta(1-theta) for theta the fractional part of the expected count.

    rel_err is the relative error of the count beyond rounding, that of a
    numeric density. Counts at or beyond the integer resolution of doubles,
    and counts with count * rel_err above 1e-8, get the worst-case 1/4, which
    keeps the check conservative instead of silently passing. Scalar or
    ndarray; a scalar count gives a float.
    """
    c = np.asarray(expected_count, dtype=float)
    if np.any(c < 0.0):
        raise ValueError("expected count must be nonnegative")
    if not 0.0 <= rel_err < math.inf:
        raise ValueError(f"count relative error must be finite and nonnegative, got {rel_err}")
    below = c < _COUNT_RESOLUTION  # false for inf and nan
    cr = np.where(below, c, 0.0)
    resolved = below & (cr * rel_err <= _THETA_TOL)
    theta = cr - np.floor(cr)
    out = np.where(resolved, theta * (1.0 - theta), 0.25)
    return float(out) if c.ndim == 0 else out


def _r_grid(d: int, phi: float, R0: float, R_max: float, n_grid: int) -> np.ndarray:
    lo = R0 * (1.0 + 1e-6)
    grid = np.geomspace(lo, R_max, n_grid)
    # radii where the expected count is half-integer: theta exactly 1/2
    extras = []
    j = 0
    while len(extras) < 2 * n_grid:
        r = 0.5 * math.exp((math.log(j + 0.5) - math.log(phi)) / d)
        j += 1
        if r <= lo:
            continue
        if r > R_max:
            break
        extras.append(r)
    # sorted, exact repeats dropped (np.unique would load numpy.ma)
    radii = np.sort(np.concatenate([grid, np.asarray(extras)]))
    return radii[np.concatenate(([True], radii[1:] != radii[:-1]))]


def yamada_check(
    model: RadialModel,
    density: PackingDensity,
    R_max: float,
    n_grid: int = 500,
    phi_rel_err: float = 0.0,
) -> VarianceCheck:
    """Test sigma^2(R) >= theta(1-theta) on (R0, R_max]; collect violating R.

    n_grid must satisfy 2 <= n_grid <= MAX_R_GRID (2^20); a larger grid raises
    ValueError before anything is allocated. sigma^2 = rho v1(R) B(R) with the
    bracket B = 1 - 2^d phi I + Z alpha2 a difference of O(1) terms that cancels
    to O(1/R); where its estimated rounding error passes 5e-8 of sigma^2, a
    RuntimeError names the first such R. A negative sigma^2 with its digits
    intact is a violated row. phi_rel_err is the relative error of a numeric
    density (TerminalDensityRecord.phi_rel_err); the counts it leaves
    unresolved get the bound 1/4 (fractional_count_bound).
    """
    if not 2 <= n_grid <= MAX_R_GRID:
        raise ValueError(f"need 2 <= grid points <= {MAX_R_GRID}, got {n_grid}")
    d, phi = density.d, density.phi
    R0 = 0.5 * math.exp(-math.log(phi) / d)
    if not R0 < R_max < math.inf:
        raise ValueError(f"R_max={R_max} must be finite and exceed R0={R0:.6g}")
    rr = _r_grid(d, phi, R0, R_max, n_grid)
    sigma2, counts, bracket, contact = number_variance(model, density, rr, _parts=True)
    # the bracket's rounding error: _BRACKET_ULPS eps of its terms' summed
    # magnitude 2 (1 + Z alpha2) - B, plus 2 d ln(2R) eps of it from
    # exponentiating log-space sums whose two parts are each about d ln(2R)
    # (rows of infinite sigma^2 print no digits and hold every bound)
    f = np.isfinite(sigma2)
    terms = 2.0 * (1.0 + contact) - bracket
    err = np.finfo(float).eps * (_BRACKET_ULPS + 2.0 * d * np.log(2.0 * rr)) * terms
    lost = np.flatnonzero(f & (err > _SIGMA2_RTOL * np.abs(bracket)))
    if lost.size:
        i = lost[0]
        raise RuntimeError(
            f"number variance {sigma2[i]:.3e} at R={rr[i]:.7g}, the first radius where it is "
            f"not known to {_SIGMA2_RTOL:.0e} relative: its bracket cancels to "
            f"{abs(bracket[i] / terms[i]):.1e} of its terms"
        )
    bounds = fractional_count_bound(counts, phi_rel_err)
    violations = [float(r) for r in rr[sigma2 < bounds - 1e-10]]
    return VarianceCheck(R=rr, sigma2=sigma2, yamada_bound=bounds, R0=R0, violations=violations)
