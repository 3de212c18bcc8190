"""Ball volumes and surfaces, and the scaled intersection volume of equal-ball pairs.

Volumes and surfaces of d-balls go through log space with math.lgamma, so
nothing overflows before d is well past 1000.

alpha2(r; R) is the intersection volume of two radius-R balls with centers
a distance r apart, divided by the volume of one ball, evaluated as a
regularized incomplete beta function, at every d. (Quadrature, the
odd-d-terminating series and the closed forms at d = 1, 2, 3 survive only as
oracles in the tests.) The scaled union volume is 2 - alpha2.

The incomplete beta is in-house (_betainc): the continued fraction of DLMF
8.17.22, summed from its tail up, with the prefactor x^a (1-x)^b / B(a, b)
formed in log space (_log_beta). For the shapes that alpha2 and the number
variance read, a = (d+1)/2 with b = 1/2 or b = a, it holds 50-digit mpmath
to 5e-13 relative over d = 1..1000.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "alpha2",
    "log_sphere_volume",
    "sphere_volume",
    "sphere_surface",
]

_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)

# depths (terms) of _beta_cf's continued fraction, tried in turn: alpha2 and
# J(X) at d <= 1000 need at most 138 terms (a = (d+1)/2, b = 1/2, x at the switch)
_BETA_CF_DEPTHS = (32, 64, 128, 256)

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# Stirling's coefficients B_2k / (2k (2k - 1)), k = 1..8: from z = 10 on the
# series' remainder is below 1e-16
_STIRLING = (
    1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
    1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0,
)


def _check_ball(d, r: float) -> int:
    """d as an int, or ValueError unless d is a positive integer and r >= 0."""
    if d < 1 or d != int(d):
        raise ValueError(f"dimension must be a positive integer, got {d}")
    if r < 0.0:
        raise ValueError("radius must be nonnegative")
    return int(d)


def log_sphere_volume(d: int, R: float) -> float:
    """log of the d-volume of a radius-R ball; -inf at R=0."""
    d = _check_ball(d, R)
    if R == 0.0:
        return -math.inf
    return 0.5 * d * _LNPI - math.lgamma(1.0 + 0.5 * d) + d * math.log(R)


def sphere_volume(d: int, R: float) -> float:
    """Volume pi^(d/2) R^d / Gamma(1+d/2) of a d-ball, computed in log space."""
    lv = log_sphere_volume(d, R)
    return 0.0 if lv == -math.inf else math.exp(lv)


def sphere_surface(d: int, r: float) -> float:
    """Surface content 2 pi^(d/2) r^(d-1) / Gamma(d/2) of the d-ball boundary."""
    d = _check_ball(d, r)
    if r == 0.0:
        return 2.0 if d == 1 else 0.0
    return math.exp(0.5 * d * _LNPI - math.lgamma(0.5 * d) + _LN2 + (d - 1) * math.log(r))


def _stirling_rest(z: float) -> float:
    """ln Gamma(z) - [(z - 1/2) ln z - z + ln(2 pi)/2], Stirling's series from z = 10 on."""
    if z < 10.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _LN_SQRT_2PI
    w = 1.0 / (z * z)
    s = 0.0
    for coef in reversed(_STIRLING):
        s = s * w + coef
    return s / z


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b) for a, b > 0, from Stirling's form of each ln Gamma.

    The O(a + b) parts are summed as (a - 1/2) ln(1 + b/a) + b ln(1 + a/b),
    so nothing cancels: differences of math.lgamma lose up to 1e-12 absolute
    at a = b = 444, where each ln Gamma is about 2,000.
    """
    return (
        _LN_SQRT_2PI - 0.5 * math.log(b) - (a - 0.5) * math.log1p(b / a) - b * math.log1p(a / b)
        + _stirling_rest(a) + _stirling_rest(b) - _stirling_rest(a + b)
    )


def _cd(d: int) -> float:
    # c(d) = 2 Gamma(1+d/2) / (sqrt(pi) Gamma((d+1)/2)) = 2 / B(1/2, (d+1)/2)
    return 2.0 * math.exp(-_log_beta(0.5 * (d + 1), 0.5))


def _beta_cf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """K(x) in I_x(a, b) = x^a (1-x)^b K(x) / (a B(a, b)), per point (DLMF 8.17.22).

    K = 1/(1 + d_1/(1 + d_2/(1 + ...))) is summed from its tail up, where
    rounding errors are damped at each level instead of multiplied as in a
    forward (Lentz) evaluation. A point is done at the first depth in
    _BETA_CF_DEPTHS at which K's sensitivity to the value the tail starts
    from falls below eps relative; its depth, and so its bits, do not depend
    on the other points of the array.
    """
    out = np.empty_like(x)
    todo = np.arange(x.size)
    for n in _BETA_CF_DEPTHS:
        # d_{2m+1} / x for m = 0.. and d_{2m} / x for m = 1..
        coef = np.empty(n)
        m = np.arange(n // 2)
        coef[0::2] = -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1.0))
        m = m + 1
        coef[1::2] = m * (b - m) / ((a + 2 * m - 1.0) * (a + 2 * m))
        xs = x[todo]
        t = np.ones_like(xs)
        gain = np.ones_like(xs)
        for c in coef[::-1]:
            cx = c * xs
            gain *= np.abs(cx) / (t * t)
            t = 1.0 + cx / t
        done = gain <= np.finfo(float).eps * t
        out[todo[done]] = 1.0 / t[done]
        todo = todo[~done]
        if not todo.size:
            return out
    raise RuntimeError(
        f"incomplete beta continued fraction I_x({a:g}, {b:g}) did not converge in "
        f"{_BETA_CF_DEPTHS[-1]} terms at x = {x[todo[0]]!r}"
    )


def _betainc(a: float, b: float, x: np.ndarray, xc: np.ndarray) -> np.ndarray:
    """Regularized incomplete beta I_x(a, b) for 0 <= x <= 1, with xc = 1 - x.

    xc is passed separately, to full relative precision, so neither end of
    [0, 1] rounds away its digits. The continued fraction runs on the side
    x < (a+1)/(a+b+2), where it converges fast, and 1 - I_xc(b, a) gives the
    other side. The prefactor x^a xc^b / B(a, b) is formed in log space
    (_log_beta). Float arrays x, xc of one shape; RuntimeError if the fraction
    does not converge.
    """
    with np.errstate(divide="ignore"):
        front = np.exp(a * np.log(x) + b * np.log(xc) - _log_beta(a, b))
    out = np.empty_like(x)
    lo = x < (a + 1.0) / (a + b + 2.0)
    out[lo] = front[lo] / a * _beta_cf(a, b, x[lo])
    hi = ~lo
    out[hi] = 1.0 - front[hi] / b * _beta_cf(b, a, xc[hi])
    return out


def _check_dr(d: int, R: float) -> int:
    """d as an int (`_check_ball`), or ValueError unless R > 0."""
    d = _check_ball(d, 0.0)
    if not (R > 0.0):
        raise ValueError(f"sphere radius must be positive, got {R}")
    return d


def alpha2(d: int, r, R: float = 1.0):
    """alpha2 = I_{1-x^2}((d+1)/2, 1/2) at x = r/(2R) clipped to [0, 1].

    1 - x^2 is formed as (1 - x)(1 + x) and passed with x^2, so both keep
    their relative precision: a rounded x^2 subtracted from 1 would lose
    the digits of a small 1 - x^2 as x -> 1. Scalar or ndarray in r.
    """
    d = _check_dr(d, R)
    ra = np.asarray(r, dtype=float)
    if np.isnan(ra).any():
        raise ValueError("center distance r must not be NaN")
    x = np.atleast_1d(np.clip(ra / (2.0 * R), 0.0, 1.0))
    out = _betainc(0.5 * (d + 1), 0.5, (1.0 - x) * (1.0 + x), x * x)
    return float(out[0]) if ra.ndim == 0 else out

