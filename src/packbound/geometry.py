"""Ball volumes and surfaces, and scaled intersection and union volumes of equal-ball pairs.

Volumes and surfaces of d-balls go through log space with math.lgamma, so
nothing overflows before d is well past 1000.

alpha2(r; R) is the intersection volume of two radius-R balls with centers
a distance r apart, divided by the volume of one ball, evaluated as a
regularized incomplete beta function. (Quadrature and the odd-d-terminating
series survive only as oracles in the tests.) beta2 = 2 - alpha2, the scaled
union volume, is needed only at the simulator's dimensions d = 1, 2, 3 and
there takes its closed forms.

Importing this module loads no scipy: alpha2 and _cd import scipy.special
when first called, so the simulator, which needs only the ball formulas and
beta2, runs on numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "alpha2",
    "beta2",
    "log_sphere_volume",
    "sphere_volume",
    "sphere_surface",
]

_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)


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


def _cd(d: int) -> float:
    # c(d) = 2 Gamma(1+d/2) / (sqrt(pi) Gamma((d+1)/2))
    from scipy.special import gammaln

    return 2.0 * math.exp(gammaln(1.0 + 0.5 * d) - gammaln(0.5 * (d + 1))) / math.sqrt(math.pi)


def _check_dr(d: int, R: float) -> int:
    """d as an int (`_check_ball`), or ValueError unless R > 0."""
    d = _check_ball(d, 0.0)
    if not (R > 0.0):
        raise ValueError(f"sphere radius must be positive, got {R}")
    return d


def alpha2(d: int, r, R: float = 1.0):
    """alpha2 = I_{1-y}((d+1)/2, 1/2) with y = x^2, x = r/(2R) clipped to [0, 1].

    For y < 1/2 the symmetric form 1 - I_y(1/2, (d+1)/2) is used, since
    1 - y would round away the digits of a small y; for y >= 1/2, 1 - y is
    exact. Regularized incomplete beta via scipy, accurate to ~1e-14
    relative even in the far tail at d = 300. Scalar or ndarray in r.
    """
    from scipy.special import betainc, betaincc

    d = _check_dr(d, R)
    ra = np.asarray(r, dtype=float)
    x = np.clip(ra / (2.0 * R), 0.0, 1.0)
    y = np.atleast_1d(x * x)
    a = 0.5 * (d + 1)
    out = np.empty_like(y)
    # each form only on its own points: betaincc costs ~10x betainc per point
    lo = y < 0.5
    out[lo] = betaincc(0.5, a, y[lo])
    hi = ~lo
    out[hi] = betainc(a, 0.5, 1.0 - y[hi])
    return float(out[0]) if ra.ndim == 0 else out


def beta2(d: int, r, R: float = 1.0):
    """Scaled union volume beta2 = 2 - alpha2 at d = 1, 2, 3, in closed form.

    With x = r/(2R) clipped to [0, 1], alpha2 is 1 - x at d = 1,
    (2/pi)(acos x - x sqrt(1 - x^2)) at d = 2 and (1 - x)^2 (2 + x)/2 at
    d = 3, so beta2 is exactly 1 at r = 0 and exactly 2 for r >= 2R.
    Scalar or ndarray in r.
    """
    d = _check_dr(d, R)
    if d > 3:
        raise ValueError(f"beta2 is given for d = 1, 2, 3 only, got {d}")
    ra = np.asarray(r, dtype=float)
    x = np.clip(ra / (2.0 * R), 0.0, 1.0)
    if d == 1:
        a = 1.0 - x
    elif d == 2:
        a = 2.0 * (np.arccos(x) - x * np.sqrt((1.0 - x) * (1.0 + x))) / math.pi
    else:
        a = 0.5 * (1.0 - x) ** 2 * (2.0 + x)
    out = 2.0 - a
    return float(out) if ra.ndim == 0 else out
