"""Bessel J of real order, its first zeros, and n-sphere geometry.

Bessel evaluation is delegated to scipy's AMOS-backed ``jv``. (Closed
half-integer forms, the Watson asymptotic form and the large-order zero
expansion survive only as oracles in the tests.)
All sphere volumes/surfaces go through log space so nothing overflows
before d is well past 300.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, jv

from .rootfind import brentq

__all__ = [
    "bessel_j",
    "bessel_lambda",
    "first_zero",
    "sphere_volume",
    "log_sphere_volume",
    "sphere_surface",
]

LN2 = math.log(2.0)
LNPI = math.log(math.pi)

#: quoted coefficients of the large-order expansion of the first positive
#: zero of J_nu; kept at their published precision on purpose, because the
#: pinned expansion values depend on this exact rounding.
A1 = 1.8557571
A2 = 1.033150
A3 = -0.003971

_NU_MAX = 1.0e4


def _check_order(nu) -> float:
    nu = float(nu)
    if not math.isfinite(nu) or nu < 0.0 or nu > _NU_MAX:
        raise ValueError(f"Bessel order out of supported range [0, {_NU_MAX:g}]: {nu}")
    return nu


def bessel_j(nu: float, x):
    """J_nu(x) for real order nu >= 0 and x >= 0 (scalar or ndarray)."""
    nu = _check_order(nu)
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)) or np.any(xa < 0.0):
        raise ValueError("bessel_j argument must be finite and nonnegative")
    out = jv(nu, xa)
    return float(out) if xa.ndim == 0 else out


def bessel_lambda(mu: float, x):
    """Normalized kernel 2^mu Gamma(mu+1) J_mu(x) / x^mu, equal to 1 at x=0.

    This is the radial profile that every structure-factor expression in the
    package is built from (it is, up to constants, the Fourier transform of a
    ball indicator). Two regimes:

    * x <= 2*sqrt(mu+1): ascending series. Terms decay immediately in this
      range, and the x=0 limit comes out exactly 1 with no 0/0 evaluated.
    * larger x: scipy jv combined in log space, sign carried separately, so
      the 2^mu Gamma(mu+1) / x^mu prefactor never overflows even at mu=150.

    Orders down to -1/2 are allowed (the d=1 contact term needs mu = -1/2,
    where this kernel degenerates to cos x).

    A float argument (the root finders pass one per call) runs the same
    operations on plain floats, bitwise equal to the array route but without
    its per-call array overhead.
    """
    mu = float(mu)
    if not math.isfinite(mu) or mu < -0.5 or mu > _NU_MAX:
        raise ValueError(f"kernel order out of supported range [-0.5, {_NU_MAX:g}]: {mu}")
    if isinstance(x, float):
        return _bessel_lambda_scalar(mu, x)
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)) or np.any(xa < 0.0):
        raise ValueError("bessel_lambda argument must be finite and nonnegative")
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa).astype(float)
    out = np.empty_like(xa)

    small = xa <= 2.0 * math.sqrt(mu + 1.0)
    xs = xa[small]
    if xs.size:
        q = 0.25 * xs * xs
        term = np.ones_like(xs)
        acc = np.ones_like(xs)
        for n in range(1, 80):
            term = term * (-q) / (n * (n + mu))
            acc += term
            if np.all(np.abs(term) <= 1e-17 * np.abs(acc)):
                break
        out[small] = acc

    xl = xa[~small]
    if xl.size:
        j = jv(mu, xl)
        mag = mu * LN2 + gammaln(mu + 1.0) + np.log(np.abs(j) + 1e-320) - mu * np.log(xl)
        out[~small] = np.sign(j) * np.exp(mag)

    return float(out[0]) if scalar else out


def _bessel_lambda_scalar(mu: float, x: float) -> float:
    """bessel_lambda for one float x, operation for operation as the array route."""
    if not math.isfinite(x) or x < 0.0:
        raise ValueError("bessel_lambda argument must be finite and nonnegative")
    if x <= 2.0 * math.sqrt(mu + 1.0):
        q = 0.25 * x * x
        term = acc = 1.0
        for n in range(1, 80):
            term = term * (-q) / (n * (n + mu))
            acc += term
            if abs(term) <= 1e-17 * abs(acc):
                break
        return float(acc)
    j = jv(mu, x)
    mag = mu * LN2 + gammaln(mu + 1.0) + np.log(np.abs(j) + 1e-320) - mu * np.log(x)
    return float(np.sign(j) * np.exp(mag))


def first_zero(nu: float) -> float:
    """Smallest positive zero of J_nu, to better than 1e-9 absolute.

    Walks right from x = nu (J_nu is positive there) in steps small enough
    that the first sign change cannot be skipped, then polishes with Brent.
    The search cap nu + 3 nu^(1/3) + 4 sits well past the first zero at
    every order.
    """
    nu = _check_order(nu)
    if nu < 0.5:
        raise ValueError("first_zero supports nu >= 0.5 (d >= 1)")
    cap = nu + 3.0 * nu ** (1.0 / 3.0) + 4.0
    step = 0.25 * max(nu, 1.0) ** (1.0 / 3.0)
    a = nu
    fa = jv(nu, a)
    while a < cap:
        b = min(a + step, cap)
        fb = jv(nu, b)
        if fa > 0.0 and fb <= 0.0:
            return float(brentq(lambda t: jv(nu, t), a, b, xtol=1e-12, maxiter=200))
        a, fa = b, fb
    raise RuntimeError(
        f"no sign change of J_nu in bracket [{nu:.6g}, {cap:.6g}]; "
        "zero search did not converge"
    )


def log_sphere_volume(d: int, R: float) -> float:
    """log of the d-volume of a radius-R ball; -inf at R=0."""
    if d < 1 or d != int(d):
        raise ValueError(f"dimension must be a positive integer, got {d}")
    if R < 0.0:
        raise ValueError("radius must be nonnegative")
    if R == 0.0:
        return -math.inf
    d = int(d)
    return 0.5 * d * LNPI - gammaln(1.0 + 0.5 * d) + d * math.log(R)


def sphere_volume(d: int, R: float) -> float:
    """Volume pi^(d/2) R^d / Gamma(1+d/2) of a d-ball, computed in log space."""
    lv = log_sphere_volume(d, R)
    return 0.0 if lv == -math.inf else math.exp(lv)


def sphere_surface(d: int, r: float) -> float:
    """Surface content 2 pi^(d/2) r^(d-1) / Gamma(d/2) of the d-ball boundary."""
    if d < 1 or d != int(d):
        raise ValueError(f"dimension must be a positive integer, got {d}")
    if r < 0.0:
        raise ValueError("radius must be nonnegative")
    d = int(d)
    if r == 0.0:
        return 2.0 if d == 1 else 0.0
    return math.exp(0.5 * d * LNPI - gammaln(0.5 * d) + LN2 + (d - 1) * math.log(r))
