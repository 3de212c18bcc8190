"""The normalized Bessel kernel and the first zeros of J_nu.

The kernel and the zeros share one order cap (_LAMBDA_MU_MAX). The kernel
bessel_lambda sums its ascending series below one switch point per order
(_series_end) and reads scipy's AMOS-backed ``jv`` past it, where jv is a
normal double. The array and the float routes sum that series in one helper
(_ascending_series). first_zero walks the kernel itself, so scipy is read
only in _lambda_via_jv, which imports scipy.special inside: importing this
module, as models, optimizer and asymptotics do, loads no scipy.
(Closed half-integer forms, the Watson asymptotic form and the large-order
zero expansion survive only as oracles in the tests.) Landau's bound
|J_mu(x)| <= c x^(-1/3) gives a closed-form envelope of the normalized
kernel's tail (log_lambda_envelope). Ball volumes and surfaces live in
geometry.
"""

from __future__ import annotations

import math

import numpy as np

from .rootfind import brentq

__all__ = [
    "bessel_lambda",
    "log_lambda_envelope",
    "first_zero",
]

LN2 = math.log(2.0)

#: quoted coefficients of the large-order expansion of the first positive
#: zero of J_nu; kept at their published precision on purpose, because the
#: pinned expansion values depend on this exact rounding.
A1 = 1.8557571
A2 = 1.033150
A3 = -0.003971

#: Landau's constant (J. London Math. Soc. 61, 2000): |J_mu(x)| <= c x^(-1/3)
#: for every mu >= 0 and x > 0. It is the supremum of x^(1/3) J_0(x),
#: 0.78574687049851... at x = 0.78366, rounded up.
LANDAU_C = 0.7857468705
_LN_LANDAU_C = math.log(LANDAU_C)

# ln 1e-290: bessel_lambda hands x to jv only past the point where the leading
# term of J_mu(x), (x/2)^mu / Gamma(mu+1), reaches this, so J_mu stays a normal
# double (DBL_MIN is 2.2e-308) wherever jv is read
_LN_JV_FLOOR = math.log(1e-290)

# largest order of bessel_lambda and first_zero: nu + 2 at d = 1000, the most
# any caller reads. The series holds 3.3e-13 of mpmath at its end x_u at this order, but its
# cancellation grows fast past it (7e-10 at order 600, garbage at 1000)
_LAMBDA_MU_MAX = 502.0


def _order_in_range(mu, lo: float, what: str) -> float:
    """mu as a float, or ValueError unless lo <= mu <= _LAMBDA_MU_MAX (NaN fails)."""
    mu = float(mu)
    if not lo <= mu <= _LAMBDA_MU_MAX:
        raise ValueError(f"{what} order out of supported range [{lo:g}, {_LAMBDA_MU_MAX:g}]: {mu}")
    return mu


def bessel_lambda(mu: float, x):
    """Normalized kernel 2^mu Gamma(mu+1) J_mu(x) / x^mu, equal to 1 at x=0.

    This is the radial profile that every structure-factor expression in the
    package is built from (it is, up to constants, the Fourier transform of a
    ball indicator). Two regimes, split at _series_end(mu):

    * x <= max(2 sqrt(mu+1), x_u), x_u = min(mu, the x where the leading term
      (x/2)^mu / Gamma(mu+1) of J_mu reaches 1e-290): ascending series. Up to
      2 sqrt(mu+1) its terms decay at once; x_u only moves the split for
      mu >= 346, where jv is subnormal or 0 just past 2 sqrt(mu+1), and there
      the series needs at most 38 terms up to mu = 502. The x=0 limit comes
      out exactly 1 with no 0/0 evaluated.
    * larger x: scipy jv, a normal double there (J_mu rises up to its first
      maximum, past mu), combined in log space with the sign carried
      separately, so the 2^mu Gamma(mu+1) / x^mu prefactor never overflows.

    Orders run from -1/2 (the d=1 contact term needs mu = -1/2, where this
    kernel degenerates to cos x) to 502.

    A float argument (the root finders pass one per call) runs the same
    series (_ascending_series) on a plain float, bitwise equal to the array
    route but without its per-call array overhead.
    """
    mu = _order_in_range(mu, -0.5, "kernel")
    if isinstance(x, float):
        return _bessel_lambda_scalar(mu, x)
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)) or np.any(xa < 0.0):
        raise ValueError("bessel_lambda argument must be finite and nonnegative")
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa).astype(float)
    out = np.empty_like(xa)

    small = xa <= _series_end(mu)
    xs = xa[small]
    if xs.size:
        out[small] = _ascending_series(mu, xs, np.all)

    xl = xa[~small]
    if xl.size:
        out[~small] = _lambda_via_jv(mu, xl)

    return float(out[0]) if scalar else out


def _series_end(mu: float) -> float:
    """Largest x at which bessel_lambda sums its ascending series (see there)."""
    x_u = 2.0 * math.exp((math.lgamma(mu + 1.0) + _LN_JV_FLOOR) / mu) if mu > 0.0 else 0.0
    return max(2.0 * math.sqrt(mu + 1.0), min(mu, x_u))


def _bessel_lambda_scalar(mu: float, x: float) -> float:
    """bessel_lambda for one float x, operation for operation as the array route."""
    if not math.isfinite(x) or x < 0.0:
        raise ValueError("bessel_lambda argument must be finite and nonnegative")
    if x <= _series_end(mu):
        return float(_ascending_series(mu, x, bool))
    return float(_lambda_via_jv(mu, x))


def _ascending_series(mu: float, x, settled):
    """sum_n (-x^2/4)^n / (n! (mu+1)_n), the kernel's ascending series, for a
    float or an array x; it stops after the first term for which settled
    (bool or np.all) holds |term| <= 1e-17 |sum|, or after 79 terms."""
    q = 0.25 * x * x
    term = acc = 1.0 + 0.0 * x
    for n in range(1, 80):
        term = term * (-q) / (n * (n + mu))
        acc = acc + term
        if settled(abs(term) <= 1e-17 * abs(acc)):
            break
    return acc


def _lambda_via_jv(mu: float, x):
    """bessel_lambda past _series_end(mu): jv in log space, the sign carried apart."""
    from scipy.special import gammaln, jv

    j = jv(mu, x)
    mag = mu * LN2 + gammaln(mu + 1.0) + np.log(np.abs(j) + 1e-320) - mu * np.log(x)
    return np.sign(j) * np.exp(mag)


def log_lambda_envelope(mu: float, x):
    """log B_mu(x) = mu ln 2 + ln Gamma(mu+1) + ln c - (mu + 1/3) ln x, with c = LANDAU_C.

    B_mu(x) bounds |bessel_lambda(mu, x)| for mu >= 0 and x > 0, and so does
    1 (the kernel's maximum, at x = 0), so min(1, B_mu) is the envelope. It
    decreases in x, like x^-(mu + 1/3). Scalar or ndarray x.
    """
    return mu * LN2 + math.lgamma(mu + 1.0) + _LN_LANDAU_C - (mu + 1.0 / 3.0) * np.log(x)


def first_zero(nu: float) -> float:
    """Smallest positive zero of J_nu, to better than 1e-9 absolute.

    Walks bessel_lambda(nu, x), which has the sign of J_nu for x > 0, right
    from x = nu (it is positive there) in steps small enough that the first
    sign change cannot be skipped, then polishes with Brent.
    The search cap nu + 3 nu^(1/3) + 4 sits well past the first zero at
    every order. Orders run from 1/2 (d = 1) to 502, bessel_lambda's cap.
    """
    nu = _order_in_range(nu, 0.5, "first_zero")
    cap = nu + 3.0 * nu ** (1.0 / 3.0) + 4.0
    step = 0.25 * max(nu, 1.0) ** (1.0 / 3.0)
    a = nu
    fa = bessel_lambda(nu, a)
    while a < cap:
        b = min(a + step, cap)
        fb = bessel_lambda(nu, b)
        if fa > 0.0 and fb <= 0.0:
            return float(brentq(lambda t: bessel_lambda(nu, t), a, b, xtol=1e-12, maxiter=200))
        a, fa = b, fb
    raise RuntimeError(
        f"no sign change of J_nu in bracket [{nu:.6g}, {cap:.6g}]; "
        "zero search did not converge"
    )
