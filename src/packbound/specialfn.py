"""The normalized Bessel kernel, the first zeros of J_nu and zeta(d), on numpy alone.

The kernel and the zeros share one order cap (_LAMBDA_MU_MAX). The kernel
bessel_lambda sums its ascending series up to one switch point per order
(_series_end) and past it takes J_mu from Miller's backward recurrence (DLMF
3.6(iii), 10.74(iv)), which is stable for the minimal solution J_mu
(Gautschi, SIAM Review 9, 1967), normalized by DLMF 10.12.4 on integer orders
and by the closed forms of J_{+-1/2} (DLMF 10.16.1) on half-integer ones.
The array and the float routes share the series (_ascending_series), the
normalization (_normalized) and the log-space step (_log_space), and make
the same recurrence steps, so they agree bitwise. first_zero walks the
kernel itself. (Closed half-integer forms, the Watson asymptotic form and
the large-order zero expansion survive only as oracles in the tests.)
Landau's bound |J_mu(x)| <= c x^(-1/3) gives a closed-form envelope of the
normalized kernel's tail (log_lambda_envelope). zeta is Riemann's zeta at the
integers, for Minkowski's bound. Ball volumes and surfaces live in geometry.
"""

from __future__ import annotations

import math

import numpy as np

from .rootfind import brentq

__all__ = [
    "LAMBDA_X_MAX",
    "bessel_lambda",
    "log_lambda_envelope",
    "first_zero",
    "zeta",
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

# largest order of bessel_lambda and first_zero: nu + 2 at d = 1000, the most
# any caller reads
_LAMBDA_MU_MAX = 502.0

#: largest argument of bessel_lambda: a recurrence sweep costs about x steps,
#: and sk's default curve end is at most 1,229 (at d = 1000)
LAMBDA_X_MAX = 1e4

# Miller's recurrence scales a point down by 2^-332 once its magnitude passes
# 2^332 (8.7e99), so squares of two values stay finite: the array route checks
# at every 8th index of the ladder (where points also start), the float route
# after every second step. A power of two scales exactly and _log_space reads
# the exponent exactly, so a point's bits do not depend on when, or next to
# which other points, it was rescaled
_RESCALE_EVERY = 8
_RESCALE_EXP = 332
_RESCALE_AT = 2.0**_RESCALE_EXP
_RESCALE_BY = 2.0**-_RESCALE_EXP
_LN_2_OVER_PI = math.log(2.0 / math.pi)

# B_2k / (2k)! for k = 1..6, the Euler-Maclaurin coefficients of zeta
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000)

_ARGUMENT_ERROR = f"bessel_lambda argument must be finite and nonnegative, at most {LAMBDA_X_MAX:g}"


def _order_in_range(mu, lo: float, what: str) -> float:
    """mu as a float, or ValueError unless mu is an integer or half-integer in
    [lo, _LAMBDA_MU_MAX] (NaN fails)."""
    mu = float(mu)
    if not (lo <= mu <= _LAMBDA_MU_MAX and (2.0 * mu).is_integer()):
        raise ValueError(
            f"{what} order out of supported range [{lo:g}, {_LAMBDA_MU_MAX:g}] "
            f"of integers and half-integers: {mu}"
        )
    return mu


def bessel_lambda(mu: float, x):
    """Normalized kernel 2^mu Gamma(mu+1) J_mu(x) / x^mu, equal to 1 at x=0.

    This is the radial profile that every structure-factor expression in the
    package is built from (it is, up to constants, the Fourier transform of a
    ball indicator). Two regimes, split at _series_end(mu) = 2 sqrt(mu+1):

    * up to it: the ascending series, whose terms decay at once there. The x=0
      limit comes out exactly 1 with no 0/0 evaluated.
    * past it: J_mu by Miller's backward recurrence (_miller_float,
      _miller_array), combined in log space with the sign carried separately,
      so the 2^mu Gamma(mu+1) / x^mu prefactor never overflows and J_mu never
      underflows.

    Orders are the integers and half-integers from -1/2 (the d=1 contact term
    needs mu = -1/2, where this kernel degenerates to cos x) to 502, the only
    orders the package reads, and x runs from 0 to LAMBDA_X_MAX; anything
    else is a ValueError.

    A float argument (the root finders pass one per call) runs the same series
    and recurrence on plain floats, bitwise equal to the array route but
    without its per-call array overhead. Each point of an array gets the bits
    it would get alone, whatever other points share the call.
    """
    mu = _order_in_range(mu, -0.5, "kernel")
    if isinstance(x, float):
        if not 0.0 <= x <= LAMBDA_X_MAX:
            raise ValueError(_ARGUMENT_ERROR)
        if x <= _series_end(mu):
            return float(_ascending_series(mu, x, bool))
        return _miller_float(mu, x, 1)[0]
    xa = np.asarray(x, dtype=float)
    if not np.all((xa >= 0.0) & (xa <= LAMBDA_X_MAX)):
        raise ValueError(_ARGUMENT_ERROR)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa).astype(float)
    out = np.empty_like(xa)
    small = xa <= _series_end(mu)
    if np.any(small):
        out[small] = _ascending_series(mu, xa[small], np.all)
    if not np.all(small):
        out[~small] = _miller_array(mu, xa[~small])
    return float(out[0]) if scalar else out


def _lambda_pair(mu: float, x: float) -> tuple[float, float]:
    """(L_mu(x), L_{mu+1}(x)) for one float x, as bessel_lambda reads each
    below its series end, else from one recurrence sweep for both orders.
    Unchecked: mu lies on bessel_lambda's ladder up to 501, and x in
    [0, LAMBDA_X_MAX]."""
    if x > _series_end(mu + 1.0):
        lo, hi = _miller_float(mu, x, 2)
        return lo, hi
    return bessel_lambda(mu, x), float(_ascending_series(mu + 1.0, x, bool))


def _series_end(mu: float) -> float:
    """Largest x at which bessel_lambda sums its ascending series (see there)."""
    return 2.0 * math.sqrt(mu + 1.0)


def _ascending_series(mu: float, x, settled):
    """sum_n (-x^2/4)^n / (n! (mu+1)_n), the kernel's ascending series, for a
    float or an array x; it stops at the first fourth term for which settled
    (bool or np.all) holds |term| <= 1e-17 |sum|, or after 79 terms. Up to
    the series end the terms shrink from n = 1 on, so a term past that point
    is below half an ulp of the sum and leaves it unchanged: where the check
    runs, and for which other points, does not move a bit."""
    q = 0.25 * x * x
    term = acc = 1.0 + 0.0 * x
    for n in range(1, 80):
        term = term * (-q) / (n * (n + mu))
        acc = acc + term
        if not n & 3 and settled(abs(term) <= 1e-17 * abs(acc)):
            break
    return acc


def _ladder(mu: float) -> tuple[float, int]:
    """(base, j): mu = base + j on the recurrence ladder, whose base is 0 for
    integer orders and -1/2 for half-integer ones."""
    base = 0.0 if mu.is_integer() else -0.5
    return base, int(mu - base)


def _start_index(base: float, top: float, x):
    """Ladder index at which Miller's sweep starts, for a float or an array x:
    the first multiple of _RESCALE_EVERY past max(x, top) + 10 x^(1/3) + 20.
    From there the truncation error at every order up to top is below
    rounding (6 x^(1/3) + 20 is not: it was 3.5e-12 off mpmath at mu = 501,
    x = 508)."""
    n = np.maximum(x, top) + 10.0 * np.cbrt(x) + 20.0 - base
    return (n // _RESCALE_EVERY + 1.0) * _RESCALE_EVERY


def _miller_float(mu: float, x: float, count: int) -> list[float]:
    """L_mu(x), and L_{mu+1}(x) if count is 2, for one float x past the
    series ends, by Miller's backward recurrence J_{n-1} = (2n/x) J_n - J_{n+1}
    from _start_index down to the ladder's base, where the sweep is
    normalized (_normalized).

    The loop steps two orders at a time from an even index and rescales after
    each pair. _miller_array makes the same operations on arrays, and
    _log_space makes the result independent of when a value was rescaled.
    """
    base, j_mu = _ladder(mu)
    j = int(_start_index(base, mu + count - 1.0, x))
    # 2n/x for n = base + j down to base + 1, divided as _miller_array divides
    steps = (2.0 * (base + np.arange(j, 0, -1.0)) / x).tolist()
    j_even = j_mu + (j_mu & 1)  # the sweep pauses there to read the wanted orders
    f, g, acc, scale = 1.0, 0.0, 0.0, 0  # J_{base+j}, J_{base+j+1}, unnormalized
    for lo, hi in ((j_even, j), (0, j_even)):
        pairs = iter(steps[j - hi:j - lo])
        for t1, t2 in zip(pairs, pairs):
            acc += f
            f, g = t1 * f - g, f
            f, g = t2 * f - g, f
            if f > _RESCALE_AT or f < -_RESCALE_AT:
                f *= _RESCALE_BY
                g *= _RESCALE_BY
                acc *= _RESCALE_BY
                scale += 1
        if hi == j:
            # J_mu and J_{mu+1}, one step on from j_even if j_mu is odd
            kept = [f, g] if j_even == j_mu else [steps[j - j_even] * f - g, f]
            kept_scale = scale
    out = []
    for i in range(count):
        m, e = math.frexp(_normalized(base, kept[i], f, g, acc, x))
        out.append(float(_log_space(mu + i, x, m, e - _RESCALE_EXP * (scale - kept_scale))))
    return out


def _miller_array(mu: float, x: np.ndarray) -> np.ndarray:
    """_miller_float for the order mu and a 1-D array x, point for point.

    Each point starts at its own _start_index: it holds 0 until the sweep
    reaches that index, and 0 recurs to 0 exactly. The sweep checks at every
    _RESCALE_EVERY-th index and rescales only the points past _RESCALE_AT.
    """
    base, j_mu = _ladder(mu)
    start = _start_index(base, mu, x).astype(int)
    f, g, acc, t = (np.zeros_like(x) for _ in range(4))
    scale = np.zeros(x.shape, dtype=int)
    even = base == 0.0
    for top in range(int(start.max()), 0, -_RESCALE_EVERY):
        f[start == top] = 1.0
        if np.abs(f).max() > _RESCALE_AT:
            big = np.abs(f) > _RESCALE_AT
            f[big] *= _RESCALE_BY
            g[big] *= _RESCALE_BY
            acc[big] *= _RESCALE_BY
            scale[big] += 1
        for j in range(top, top - _RESCALE_EVERY, -1):
            if j == j_mu:
                f_mu, scale_mu = f.copy(), scale.copy()
            if even and not j & 1:
                np.add(acc, f, acc)
            np.divide(2.0 * (base + j), x, t)
            np.multiply(t, f, t)
            np.subtract(t, g, g)
            f, g = g, f
    if j_mu == 0:
        f_mu, scale_mu = f, scale
    m, e = np.frexp(_normalized(base, f_mu, f, g, acc, x))
    return _log_space(mu, x, m, e - _RESCALE_EXP * (scale - scale_mu))


def _normalized(base: float, f_mu, f0, f1, acc, x):
    """J_mu(x) 2^(332 r) from a sweep's unnormalized f_mu, with r the number of
    times the sweep rescaled after reading f_mu, its ladder-base value f0, the
    next value f1 and, on an integer ladder, the sum acc of its even orders
    from 2 on. An integer ladder is normalized by 1 = J_0 + 2 sum_k J_2k
    (DLMF 10.12.4). A half-integer one is fitted to J_{1/2} = c sin x and
    J_{-1/2} = c cos x, c = sqrt(2/(pi x)) (DLMF 10.16.1); c is left to
    _log_space."""
    if base == 0.0:
        return f_mu / (f0 + 2.0 * acc)
    return f_mu * ((f1 * np.sin(x) + f0 * np.cos(x)) / (f1 * f1 + f0 * f0))


def _log_space(mu: float, x, m, e):
    """2^mu Gamma(mu+1) J_mu(x) / x^mu from J_mu(x) = m 2^e, or from
    J_mu(x) sqrt(pi x / 2) = m 2^e at half-integer mu, whose x-powers are then
    merged so that L_(-1/2) = cos x reads no log x.

    m and the exact integer e come from np.frexp or math.frexp, so the
    exponent does not depend on when a sweep rescaled, and e joins mu in one
    multiple of ln 2. Both routes form the sum with numpy's log and exp, so a
    float and an array point agree bitwise. An m of exactly 0 (a root finder
    can land on one) gives 0 with no log(0) evaluated.
    """
    log_m = np.log(np.abs(m) + 1e-320)
    power = (mu + e) * LN2
    if float(mu).is_integer():
        mag = power + math.lgamma(mu + 1.0) + log_m - mu * np.log(x)
    else:
        mag = power + (math.lgamma(mu + 1.0) + 0.5 * _LN_2_OVER_PI) + log_m - (mu + 0.5) * np.log(x)
    return np.sign(m) * np.exp(mag)


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


def zeta(d: int) -> float:
    """Riemann's zeta(d) for an integer d >= 2, within 1e-15 relative of 40-digit
    mpmath at every d in 2..1000 (worst at d = 2).

    Euler-Maclaurin (DLMF 25.2.9) at N = 10: the terms n^-d for n < 10, the
    integral and half-term of the tail from 10, and six Bernoulli terms
    B_2k/(2k)! d (d+1) ... (d+2k-2) 10^(1-d-2k); the tail is summed first,
    then n^-d from n = 9 down to 1. From d = 54 on it rounds to 1.
    """
    s = float(d)
    total = 10.0 ** (1.0 - s) / (s - 1.0) + 0.5 * 10.0**-s
    rising, power = s, 10.0 ** (-s - 1.0)
    for k, c in enumerate(_EM_COEFFS):
        total += c * rising * power
        rising *= (s + 2 * k + 1) * (s + 2 * k + 2)
        power /= 100.0
    for n in range(9, 0, -1):
        total += n**-s
    return total
