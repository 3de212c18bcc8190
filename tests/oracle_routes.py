"""Independent cross-check routes that the tests hold the library's formulas to.

Quadrature and series for alpha2, closed half-integer Bessel forms, a
quadrature S(k) for the closed models, and O(n^2) minimum-image references
for the ghost and standard RSA rules; no command uses them.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, jv

from packbound.geometry import _cd, _check_dr
from packbound.models import PackingDensity, g2_eval

_SERIES_TOL = 1e-14
_SERIES_MAX_TERMS = 800


def alpha2_integral(d: int, r: float, R: float) -> float:
    """Quadrature route c(d) * integral of sin^d(theta) on [0, arccos(r/2R)].

    The integrand is evaluated as exp(d log sin) so it cannot underflow
    prematurely at large d, and the tolerance is relative because the value
    itself is ~1e-26 by d = 200.
    """
    d = _check_dr(d, R)
    x = r / (2.0 * R)
    if x >= 1.0:
        return 0.0
    if x <= 0.0:
        return 1.0
    top = math.acos(x)

    def integrand(t: float) -> float:
        s = math.sin(t)
        return 0.0 if s <= 0.0 else math.exp(d * math.log(s))

    val, err = quad(integrand, 0.0, top, epsabs=1e-300, epsrel=1e-11, limit=300)
    if err > 1e-8 * max(abs(val), 1e-300):
        warnings.warn(
            f"alpha2 quadrature error estimate {err:.2e} at d={d}, r/2R={x:.4f}",
            RuntimeWarning,
        )
    return _cd(d) * val


def alpha2_series(d: int, r: float, R: float) -> float:
    """Series route: 1 - c x + c * sum_{n>=2} (-1)^n P_n x^(2n-1).

    P_n = (d-1)(d-3)...(d-2n+3) / ((2n-1) * 2*4*...*(2n-2)), so for odd d
    the numerator hits zero and the series is exactly a degree-d polynomial.
    For even d, terms shrink like x^2 per step; if the tail has not dropped
    below 1e-14 within the term budget (x near 1), fall back to quadrature.
    """
    d = _check_dr(d, R)
    x = r / (2.0 * R)
    if x > 1.0 + 1e-12:
        raise ValueError("series form is defined on r <= 2R")
    x = min(x, 1.0)
    if x == 0.0:
        return 1.0
    c = _cd(d)
    acc = 1.0 - c * x
    # signed term (-1)^n P_n x^(2n-1), started at n=2
    term = ((d - 1.0) / 6.0) * x**3
    n = 2
    while n < _SERIES_MAX_TERMS:
        acc += c * term
        if abs(term) < _SERIES_TOL:
            return acc
        term *= -x * x * (d - 2.0 * n + 1.0) * (2.0 * n - 1.0) / ((2.0 * n + 1.0) * 2.0 * n)
        n += 1
    warnings.warn(
        f"alpha2 series tail still {abs(term):.2e} after {n} terms at d={d}, "
        f"x={x:.6f}; using quadrature instead",
        RuntimeWarning,
    )
    return alpha2_integral(d, r, R)


def bessel_j_half(nu: float, x):
    """Closed trigonometric forms of J_nu for nu in {1/2, 3/2, 5/2}."""
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0.0):
        raise ValueError("closed half-integer forms need x > 0")
    pref = np.sqrt(2.0 / (math.pi * xa))
    s, c = np.sin(xa), np.cos(xa)
    if nu == 0.5:
        out = pref * s
    elif nu == 1.5:
        out = pref * (s / xa - c)
    elif nu == 2.5:
        out = pref * ((3.0 / xa**2 - 1.0) * s - 3.0 * c / xa)
    else:
        raise ValueError(f"no closed form wired up for nu={nu}")
    return float(out) if xa.ndim == 0 else out


def _kernel(nu: float, u):
    """Pedestrian J_{nu-1}(u)/u^(nu-1), Taylor-guarded at small u.

    Deliberately does not share code with bessel_lambda.
    """
    m = nu - 1.0
    u = float(u)
    if u < 1e-4:
        lead = math.exp(-(m * math.log(2.0) + gammaln(m + 1.0)))
        return lead * (1.0 - u * u / (4.0 * nu))
    return jv(m, u) / u**m


def structure_factor_numeric(model, density: PackingDensity, k: float) -> float:
    """Quadrature S(k) for a closed model: exact-support integral plus analytic delta.

    h(r) = g2(r) - 1 is -1 below the step edge and 0 beyond it, so the
    continuous part of the transform is a finite integral over [0, sigma]
    rather than an oscillatory infinite-range one.
    """
    d = density.d
    nu = 0.5 * d
    k = float(k)
    if k < 0.0:
        raise ValueError("wavenumber must be nonnegative")
    if density.phi == 0.0 and model.Z == 0.0:
        return 1.0
    pref = density.rho * (2.0 * math.pi) ** nu

    def integrand(r: float) -> float:
        return -(r ** (d - 1)) * _kernel(nu, k * r)

    integral, err = quad(integrand, 0.0, model.sigma, epsabs=1e-13, epsrel=1e-11, limit=400)
    if err > 1e-8:
        warnings.warn(
            f"structure-factor quadrature error estimate {err:.2e} at k={k:.4f}",
            RuntimeWarning,
        )
    _, weight = g2_eval(model, density, 1.0)
    z_term = pref * weight * _kernel(nu, k) if weight else 0.0
    return 1.0 + pref * integral + z_term


def _torus_sq_dist(pos: np.ndarray, p: np.ndarray, L: float) -> np.ndarray:
    dd = np.abs(pos - p)
    dd = np.minimum(dd, L - dd)
    return (dd * dd).sum(axis=1)


def ghost_survivors_brute(pos: np.ndarray, times: np.ndarray, L: float) -> np.ndarray:
    """Ghost rule by all pairs: arrival i survives iff no earlier arrival lies within 1.

    Earlier means a smaller time, or an equal time and a smaller index.
    """
    n = len(pos)
    keep = np.ones(n, dtype=bool)
    idx = np.arange(n)
    for i in range(n):
        near = _torus_sq_dist(pos, pos[i], L) <= 1.0
        earlier = (times < times[i]) | ((times == times[i]) & (idx < i))
        keep[i] = not np.any(near & earlier)
    return keep


def rsa_kept_brute(pos: np.ndarray, times: np.ndarray, L: float) -> np.ndarray:
    """Standard RSA by scanning every kept sphere: arrivals in time order (stable),
    each kept iff no kept center lies within unit minimum-image distance."""
    kept: list[np.ndarray] = []
    for p in pos[np.argsort(times, kind="stable")]:
        if not kept or _torus_sq_dist(np.asarray(kept), p, L).min() > 1.0:
            kept.append(p)
    return np.asarray(kept).reshape(-1, pos.shape[1])
