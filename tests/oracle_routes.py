"""Independent cross-check routes that the tests hold the library's formulas to.

Quadrature and series for alpha2, closed half-integer Bessel forms, a
quadrature S(k) for the closed models, and O(n^2) minimum-image references
for the ghost and standard RSA rules. Also the reference formulas that only
the tests evaluate: the center density, the pointwise g2 and small-k
expansion of the models, the Watson form and large-order zero expansion of
J_nu, large-d alpha2, the saturated ghost-process g2 and saturation time, the
asymptotic and exact Bessel slope halves, the general minima scan of S
for any (phi, sigma, Z), and the full-grid gap_feasible_t scan that the
program's tail-cut scan must reproduce bit for bit. No command uses any of
them.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, jv

from packbound.asymptotics import solve_constants
from packbound.geometry import (
    _cd,
    _check_dr,
    alpha2,
    log_sphere_volume,
    sphere_surface,
    sphere_volume,
)
from packbound.models import PackingDensity, RadialModel, _step_amplitude, structure_factor_gap
from packbound.optimizer import _sigma_free_kernels, _tangency_terms
from packbound.rootfind import brentq
from packbound.specialfn import (
    A1,
    A2,
    A3,
    bessel_lambda,
    first_zero,
)

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


def alpha2_asymptotic(d: int) -> float:
    """Large-d value of alpha2(R; R): sqrt(6/pi) (3/4)^(d/2) / sqrt(d)."""
    if d < 10:
        raise ValueError("asymptotic form is wired for d >= 10")
    return math.sqrt(6.0 / math.pi) * math.exp(0.5 * d * math.log(0.75)) / math.sqrt(d)


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


def zero_asymptotic(nu: float, which: str = "x0") -> float:
    """Large-order expansion of the first zero of J_nu (x0), J_{nu+1} (y0), J_{nu-1} (z0).

    x0 uses the plain expansion nu + a1 nu^(1/3) + a2 nu^(-1/3) + a3/nu.
    y0 and z0 are that expansion for order nu +- 1, re-expanded around nu,
    which shifts the leading term by 1 and adds +-(a1/(3 nu^(2/3)) -
    a2/(3 nu^(4/3))) from differentiating the fractional powers.
    """
    nu = float(nu)
    if not 10.0 <= nu < math.inf:
        raise ValueError(f"asymptotic zero expansion is wired for finite nu >= 10, got {nu}")
    t13 = nu ** (1.0 / 3.0)
    base = nu + A1 * t13 + A2 / t13 + A3 / nu
    if which == "x0":
        return base
    if which == "y0":
        s = 1.0
    elif which == "z0":
        s = -1.0
    else:
        raise ValueError(f"which must be one of x0, y0, z0; got {which!r}")
    return base + s * (1.0 + A1 / (3.0 * t13 * t13) - A2 / (3.0 * nu * t13))


def watson_j(nu: float, x: float) -> float:
    """One-term Watson asymptotic A_nu(x) cos(omega_nu(x) - pi/4) for x > nu."""
    nu, x = float(nu), float(x)
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"Watson form needs a finite order nu >= 0, got {nu}")
    if not math.isfinite(x) or x <= nu:
        raise ValueError(f"Watson form needs x > nu (oscillatory region); got x={x}, nu={nu}")
    w = math.sqrt(x * x - nu * nu)
    amp = math.sqrt(2.0 / (math.pi * w))
    phase = w - nu * math.acos(nu / x) if nu > 0.0 else w
    return amp * math.cos(phase - 0.25 * math.pi)


def center_density(density: PackingDensity) -> float:
    """Center density rho = phi / v1(1/2), assembled in log space."""
    if density.phi == 0.0:
        return 0.0
    return math.exp(math.log(density.phi) - log_sphere_volume(density.d, 0.5))


def g2_eval(model: RadialModel, density: PackingDensity, r: float):
    """(continuous part, delta weight at r=1) of g2 at radius r.

    The continuous part is the unit step at the model edge; the delta weight
    Z/(s1(1) rho) is returned separately since it cannot live in a pointwise
    value.
    """
    if r < 0.0:
        raise ValueError("radius must be nonnegative")
    cont = 1.0 if r >= model.sigma else 0.0
    if model.Z == 0.0 or density.phi == 0.0:
        weight = 0.0
    else:
        weight = model.Z / (sphere_surface(density.d, 1.0) * center_density(density))
    return cont, weight


def maclaurin_coefficients(model: RadialModel, density: PackingDensity):
    """(S(0), quadratic coefficient) of the small-k expansion.

    S(k) = S0 + c2 k^2 + O(k^4) with S0 = 1 - (2 sigma)^d phi + Z and
    c2 = (2 sigma)^d phi sigma^2 / (2(d+2)) - Z/(2d).
    """
    d = density.d
    t = _step_amplitude(d, density.phi, model.sigma)
    s0 = 1.0 - t + model.Z
    c2 = t * model.sigma**2 / (2.0 * (d + 2.0)) - model.Z / (2.0 * d)
    return s0, c2


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
    pref = center_density(density) * (2.0 * math.pi) ** nu

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


def saturation_time(d: int, deficit: float = 1e-4) -> float:
    """Horizon T at which phi_of_t is within the given deficit of saturation."""
    if not 0.0 < deficit < 1.0:
        raise ValueError("deficit must lie in (0, 1)")
    return -math.log(deficit) / sphere_volume(d, 1.0)


def g2_matern_limit(d: int, r: float) -> float:
    """Saturated (t -> infinity) ghost-process pair correlation, 2/beta2 beyond contact,
    with beta2 = 2 - alpha2 at any d."""
    if r < 0.0:
        raise ValueError(f"separation must be nonnegative, got {r}")
    if r < 1.0:
        return 0.0
    return 2.0 / (2.0 - alpha2(d, r, 1.0))


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


def c_expansions(nu):
    """Asymptotic slope halves at the first zeros of J_nu, J_{nu+1}, J_{nu-1}."""
    if nu < 20:
        raise ValueError(f"expansion is asymptotic; requires nu >= 20, got {nu}")
    c = solve_constants()
    base = c.C1 / nu ** (2.0 / 3.0) + c.C2 / nu ** (4.0 / 3.0)
    shift = 2.0 * c.C1 / (3.0 * nu ** (5.0 / 3.0))
    return (base, base - shift, base + shift)


def c_exact_triple(nu):
    """Bessel slope halves at the numeric first zeros of J_nu, J_{nu+1}, J_{nu-1}."""
    x0 = first_zero(nu)
    y0 = first_zero(nu + 1)
    z0 = first_zero(nu - 1)
    b1 = 0.5 * (jv(nu - 1, x0) - jv(nu + 1, x0))
    b2 = 0.5 * (jv(nu, y0) - jv(nu + 2, y0))
    b3 = 0.5 * (jv(nu - 2, z0) - jv(nu, z0))
    return (b1, b2, b3)


def oracle_k_grid(d: int) -> np.ndarray:
    """The scan grid of structure_factor_minima, kept apart from the program's _k_grid.

    It spans the program's k range, 1e-9 to nu + 12 max(nu, 1)^(1/3) + 30, at
    64/pi points per unit of k and never fewer than 3000, so coarsening the
    program's scan never coarsens the oracle it is held to.
    """
    nu = 0.5 * d
    k_hi = nu + 12.0 * max(nu, 1.0) ** (1.0 / 3.0) + 30.0
    return np.linspace(1e-9, k_hi, max(3000, int(k_hi * 64.0 / math.pi)))


def structure_factor_minima(d: int, phi: float, sigma: float, Z: float):
    """Local minima of S on oracle_k_grid(d), as a list of (k, S(k)).

    S'(k) is a positive multiple of D(k) = t sigma^2 L_{nu+1}(k sigma)/(d+2)
    - Z L_nu(k)/d (t = (2 sigma)^d phi), which is the quoted
    J_{nu+1}/J_nu derivative condition cleared of its k^nu denominators, so
    sign changes of D from - to + are exactly the minima. Each crossing is
    refined by Brent to well under 1e-10 in k.
    """
    if d < 1 or d != int(d):
        raise ValueError(f"dimension must be a positive integer, got {d}")
    if not (0.0 <= phi <= 1.0) or sigma < 1.0 or Z < 0.0:
        raise ValueError("infeasible parameters")
    if phi == 0.0 and Z == 0.0:
        return []
    d = int(d)
    nu = 0.5 * d
    t = _step_amplitude(d, phi, sigma)

    def D(k):
        return t * sigma**2 * bessel_lambda(nu + 1.0, k * sigma) / (d + 2.0) - Z * bessel_lambda(
            nu, k
        ) / d

    kk = oracle_k_grid(d)
    dd = D(kk)
    flips = np.flatnonzero((dd[:-1] < 0.0) & (dd[1:] >= 0.0))
    out = []
    for i in flips:
        km = brentq(D, kk[i], kk[i + 1], xtol=1e-12, maxiter=200)
        out.append((float(km), float(structure_factor_gap(d, phi, sigma, Z, km))))
    return out


def gap_feasible_t_full(d: int, sigma: float):
    """gap_feasible_t as it was before the tail cut: m on the whole _k_grid(d).

    Every m > 0 window of the grid is refined, however far past the Landau
    tail cut it lies, so it returns the same (t, k, dlog_t) as the
    program's scan only if the cut drops nothing that could bind.
    """
    nu = 0.5 * d
    t_quad = math.inf
    if d * sigma * sigma < d + 2.0:
        t_quad = (d + 2.0) / ((d + 2.0) - d * sigma * sigma)
    kk, lam_nm1_k = _sigma_free_kernels(d)
    u = 1.0 - lam_nm1_k
    m = bessel_lambda(nu, kk * sigma) - lam_nm1_k

    # Brent re-reads the checked bracket ends and returns a point it evaluated
    terms = functools.lru_cache(maxsize=None)(functools.partial(_tangency_terms, d, sigma))

    def N_of(k):
        uk, mk, up, mp, _ = terms(k)
        return up * mk - uk * mp

    best_t, best_k = t_quad, 0.0
    pos = np.flatnonzero(m > 0.0)
    if pos.size:
        runs = np.split(pos, np.flatnonzero(np.diff(pos) > 1) + 1)
        for run in runs:
            if run.size < 5:
                continue
            ratio = u[run] / m[run]
            # discrete local minima of the ratio, interior to the window
            loc = np.flatnonzero(
                (ratio[1:-1] <= ratio[:-2]) & (ratio[1:-1] <= ratio[2:])
            ) + 1
            # 1 <= j <= run.size - 2, so i - 1 and i + 1 stay inside the window
            for j in loc:
                i = run[j]
                if not N_of(kk[i - 1]) < 0.0 < N_of(kk[i + 1]):
                    raise RuntimeError(
                        f"tangency numerator does not change sign next to k={kk[i]:.6f} "
                        f"at d={d}, sigma={sigma:.12g}"
                    )
                k_root = brentq(N_of, kk[i - 1], kk[i + 1], xtol=1e-12, maxiter=200)
                uu, mm, *_ = terms(k_root)
                if mm <= 0.0:
                    continue
                t_cand = uu / mm
                if 1.0 <= t_cand < best_t:
                    best_t, best_k = t_cand, k_root
    if best_k == 0.0:
        return best_t, best_k, 2.0 * d * sigma / ((d + 2.0) - d * sigma * sigma)
    _, mm, _, _, neg_m_sigma = terms(best_k)
    return best_t, best_k, neg_m_sigma / mm
