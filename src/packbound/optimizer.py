"""Terminal densities for the three g2 models, plus classical reference bounds.

The step and delta models have closed-form optima. The gap model is a
two-parameter constrained maximization: at fixed step edge sigma, the
largest feasible contact amplitude t = (2 sigma)^d phi is the infimum of
u(k)/m(k) over wavenumbers where m > 0, with

    S(k) = u(k) - t m(k),  u = 1 - L_{nu-1}(k),  m = L_nu(k sigma) - L_{nu-1}(k)

and L the normalized Bessel kernel. The k -> 0 limit of u/m is the
quadratic-coefficient cap (d+2)/((d+2) - d sigma^2); interior infima are
tangency points, each found as the Brent root of the derivative numerator
N = u' m - u m' between the two grid neighbours of a discrete minimum of u/m.
The outer maximization of phi(sigma) = t(sigma)/(2 sigma)^d is one Brent
root of the envelope derivative d(log t)/d(sigma) - d/sigma over the whole
step-edge range [1, 1 + 4/d]. Both roots are sign-checked at their bracket
ends first. Z* = (2 sigma*)^d phi* - 1 comes from models.hyperuniform_Z,
the amplitude S(k) itself uses, so S(0) = 0 holds exactly in doubles.

All density bookkeeping is done on log(phi): at d = 200 the optimum is
5.7e-44 with t = 5e17, and naive products would lose it.
"""

from __future__ import annotations

import functools
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import zeta

from .models import hyperuniform_Z, log_amplitude, structure_factor_gap
from .specialfn import bessel_lambda

__all__ = [
    "TerminalDensityRecord",
    "ClassicalBounds",
    "TABLE_DIMS",
    "DENSEST_KNOWN",
    "terminal_step",
    "terminal_delta",
    "terminal_gap",
    "terminal_record",
    "check_dimension",
    "DIMENSION_RANGE",
    "MAX_CLOSED_FORM_D",
    "find_minima",
    "gap_feasible_t",
    "classical_bounds",
]

log = logging.getLogger(__name__)

#: dimensions of the reference optimum table
TABLE_DIMS = (3, 4, 5, 6, 7, 8, 24, 36, 56, 60, 64, 80, 100, 125, 150, 175, 200)

#: densest known lattice/packing densities quoted for comparison
DENSEST_KNOWN = {56: 2.327670e-11, 60: 2.966747e-13, 64: 1.326615e-12}

#: largest d of the closed-form optima and the classical bounds: 2^-d, the
#: step optimum, is still a normal double there (it underflows to 0 past
#: d = 1074, and 2.0 ** d overflows past 1023)
MAX_CLOSED_FORM_D = 1000

#: supported integer dimensions, inclusive, of each model, of classical_bounds
#: and of the asymptotics report (its expansions need d >= 20, and it stays
#: finite up to about d = 1380)
DIMENSION_RANGE = {
    "step": (1, MAX_CLOSED_FORM_D),
    "delta": (1, MAX_CLOSED_FORM_D),
    "gap": (2, 300),
    "classical": (2, MAX_CLOSED_FORM_D),
    "asymptotics": (20, MAX_CLOSED_FORM_D),
}


@dataclass(frozen=True)
class TerminalDensityRecord:
    d: int
    kind: str
    sigma_star: float
    Z_star: float
    phi_star: float
    k_min: float
    ratio: float
    min_S_residual: float

    def __post_init__(self):
        if not (0.0 < self.phi_star <= 1.0):
            raise ValueError(f"terminal density must lie in (0,1], got {self.phi_star}")
        if self.sigma_star < 1.0:
            raise ValueError("sigma_star must be >= 1")
        if self.min_S_residual > 1e-7:
            raise ValueError(
                f"record rejected: |S(k_min)| = {self.min_S_residual:.3e} exceeds 1e-7"
            )


@dataclass(frozen=True)
class ClassicalBounds:
    d: int
    minkowski: float
    ball: float
    greedy: float
    blichfeldt: float
    rogers: float
    kabatiansky_levenshtein: float
    densest_known: float | None = None


def check_dimension(kind: str, d) -> int:
    """d as an int if it lies in DIMENSION_RANGE[kind], else ValueError naming d."""
    lo, hi = DIMENSION_RANGE[kind]
    if d != int(d) or not lo <= d <= hi:
        raise ValueError(f"{kind} dimension must be an integer in [{lo}, {hi}], got {d}")
    return int(d)


def _ratio_column(d: int, log_phi: float) -> float:
    # 2^(d+1) phi / (d+2), assembled in log space
    return math.exp(log_phi + (d + 1) * math.log(2.0) - math.log(d + 2.0))


def terminal_step(d: int) -> TerminalDensityRecord:
    """phi* = 2^-d with sigma = 1, Z = 0; S(0) = 0 is the binding point."""
    d = check_dimension("step", d)
    log_phi = -d * math.log(2.0)
    return TerminalDensityRecord(
        d=d,
        kind="step",
        sigma_star=1.0,
        Z_star=0.0,
        phi_star=2.0**-d,
        k_min=0.0,
        ratio=_ratio_column(d, log_phi),
        min_S_residual=0.0,
    )


def terminal_delta(d: int) -> TerminalDensityRecord:
    """phi* = (d+2)/2^(d+1), Z* = d/2; verified against the numeric minima scan.

    At these values both S(0) and the quadratic coefficient vanish, so the
    binding wavenumber is k = 0.
    """
    d = check_dimension("delta", d)
    phi = (d + 2.0) / 2.0 ** (d + 1)
    Z = 0.5 * d
    minima = find_minima(d, phi, 1.0, Z, _search_k_max(d))
    floor = min((s for _, s in minima), default=0.0)
    if floor < -1e-9:
        raise RuntimeError(
            f"closed-form terminal parameters violate S >= 0 at d={d}: min S = {floor:.3e}"
        )
    log_phi = math.log(d + 2.0) - (d + 1) * math.log(2.0)
    return TerminalDensityRecord(
        d=d,
        kind="delta",
        sigma_star=1.0,
        Z_star=Z,
        phi_star=phi,
        k_min=0.0,
        ratio=_ratio_column(d, log_phi),
        min_S_residual=0.0,
    )


def _search_k_max(d: int) -> float:
    nu = 0.5 * d
    return nu + 12.0 * max(nu, 1.0) ** (1.0 / 3.0) + 30.0


def find_minima(d: int, phi: float, sigma: float, Z: float, k_max: float):
    """Local minima of S on (0, k_max] as a list of (k, S(k)).

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
    nu = 0.5 * d
    if k_max < nu + 6.0 * math.pi:
        raise ValueError(f"k_max={k_max:.3g} must cover six oscillations past nu={nu:.3g}")
    if phi == 0.0 and Z == 0.0:
        return []
    d = int(d)
    t = 0.0 if phi == 0.0 else math.exp(log_amplitude(d, phi, sigma))

    def D(k):
        return t * sigma**2 * bessel_lambda(nu + 1.0, k * sigma) / (d + 2.0) - Z * bessel_lambda(
            nu, k
        ) / d

    n = max(2000, int(k_max * 64.0 / math.pi))
    kk = np.linspace(1e-9, k_max, n)
    dd = D(kk)
    flips = np.flatnonzero((dd[:-1] < 0.0) & (dd[1:] >= 0.0))
    out = []
    for i in flips:
        km = brentq(D, kk[i], kk[i + 1], xtol=1e-12, maxiter=200)
        out.append((float(km), float(structure_factor_gap(d, phi, sigma, Z, km))))
    if out:
        deepest_k = min(out, key=lambda p: p[1])[0]
        if deepest_k > 0.98 * k_max:
            warnings.warn(
                f"deepest minimum at k={deepest_k:.4f} sits within 2% of k_max={k_max:.4f}; "
                "grid may be too short",
                RuntimeWarning,
            )
    return out


@functools.lru_cache(maxsize=4)
def _sigma_free_kernels(d: int):
    """k grid of gap_feasible_t and L_{nu-1}(k) on it, as read-only arrays."""
    k_hi = _search_k_max(d)
    n = max(3000, int(k_hi * 64.0 / math.pi))
    kk = np.linspace(1e-9, k_hi, n)
    arrays = (kk, bessel_lambda(0.5 * d - 1.0, kk))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def gap_feasible_t(d: int, sigma: float):
    """Largest t with S(k) = u - t m >= 0 everywhere, and its binding k.

    Candidates: the k -> 0 cap (d+2)/((d+2) - d sigma^2) when d sigma^2 < d+2,
    plus every interior stationary minimum of u/m on the m > 0 windows. A
    binding k of 0 means the quadratic cap is the active constraint.
    """
    nu = 0.5 * d
    t_quad = math.inf
    if d * sigma * sigma < d + 2.0:
        t_quad = (d + 2.0) / ((d + 2.0) - d * sigma * sigma)
    kk, lam_nm1_k = _sigma_free_kernels(d)
    u = 1.0 - lam_nm1_k
    m = bessel_lambda(nu, kk * sigma) - lam_nm1_k

    def N_of(k):
        lam_nm1 = bessel_lambda(nu - 1.0, k)
        lam_n = bessel_lambda(nu, k)
        lm = bessel_lambda(nu, k * sigma) - lam_nm1
        lu = 1.0 - lam_nm1
        lup = k * lam_n / (2.0 * nu)
        lmp = -k * sigma**2 * bessel_lambda(nu + 1.0, k * sigma) / (2.0 * (nu + 1.0)) + (
            k * lam_n / (2.0 * nu)
        )
        return lup * lm - lu * lmp

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
                lam_nm1 = bessel_lambda(nu - 1.0, k_root)
                mm = bessel_lambda(nu, k_root * sigma) - lam_nm1
                if mm <= 0.0:
                    continue
                t_cand = (1.0 - lam_nm1) / mm
                if 1.0 <= t_cand < best_t:
                    best_t, best_k = t_cand, k_root
    return best_t, best_k


def _envelope_derivative(d: int, sigma: float) -> float:
    """d(log phi)/d(sigma) at fixed binding constraint (envelope theorem)."""
    nu = 0.5 * d
    t, k_bind = gap_feasible_t(d, sigma)
    if k_bind == 0.0:
        # quadratic cap branch
        dlog_t = 2.0 * d * sigma / ((d + 2.0) - d * sigma * sigma)
    else:
        m = bessel_lambda(nu, k_bind * sigma) - bessel_lambda(nu - 1.0, k_bind)
        dlog_t = (
            k_bind**2 * sigma * bessel_lambda(nu + 1.0, k_bind * sigma) / (2.0 * (nu + 1.0))
        ) / m
    return dlog_t - d / sigma


@functools.lru_cache(maxsize=None)
def terminal_gap(d: int) -> TerminalDensityRecord:
    """Numeric gap-model optimum: one Brent root of the envelope derivative in sigma.

    The derivative is positive at sigma = 1 + 1e-9 and negative at 1 + 4/d
    for every supported d, so the whole range is the bracket. Z* is the
    contact weight that makes S(0) = 0 exactly. Pure function of d; memoized
    since the table emitters and the test suite ask for the same dimensions
    repeatedly.
    """
    d = check_dimension("gap", d)

    a, b = 1.0 + 1e-9, 1.0 + 4.0 / d
    g_a, g_b = _envelope_derivative(d, a), _envelope_derivative(d, b)
    if not g_a > 0.0 > g_b:
        raise RuntimeError(
            f"envelope derivative does not change sign on the step-edge range "
            f"at d={d}: g({a:.6f}) = {g_a:.3e}, g({b:.6f}) = {g_b:.3e}"
        )
    sigma_star = brentq(lambda s: _envelope_derivative(d, s), a, b, xtol=1e-12, maxiter=200)

    t_star, k_bind = gap_feasible_t(d, sigma_star)
    log_phi = math.log(t_star) - d * math.log(2.0 * sigma_star)
    phi_star = math.exp(log_phi)
    Z_star = hyperuniform_Z(d, phi_star, sigma_star)

    delta_phi_log = math.log(d + 2.0) - (d + 1) * math.log(2.0)
    if log_phi <= delta_phi_log:
        raise RuntimeError(
            f"gap search found no step edge beating the closed-form contact optimum at d={d}"
        )

    minima = find_minima(d, phi_star, sigma_star, Z_star, _search_k_max(d))
    if minima:
        k_first, s_first = minima[0]
        k_min, s_min = min(minima, key=lambda p: p[1])
        if k_min != k_first:
            log.info(
                "d=%d: deepest minimum %.6f is not the first positive one %.6f",
                d,
                k_min,
                k_first,
            )
    else:
        k_min, s_min = k_bind, structure_factor_gap(d, phi_star, sigma_star, Z_star, k_bind)
    residual = abs(s_min)
    if residual > 1e-7:
        raise RuntimeError(
            f"optimum at d={d} fails the structure-factor tangency check: "
            f"|S({k_min:.6f})| = {residual:.3e}"
        )
    return TerminalDensityRecord(
        d=d,
        kind="gap",
        sigma_star=float(sigma_star),
        Z_star=Z_star,
        phi_star=phi_star,
        k_min=k_min,
        ratio=_ratio_column(d, log_phi),
        min_S_residual=residual,
    )


def terminal_record(kind: str, d: int) -> TerminalDensityRecord:
    if kind == "step":
        return terminal_step(d)
    if kind == "delta":
        return terminal_delta(d)
    if kind == "gap":
        return terminal_gap(d)
    raise ValueError(f"unknown model kind {kind!r}")


def classical_bounds(d: int) -> ClassicalBounds:
    """Reference lower bounds (and the KL upper-style exponent) at dimension d."""
    d = check_dimension("classical", d)
    zd = float(zeta(d))
    return ClassicalBounds(
        d=d,
        minkowski=zd / 2.0 ** (d - 1),
        ball=2.0 * (d - 1) * zd / 2.0**d,
        greedy=2.0**-d,
        blichfeldt=(0.5 * d + 1.0) * 2.0 ** (-0.5 * d),
        rogers=(d / math.e) * 2.0 ** (-0.5 * d),
        kabatiansky_levenshtein=2.0 ** (-0.5990 * d),
        densest_known=DENSEST_KNOWN.get(d),
    )
