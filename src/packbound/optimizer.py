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
The grid (_k_grid) only has to separate those roots, not resolve them, so it
holds 16/pi points per unit k: Brent refines each bracket to 1e-12 in k.
One scalar kernel (_tangency_terms) gives u, m and their slopes to N, to
t = u/m and to the slope d(log t)/d(sigma) at the binding k, which the scan
returns with t. That t already keeps S >= 0 on the scan grid: where m <= 0,
S = u - t m >= u >= 0 since |L| <= 1, and where m > 0, S = m (u/m - t) with
t the smallest refined u/m.
The outer maximization of phi(sigma) = t(sigma)/(2 sigma)^d is one Brent
root of the envelope derivative d(log t)/d(sigma) - d/sigma over the whole
step-edge range [1, 1 + 4/d], one memoized scan per step edge; both roots
are sign-checked at their bracket ends first. Z* = (2 sigma*)^d phi* - 1 is
models.hyperuniform_Z, the amplitude S(k) itself uses, so S(0) = 0 exactly.
The printed k_min is the binding tangency at sigma*, where S from the
independent models.structure_factor_gap formula must vanish to 1e-7. The
record carries phi_rel_err, the relative error bound of the numeric phi*
(1e-11), so that the Yamada check can tell which expected counts have a
fractional part that phi* fixes.
terminal_delta's S >= 0 check scans the same k grid with find_minima: at the
delta terminal S'(k) is a positive multiple of k^3 L_{nu+2}(k), so the minima
of S are the - to + sign changes of that one kernel, and S is read there once.

All density bookkeeping is done on log(phi): at d = 200 the optimum is
5.7e-44 with t = 5e17, and naive products would lose it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import zeta

from .models import hyperuniform_Z, structure_factor_gap
from .rootfind import brentq
from .specialfn import bessel_lambda

__all__ = [
    "TerminalDensityRecord",
    "ClassicalBounds",
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

# relative error bound of terminal_gap's phi*: over ten times the largest change
# of phi* between scans at 64/pi and 16/pi points per unit k over d = 2..300
# (9.4e-13, at d = 296), and above the sigma xtol (1e-12) times the slope
# jump of log phi at the d = 2 kink (2.9), 2.9e-12
_GAP_PHI_REL_ERR = 1e-11


@dataclass(frozen=True)
class TerminalDensityRecord:
    d: int
    sigma_star: float
    Z_star: float
    phi_star: float
    k_min: float
    ratio: float
    #: relative error of phi_star beyond rounding: 0 for the closed forms
    phi_rel_err: float = field(default=0.0, repr=False)

    def __post_init__(self):
        if not (0.0 < self.phi_star <= 1.0):
            raise ValueError(f"terminal density must lie in (0,1], got {self.phi_star}")
        if self.sigma_star < 1.0:
            raise ValueError("sigma_star must be >= 1")


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


def _delta_log_phi(d: int) -> float:
    # log of the contact optimum (d+2)/2^(d+1), which the gap optimum must beat
    return math.log(d + 2.0) - (d + 1) * math.log(2.0)


def _warn_near_grid_end(what: str, k: float, k_end: float) -> None:
    if k > 0.98 * k_end:
        warnings.warn(
            f"{what} at k={k:.4f} sits within 2% of the grid end "
            f"k={k_end:.4f}; grid may be too short",
            RuntimeWarning,
        )


def terminal_step(d: int) -> TerminalDensityRecord:
    """phi* = 2^-d with sigma = 1, Z = 0; S(0) = 0 is the binding point."""
    d = check_dimension("step", d)
    log_phi = -d * math.log(2.0)
    return TerminalDensityRecord(
        d=d,
        sigma_star=1.0,
        Z_star=0.0,
        phi_star=2.0**-d,
        k_min=0.0,
        ratio=_ratio_column(d, log_phi),
    )


def terminal_delta(d: int) -> TerminalDensityRecord:
    """phi* = (d+2)/2^(d+1), Z* = d/2; S is checked at every local minimum find_minima finds.

    At these values both S(0) and the quadratic coefficient vanish, so the
    binding wavenumber is k = 0.
    """
    d = check_dimension("delta", d)
    phi = (d + 2.0) / 2.0 ** (d + 1)
    Z = 0.5 * d
    k = find_minima(d)
    if k.size:
        S = structure_factor_gap(d, phi, 1.0, Z, k)
        i = int(np.argmin(S))
        if S[i] < -1e-9:
            raise RuntimeError(
                f"closed-form terminal parameters violate S >= 0 at d={d}: min S = {S[i]:.3e}"
            )
        _warn_near_grid_end("deepest minimum", k[i], _k_grid(d)[-1])
    return TerminalDensityRecord(
        d=d,
        sigma_star=1.0,
        Z_star=Z,
        phi_star=phi,
        k_min=0.0,
        ratio=_ratio_column(d, _delta_log_phi(d)),
    )


def find_minima(d: int) -> np.ndarray:
    """Wavenumbers of the local minima of S at the delta terminal, on the scan grid _k_grid(d).

    With sigma = 1, t = (d+2)/2 and Z = d/2, the recurrence
    L_{mu-1} - L_mu = -x^2 L_{mu+1} / (4 mu (mu+1)) turns the two-kernel slope
    of S into one kernel: S'(k) = k^3 L_{nu+2}(k) / (8 (nu+1) (nu+2)). So the
    minima are exactly the sign changes of L_{nu+2} from - to +, each refined
    by Brent to well under 1e-10 in k.
    """
    mu = 0.5 * d + 2.0
    kk = _k_grid(d)
    lam = bessel_lambda(mu, kk)
    flips = np.flatnonzero((lam[:-1] < 0.0) & (lam[1:] >= 0.0))
    lam_mu = functools.partial(bessel_lambda, mu)
    return np.array([brentq(lam_mu, kk[i], kk[i + 1], xtol=1e-12, maxiter=200) for i in flips])


def _k_grid(d: int) -> np.ndarray:
    """The one scan grid of find_minima and gap_feasible_t.

    It runs from 1e-9 to nu + 12 max(nu, 1)^(1/3) + 30, past the binding
    tangency at every supported d, at 16/pi points per unit of k and never
    fewer than 750, so its spacing is at most pi/15.9. Brent refines every
    bracket to 1e-12, so the grid only has to separate roots, not resolve them:
    - sign changes of L_{nu+2} (find_minima) are zeros of J_{nu+2}, which lie
      more than pi apart for orders above 1/2, so at least 15 grid points fall
      between two of them and each minimum gets its own bracket;
    - an m > 0 window that gap_feasible_t skips (under 5 points) is shorter
      than 5 spacings, about pi/3. At the optima of d = 2..300 there are three,
      at d = 5, 22 and 23, each cut off by the grid end, where u/m exceeds
      600 t.
    The tests check S >= 0 at each tabulated optimum at 512/pi points per unit.
    """
    nu = 0.5 * d
    k_hi = nu + 12.0 * max(nu, 1.0) ** (1.0 / 3.0) + 30.0
    return np.linspace(1e-9, k_hi, max(750, int(k_hi * 16.0 / math.pi)))


@functools.lru_cache(maxsize=4)
def _sigma_free_kernels(d: int):
    """_k_grid(d) and L_{nu-1}(k) on it, as read-only arrays."""
    kk = _k_grid(d)
    arrays = (kk, bessel_lambda(0.5 * d - 1.0, kk))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _tangency_terms(d: int, sigma: float, k: float):
    """(u, m, u', m', -dm/dsigma) at one k, by L_mu'(x) = -x L_{mu+1}(x) / (2 (mu + 1))."""
    nu = 0.5 * d
    lam_nm1 = bessel_lambda(nu - 1.0, k)
    lam_n = bessel_lambda(nu, k)
    lam_n_s = bessel_lambda(nu, k * sigma)
    lam_np1_s = bessel_lambda(nu + 1.0, k * sigma)
    up = k * lam_n / (2.0 * nu)
    mp = -k * sigma**2 * lam_np1_s / (2.0 * (nu + 1.0)) + up
    neg_m_sigma = k**2 * sigma * lam_np1_s / (2.0 * (nu + 1.0))
    return 1.0 - lam_nm1, lam_n_s - lam_nm1, up, mp, neg_m_sigma


def gap_feasible_t(d: int, sigma: float):
    """Largest t with S(k) = u - t m >= 0 everywhere, its binding k, and d(log t)/d(sigma).

    Candidates: the k -> 0 cap (d+2)/((d+2) - d sigma^2) when d sigma^2 < d+2,
    plus every interior stationary minimum of u/m on the m > 0 windows. A
    binding k of 0 means the quadratic cap is the active constraint. The slope
    d(log t)/d(sigma) is that of the binding constraint (envelope theorem).
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


@functools.lru_cache(maxsize=None)
def terminal_gap(d: int) -> TerminalDensityRecord:
    """Numeric gap-model optimum: one Brent root of the envelope derivative in sigma.

    The derivative d(log phi)/d(sigma) = d(log t)/d(sigma) - d/sigma is
    positive at sigma = 1 + 1e-9 and negative at 1 + 4/d for every supported
    d, so the whole range is the bracket. Z* is the contact weight that makes
    S(0) = 0 exactly. The record's k_min is the binding tangency of the scan
    at sigma*, checked with structure_factor_gap; a scan that finds no binding
    constraint at sigma* (t* infinite) is a RuntimeError. Pure function of d; memoized
    since several commands and the test suite ask for the same dimensions
    repeatedly.
    """
    d = check_dimension("gap", d)

    # Brent re-reads the checked bracket ends and returns a point it evaluated
    feasible = functools.lru_cache(maxsize=None)(functools.partial(gap_feasible_t, d))

    def g(s):
        return feasible(s)[2] - d / s

    a, b = 1.0 + 1e-9, 1.0 + 4.0 / d
    g_a, g_b = g(a), g(b)
    if not g_a > 0.0 > g_b:
        raise RuntimeError(
            f"envelope derivative does not change sign on the step-edge range "
            f"at d={d}: g({a:.6f}) = {g_a:.3e}, g({b:.6f}) = {g_b:.3e}"
        )
    sigma_star = brentq(g, a, b, xtol=1e-12, maxiter=200)

    t_star, k_bind, _ = feasible(sigma_star)
    if not math.isfinite(t_star):
        raise RuntimeError(f"no binding constraint at d={d}, sigma*={sigma_star:.12g}")
    log_phi = math.log(t_star) - d * math.log(2.0 * sigma_star)
    phi_star = math.exp(log_phi)
    Z_star = hyperuniform_Z(d, phi_star, sigma_star)
    if log_phi <= _delta_log_phi(d):
        raise RuntimeError(
            f"gap search found no step edge beating the closed-form contact optimum at d={d}"
        )

    residual = abs(structure_factor_gap(d, phi_star, sigma_star, Z_star, k_bind))
    if residual > 1e-7:
        raise RuntimeError(
            f"optimum at d={d} fails the structure-factor tangency check: "
            f"|S({k_bind:.6f})| = {residual:.3e}"
        )
    _warn_near_grid_end("binding tangency", k_bind, _sigma_free_kernels(d)[0][-1])
    return TerminalDensityRecord(
        d=d,
        sigma_star=float(sigma_star),
        Z_star=Z_star,
        phi_star=phi_star,
        k_min=float(k_bind),
        ratio=_ratio_column(d, log_phi),
        phi_rel_err=_GAP_PHI_REL_ERR,
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
