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
returns with t. That t keeps S >= 0 in two parts, split at the tail cut: the
first grid index from which t B_nu(k sigma) + (t - 1) B_{nu-1}(k) < 1, with
Landau's envelope B_mu of |L_mu| (_tail_cut). Below the cut it holds on the
scan grid: where m <= 0, S = u - t m >= u >= 0 since |L| <= 1, and where
m > 0, S = m (u/m - t) with t the smallest refined u/m. From the cut on it
holds for every k, as S = 1 - t L_nu(k sigma) + (t - 1) L_{nu-1}(k) > 0 once
that envelope sum is below 1. So the scan reads m on the whole grid, refines
its m > 0 windows in order and stops at the first one that opens at or past
the cut, recomputing the cut each time t falls: a window that opened below
the cut is refined in full, and one that opens at or past it is never
refined. At sigma* the cut must lie inside the grid, or S >= 0 is unproved
past the grid end.
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

terminal_delta proves S >= 0 for every k. At the delta terminal (sigma = 1,
t = (d+2)/2, Z = d/2), S(k) = 1 - L_nu(k) - k^2 L_{nu+1}(k)/(4(nu+1)) and
S'(k) = k^3 L_{nu+2}(k)/(8(nu+1)(nu+2)) with S(0) = 0, so S rises on
(0, nu + 2], where J_{nu+2} > 0 (its first zero lies past its order, DLMF
10.21). For d >= 2, |1 - S| is at most B_nu(k) + k^2 B_{nu+1}(k)/(4(nu+1)) with
Landau's envelope B, and both terms fall in k, as k^-(nu+1/3) and k^(2/3-nu)
with nu >= 1. So that sum below 1 at k = nu + 2 proves S > 0 past it
(_delta_tail_bound); as k0^2 >= 4(nu+1), it also puts both envelopes below 1.

All density bookkeeping is done on log(phi): at d = 200 the optimum is
5.7e-44 with t = 5e17, and naive products would lose it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .models import hyperuniform_Z, structure_factor_gap
from .rootfind import brentq
from .specialfn import _lambda_pair, bessel_lambda, log_lambda_envelope, zeta

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
#: finite up to about d = 1380). All end at MAX_CLOSED_FORM_D; the gap
#: optimizer reads bessel_lambda up to order d/2 + 1 = 501 there
DIMENSION_RANGE = {
    "step": (1, MAX_CLOSED_FORM_D),
    "delta": (1, MAX_CLOSED_FORM_D),
    "gap": (2, MAX_CLOSED_FORM_D),
    "classical": (2, MAX_CLOSED_FORM_D),
    "asymptotics": (20, MAX_CLOSED_FORM_D),
}

# relative error bound of terminal_gap's phi*: above the largest change of phi*
# between scans at 64/pi and 16/pi points per unit k, over ten times it over
# d = 2..300 (9.4e-13, at d = 296) and 2.9 times it over d = 301..1000
# (3.5e-12, at d = 911), and above the sigma xtol (1e-12) times the slope jump
# of log phi at the d = 2 kink (2.9), 2.9e-12
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
            raise RuntimeError(f"terminal density must lie in (0,1], got {self.phi_star}")
        if self.sigma_star < 1.0:
            raise RuntimeError("sigma_star must be >= 1")


@dataclass(frozen=True)
class ClassicalBounds:
    d: int
    minkowski: float
    ball: float
    greedy: float
    blichfeldt: float
    rogers: float
    kl: float
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
    """phi* = (d+2)/2^(d+1), Z* = d/2; S >= 0 is proved for every k, reading no kernel.

    Both S(0) and the quadratic coefficient vanish, so the binding wavenumber
    is k = 0. For d >= 2 see the module docstring. For d = 1,
    S(k) = 1 + cos(k)/2 - 3 sin(k)/(2k) rises on (0, j_{5/2,1} = 5.76...) and
    is at least 1/2 - 3/(2k) > 0 past k = 3.
    """
    d = check_dimension("delta", d)
    if d >= 2:
        _delta_tail_bound(d)
    return TerminalDensityRecord(
        d=d,
        sigma_star=1.0,
        Z_star=0.5 * d,
        phi_star=(d + 2.0) / 2.0 ** (d + 1),
        k_min=0.0,
        ratio=_ratio_column(d, _delta_log_phi(d)),
    )


def _delta_tail_bound(d: int) -> tuple[float, float]:
    """(k0, b): |1 - S(k)| <= b < 1 at the delta terminal for every k >= k0 = nu + 2, d >= 2.

    b is B_nu(k0) + k0^2 B_{nu+1}(k0)/(4(nu+1)) for Landau's envelope B; a b
    of 1 or more (or NaN) is a RuntimeError.
    """
    nu = 0.5 * d
    k0 = nu + 2.0
    b = math.exp(log_lambda_envelope(nu, k0)) + k0 * k0 * math.exp(
        log_lambda_envelope(nu + 1.0, k0)
    ) / (4.0 * (nu + 1.0))
    if not b < 1.0:
        raise RuntimeError(
            f"Landau envelope does not certify S >= 0 at the delta terminal, d={d}: "
            f"bound {b:.3e} at k={k0:g}"
        )
    return k0, b


def _k_grid(d: int) -> np.ndarray:
    """The scan grid of gap_feasible_t.

    It runs from 1e-9 to nu + 12 max(nu, 1)^(1/3) + 30, past the binding
    tangency at every supported d, at 16/pi points per unit of k and never
    fewer than 750, so its spacing is at most pi/15.9. Brent refines every
    bracket to 1e-12, so the grid only has to separate roots, not resolve them.
    gap_feasible_t reads m on the whole grid but refines only the windows that
    open below the Landau tail cut (_tail_cut), so the grid end bounds the
    refinement only while t is infinite. At the optima of d = 2..1000 the cut
    lies at kk[cut] = 11.2 (d = 5) to 518.6 (d = 1000), at most 0.844 of the
    grid end (d = 2), against grid ends of 43.0 (d = 2) to 625.2 (d = 1000),
    and k_min stays below 0.83 of the grid end (514.5 at d = 1000). The tests
    check S >= 0 at each tabulated optimum at 512/pi points per unit up to the
    grid end.
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
    """(u, m, u', m', -dm/dsigma) at one k, by L_mu'(x) = -x L_{mu+1}(x) / (2 (mu + 1)).

    The four kernel values come from two sweeps of adjacent orders,
    (L_{nu-1}, L_nu) at k and (L_nu, L_{nu+1}) at k sigma.
    """
    nu = 0.5 * d
    lam_nm1, lam_n = _lambda_pair(nu - 1.0, k)
    lam_n_s, lam_np1_s = _lambda_pair(nu, k * sigma)
    up = k * lam_n / (2.0 * nu)
    mp = -k * sigma**2 * lam_np1_s / (2.0 * (nu + 1.0)) + up
    neg_m_sigma = k**2 * sigma * lam_np1_s / (2.0 * (nu + 1.0))
    return 1.0 - lam_nm1, lam_n_s - lam_nm1, up, mp, neg_m_sigma


def _tail_cut(d: int, sigma: float, t: float, kk: np.ndarray) -> int:
    """First index of kk from which S = u - t m > 0 for every k, at amplitude t >= 1.

    S = 1 - t L_nu(k sigma) + (t - 1) L_{nu-1}(k) >= 1 - t B_nu(k sigma) - (t - 1) B_{nu-1}(k)
    with B_mu = min(1, Landau's envelope). The envelope sum decreases in k, so
    the points where it is below 1 form a suffix of kk, and the cut is where
    that suffix starts: kk.size if it is empty, as it always is for infinite t.
    """
    nu = 0.5 * d
    log_t1 = math.log(t - 1.0) if t > 1.0 else -math.inf
    log_sum = np.logaddexp(
        math.log(t) + np.minimum(0.0, log_lambda_envelope(nu, kk * sigma)),
        log_t1 + np.minimum(0.0, log_lambda_envelope(nu - 1.0, kk)),
    )
    return kk.size - int(np.count_nonzero(log_sum < 0.0))


def gap_feasible_t(d: int, sigma: float):
    """Largest t with S(k) = u - t m >= 0 everywhere, its binding k, and d(log t)/d(sigma).

    Candidates: the k -> 0 cap (d+2)/((d+2) - d sigma^2) when d sigma^2 < d+2,
    plus every interior stationary minimum of u/m on the m > 0 windows. A
    binding k of 0 means the quadratic cap is the active constraint. The slope
    d(log t)/d(sigma) is that of the binding constraint (envelope theorem).

    The scan reads m on the whole grid in one kernel call, since a recurrence
    sweep costs about the same for any number of points. It refines the m > 0
    windows in order and stops at the first one that opens at or past the tail
    cut (_tail_cut at the best t so far): a window that opened below the cut
    is finished, and one that opens at or past it holds no u/m below t.
    """
    nu = 0.5 * d
    t_quad = math.inf
    if d * sigma * sigma < d + 2.0:
        t_quad = (d + 2.0) / ((d + 2.0) - d * sigma * sigma)
    kk, lam_nm1_k = _sigma_free_kernels(d)
    m = bessel_lambda(nu, kk * sigma) - lam_nm1_k

    # Brent re-reads the checked bracket ends and returns a point it evaluated
    terms = functools.lru_cache(maxsize=None)(functools.partial(_tangency_terms, d, sigma))

    def N_of(k):
        uk, mk, up, mp, _ = terms(k)
        return up * mk - uk * mp

    best_t, best_k = t_quad, 0.0
    cut = _tail_cut(d, sigma, best_t, kk)
    # the m > 0 windows [a, e) of the grid, from the edges of its sign pattern
    edges = np.flatnonzero(np.diff(m > 0.0, prepend=False, append=False))
    for a, e in edges.reshape(-1, 2).tolist():
        if a >= cut:
            break
        ratio = (1.0 - lam_nm1_k[a:e]) / m[a:e]
        # discrete local minima of the ratio, interior to the window
        loc = np.flatnonzero(
            (ratio[1:-1] <= ratio[:-2]) & (ratio[1:-1] <= ratio[2:])
        ) + 1
        # 1 <= j <= e - a - 2, so j - 1 and j + 1 stay inside the window
        for j in loc:
            j = a + j
            if not N_of(kk[j - 1]) < 0.0 < N_of(kk[j + 1]):
                raise RuntimeError(
                    f"tangency numerator does not change sign next to k={kk[j]:.6f} "
                    f"at d={d}, sigma={sigma:.12g}"
                )
            k_root = brentq(N_of, kk[j - 1], kk[j + 1], xtol=1e-12, maxiter=200)
            uu, mm, *_ = terms(k_root)
            if mm <= 0.0:
                continue
            t_cand = uu / mm
            if 1.0 <= t_cand < best_t:
                best_t, best_k = t_cand, k_root
                cut = _tail_cut(d, sigma, best_t, kk)
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
    at sigma*, checked with structure_factor_gap; a grid that ends before the
    Landau tail cut at (sigma*, t*), past which S >= 0 would be unproved, is a
    RuntimeError. A scan that finds no binding constraint (t* = inf) always
    fails it: no grid reaches the cut of an infinite t. Pure function of d; memoized
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
    kk = _sigma_free_kernels(d)[0]
    if _tail_cut(d, sigma_star, t_star, kk) == kk.size:
        raise RuntimeError(
            f"grid ends at k={kk[-1]:.4f}, short of the Landau tail cut at d={d}, "
            f"sigma*={sigma_star:.12g}, t*={t_star:.12g}: S >= 0 is unproved past the grid end"
        )
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
    zd = zeta(d)
    return ClassicalBounds(
        d=d,
        minkowski=zd / 2.0 ** (d - 1),
        ball=2.0 * (d - 1) * zd / 2.0**d,
        greedy=2.0**-d,
        blichfeldt=(0.5 * d + 1.0) * 2.0 ** (-0.5 * d),
        rogers=(d / math.e) * 2.0 ** (-0.5 * d),
        kl=2.0 ** (-0.5990 * d),
        densest_known=DENSEST_KNOWN.get(d),
    )
