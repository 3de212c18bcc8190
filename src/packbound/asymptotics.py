"""Large-dimension expansions of the gap-model optimum and their constants.

Everything here is closed-form: the expansion constants (solved once and
cached), the sigma*, k_min, Delta_nu, and phi* expansions built from them,
and the exact tangency combination Delta_nu(sigma, k) with the optimum
identity that turns it back into a density. ``build_report`` evaluates that
identity at the numeric optimum, where it reproduces phi* (to 7e-14 relative
at d = 200), and at the asymptotic sigma* with the linearized k_min, the
quoted phi_star_from_linearized_kmin prediction.

Two precision tiers for the Bessel-derivative constant C1 coexist on
purpose. The dominant-term estimate (C1 = -1.104938082) is what the quoted
Delta_nu / phi* expansion predictions at d = 200 were evaluated with, so
delta_nu_terms and the full phi* expansion use that tier internally. The
refined three-term estimate (C11 = -1.123958144) feeds D1 and the headline
coefficients of the compact bounds, which is where the source of these
values switched to the refined number. The D1 field carries the refined
tier; D2 carries the dominant tier that the expansion predictions need.

The compact ("dominant") forms of the density and kissing bounds keep only
the exponential rate and the d^(1/6) prefactor; they omit a 2^(o(d)) factor
(about e^(a1 nu^(1/3))) that the full expansion retains, so at finite d they
sit orders of magnitude below the full forms. Order-of-magnitude comparisons
against the numeric optimizer therefore go through form="full".
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

from scipy.special import ai_zeros, gammaln

from .models import hyperuniform_Z
from .optimizer import DIMENSION_RANGE, check_dimension, terminal_gap
from .rootfind import brentq
from .specialfn import A1, A2, A3, bessel_j, first_zero

__all__ = [
    "AsymptoticConstants",
    "solve_constants",
    "sigma_star_asymptotic",
    "kmin_asymptotic",
    "kmin_linearized",
    "beta_ratio_asymptotic",
    "beta_ratio_exact",
    "delta_nu_terms",
    "delta_nu_exact",
    "phi_from_optimum",
    "phi_star_asymptotic",
    "kissing_asymptotic",
    "build_report",
]

LOG2E = math.log2(math.e)

# Middle coefficient of the refined C1 expansion in inverse powers of a1.
# The printed closed form for this coefficient is inconsistent with both the
# quoted refined estimate and the quoted term-size ratios (leading term about
# 66x the middle one, middle about 7x the last); this value is the one implied
# by the refined estimate and it reproduces both ratios.
_C12_COEFF = -0.09126598708954611


@dataclass(frozen=True)
class AsymptoticConstants:
    a1: float
    a2: float
    a3: float
    q1: float
    q2: float
    Q1: float
    C1: float
    C2: float
    C11: float
    D1: float
    D2: float
    E1: float
    E2: float
    phi_exponent: float
    kiss_exponent: float


def _D1(C: float, q1: float) -> float:
    """D1 = C (2 - e^q1) / (2 e^q1) of a C1 coefficient: the refined C11 or the dominant C1."""
    e1 = math.exp(q1)
    return C * (2 - e1) / (2 * e1)


@functools.lru_cache(maxsize=1)
def solve_constants() -> AsymptoticConstants:
    """Solve and assemble every expansion constant."""

    def root_fn(x):
        return x * math.exp(x) + math.exp(2 * x) - 5 * math.exp(x) + 4

    q1 = brentq(root_fn, 0.5, 1.5, xtol=1e-15)
    if abs(root_fn(q1)) > 1e-12:
        raise RuntimeError(f"q1 root residual {root_fn(q1):.3e} too large")

    # q2's closed form is sensitive to a1 in its 9th digit, so it gets the
    # Airy-zero value rather than the 8-digit constant used everywhere else
    a1_airy = float(-ai_zeros(1)[0][0]) / 2.0 ** (1.0 / 3.0)
    e1, e2, e3 = math.exp(q1), math.exp(2 * q1), math.exp(3 * q1)
    q2 = (
        a1_airy
        * (8 * e1 - 2 * q1 * e1 - 10 * e2 + 4 + e3 + 4 * q1 * e2)
        / (3 * e1 * (2 * q1 * e1 - 2 * q1 + 12 + 3 * e2 - 13 * e1))
    )
    Q1 = 2 * (q1 - 1) / (e1 - 2)

    w = (2 * A1) ** 1.5 / 3.0
    f1 = math.sin(w) + math.cos(w)
    f2 = math.sin(w) - math.cos(w)
    sqpi = math.sqrt(math.pi)
    C1 = -(2**0.25) * (math.sqrt(2) * f1 + 8 * A1**1.5 * f2) / (8 * sqpi * A1**1.25)
    C2 = (
        2**0.75 * (1152 * A1**6 - 3840 * A1**4 * A2 - 180 * A1**3 + 600 * A1 * A2 - 225) * f1
        + 2**0.25 * (3072 * A1**4.5 - 200 * A1**1.5) * f2
    ) / (3840 * sqpi * A1**3.25)

    # refined C1: three-term expansion in inverse powers of a1; the leading
    # coefficient times a1^(-5/4) is identically the dominant C1 above
    c11 = -(2**0.25) * (math.sqrt(2) * f1 + 8 * A1**1.5 * f2) / (8 * sqpi)
    c13 = -385 * 2**0.25 * (13 * math.sqrt(2) * f1 + 8 * A1**1.5 * f2) / (221184 * sqpi)
    C11 = c11 / A1**1.25 + _C12_COEFF / A1**2.75 + c13 / A1**4.25

    D1 = _D1(C11, q1)
    D1_dom = _D1(C1, q1)
    D2 = (
        C1 * (A1 * (2 * e1 + 6 * q1 / e1 - 7) + 3 * q2 * (q1 - 1)) / (3 * (2 - e1))
        + C2 * D1_dom / C1
    )

    E1 = A2 - A1**2 / 2
    E2 = -Q1 * A1 + (A1**4 - 4 * A1**2 * A2 + 4 * A2**2) / 8

    return AsymptoticConstants(
        a1=A1,
        a2=A2,
        a3=A3,
        q1=q1,
        q2=q2,
        Q1=Q1,
        C1=C1,
        C2=C2,
        C11=C11,
        D1=D1,
        D2=D2,
        E1=E1,
        E2=E2,
        phi_exponent=(3 - LOG2E) / 2,
        kiss_exponent=(LOG2E - 1) / 2,
    )


def _check_d(d):
    lo = DIMENSION_RANGE["asymptotics"][0]
    if d < lo:
        raise ValueError(f"expansion is asymptotic; requires d >= {lo}, got {d}")


def sigma_star_asymptotic(d) -> float:
    _check_d(d)
    c = solve_constants()
    nu = 0.5 * d
    return 1.0 + c.q1 / nu + c.q2 / nu ** (5.0 / 3.0)


def kmin_linearized(d, x0, y0, sigma, beta_ratio) -> float:
    """Binding wavenumber from the linearized tangency condition."""
    nu = 0.5 * d
    return x0 - d * (y0 - sigma * x0) / (beta_ratio * sigma ** (nu - 1) * x0 - d * sigma)


def kmin_asymptotic(d, variant="expansion") -> float:
    """Binding wavenumber, either the direct expansion or the linearized form.

    The linearized variant evaluates the tangency formula at the numeric first
    zeros, the asymptotic sigma* and the exact beta ratio; kmin_linearized
    takes external inputs.
    """
    _check_d(d)
    c = solve_constants()
    nu = 0.5 * d
    if variant == "expansion":
        return nu + c.a1 * nu ** (1.0 / 3.0) + c.Q1 + c.a2 / nu ** (1.0 / 3.0)
    if variant == "linearized":
        return kmin_linearized(
            d, first_zero(nu), first_zero(nu + 1), sigma_star_asymptotic(d), beta_ratio_exact(d)
        )
    raise ValueError(f"unknown variant {variant!r}")


def beta_ratio_asymptotic(d) -> float:
    _check_d(d)
    c = solve_constants()
    nu = 0.5 * d
    return 1.0 + 2.0 / (3.0 * nu) - 2.0 * c.C2 / (3.0 * c.C1 * nu ** (5.0 / 3.0))


def beta_ratio_exact(d) -> float:
    """Ratio of the Bessel slope halves at the numeric first zeros of J_nu and J_{nu+1}."""
    nu = 0.5 * d
    x0 = first_zero(nu)
    y0 = first_zero(nu + 1)
    b1 = 0.5 * (bessel_j(nu - 1, x0) - bessel_j(nu + 1, x0))
    b2 = 0.5 * (bessel_j(nu, y0) - bessel_j(nu + 2, y0))
    return b1 / b2


def delta_nu_terms(d):
    """Asymptotic (Delta_nu(k_min), (k_min/nu)^nu, sigma*^(2 nu)).

    Evaluated with the dominant-tier D constants, which is the combination
    the quoted reference predictions at d = 200 correspond to.
    """
    _check_d(d)
    c = solve_constants()
    nu = 0.5 * d
    d1 = _D1(c.C1, c.q1)
    delta = d1 / nu ** (2.0 / 3.0) + c.D2 / nu ** (4.0 / 3.0)
    kpow = math.exp(c.a1 * nu ** (1.0 / 3.0) + c.Q1) * (
        1.0 + c.E1 / nu ** (1.0 / 3.0) + c.E2 / nu ** (2.0 / 3.0)
    )
    sigpow = math.exp(2 * c.q1) * (
        1.0
        + 2 * c.q2 / nu ** (2.0 / 3.0)
        - c.q1**2 / nu
        + 2 * c.q2**2 / nu ** (4.0 / 3.0)
    )
    return (delta, kpow, sigpow)


def delta_nu_exact(d, sigma, k) -> float:
    """J_nu(k sigma)/sigma^nu - k J_{nu-1}(k)/d, evaluated directly."""
    nu = 0.5 * d
    return bessel_j(nu, k * sigma) / sigma**nu - k * bessel_j(nu - 1, k) / d


def phi_from_optimum(d, sigma, k) -> float:
    """Density from the zero-tangency relation at (sigma, k), in log space.

    phi = k^nu / (8^nu Gamma(1+nu) sigma^(2 nu) Delta_nu), Delta_nu from
    delta_nu_exact; a nonpositive Delta_nu raises ValueError. This is S(k) = 0
    with Z = (2 sigma)^d phi - 1 at large d: it drops a factor
    1 - Lambda_{nu-1}(k), which at the numeric optimum is 1 - 1e-3 at d = 20
    and 1 - 2e-10 at d = 100.
    """
    nu = 0.5 * d
    delta = delta_nu_exact(d, sigma, k)
    if delta <= 0.0:
        raise ValueError(f"tangency combination is not positive at k={k}: {delta:.3e}")
    log_phi = (
        nu * math.log(k)
        - 3 * nu * math.log(2.0)
        - gammaln(1.0 + nu)
        - 2 * nu * math.log(sigma)
        - math.log(delta)
    )
    return math.exp(log_phi)


def phi_star_asymptotic(d, form="full") -> float:
    """Asymptotic terminal density.

    form="full" is the complete expansion (dominant-tier D constants);
    form="dominant" is the compact rate-and-prefactor bound built on the
    refined D1, orders of magnitude below the full form at finite d (see the
    module docstring).
    """
    _check_d(d)
    c = solve_constants()
    nu = 0.5 * d
    if form == "dominant":
        coef = 1.0 / (2.0 ** (2.0 / 3.0) * c.D1 * math.sqrt(math.pi))
        return coef * d ** (1.0 / 6.0) * math.exp(-c.phi_exponent * d * math.log(2.0))
    if form != "full":
        raise ValueError(f"unknown form {form!r}")
    d1 = _D1(c.C1, c.q1)
    expo = (3 - LOG2E) * nu - LOG2E * c.a1 * nu ** (1.0 / 3.0) + (2 * c.q1 - c.Q1) * LOG2E
    bracket = (
        nu ** (1.0 / 6.0)
        + c.E1 / nu ** (1.0 / 6.0)
        + (c.E2 - 2 * c.q2 - c.D2 / d1) / math.sqrt(nu)
    )
    return (
        math.exp(-expo * math.log(2.0))
        * (1.0 / (2.0 * d1))
        * math.sqrt(2.0 / math.pi)
        * bracket
    )


def kissing_asymptotic(d, form="compact") -> float:
    """Asymptotic terminal kissing number.

    form="compact" is the quoted coefficient-times-rate bound (refined D1);
    form="full" routes through the full density expansion via
    Z = (2 sigma)^d phi - 1 and is the one comparable to the numeric optimum
    in magnitude.
    """
    _check_d(d)
    c = solve_constants()
    if form == "compact":
        coef = 2.0 ** (1.0 / 3.0) * math.exp(2 * c.q1) / (c.D1 * math.sqrt(math.pi))
        return coef * d ** (1.0 / 6.0) * math.exp(c.kiss_exponent * d * math.log(2.0))
    if form != "full":
        raise ValueError(f"unknown form {form!r}")
    sigma = sigma_star_asymptotic(d)
    phi = phi_star_asymptotic(d, form="full")
    return hyperuniform_Z(d, phi, sigma)


def build_report(d, include_numeric=True) -> dict:
    """All constants, expansion predictions, and numeric comparisons at d.

    d must lie in DIMENSION_RANGE["asymptotics"], checked before any work.
    """
    check_dimension("asymptotics", d)
    c = solve_constants()
    delta, kpow, sigpow = delta_nu_terms(d)
    sigma = sigma_star_asymptotic(d)
    k_lin = kmin_asymptotic(d, "linearized")
    report = {
        "d": d,
        "constants": asdict(c),
        "predictions": {
            "sigma_star": sigma,
            "kmin_expansion": kmin_asymptotic(d, "expansion"),
            "kmin_linearized": k_lin,
            "beta_ratio_asymptotic": beta_ratio_asymptotic(d),
            "beta_ratio_exact": beta_ratio_exact(d),
            "delta_nu": delta,
            "kmin_over_nu_pow": kpow,
            "sigma_star_pow": sigpow,
            "phi_star_full": phi_star_asymptotic(d, "full"),
            "phi_star_dominant": phi_star_asymptotic(d, "dominant"),
            "phi_star_from_linearized_kmin": phi_from_optimum(d, sigma, k_lin),
            "kissing_compact": kissing_asymptotic(d, "compact"),
            "kissing_full": kissing_asymptotic(d, "full"),
        },
    }
    if d == 200:
        # reference comparison values quoted for this dimension, including the
        # two mutually inconsistent beta-ratio quotes (reported, not resolved)
        report["quoted_reference"] = {
            "sigma_star": 1.008482538,
            "kmin_expansion": 108.4501542,
            "kmin_linearized": 108.4368917,
            "kmin_numeric": 108.4395,
            "beta_ratio_linearization_input": 1.003189733,
            "beta_ratio_exact": 1.006215695,
            "delta_nu": 0.00567441932,
            "delta_nu_exact": 0.00559813885,
            "kmin_over_nu_pow": 3353.018128,
            "sigma_star_pow": 5.405924156,
            "phi_star_full": 5.626727001e-44,
            "phi_star_from_linearized_kmin": 5.666392126e-44,
        }
    if include_numeric:
        rec = terminal_gap(int(d))
        phi_full = report["predictions"]["phi_star_full"]
        report["numeric"] = {
            "sigma_star": rec.sigma_star,
            "Z_star": rec.Z_star,
            "phi_star": rec.phi_star,
            "k_min": rec.k_min,
            "delta_nu_exact": delta_nu_exact(d, rec.sigma_star, rec.k_min),
            "phi_from_optimum": phi_from_optimum(d, rec.sigma_star, rec.k_min),
            "sigma_rel_err": abs(sigma - rec.sigma_star) / rec.sigma_star,
            "phi_rel_err": abs(phi_full - rec.phi_star) / rec.phi_star,
            "kmin_abs_err": abs(report["predictions"]["kmin_expansion"] - rec.k_min),
        }
    return report
