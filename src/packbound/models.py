"""Test pair-correlation models and their structure factors.

Three nested model shapes, all with unit hard core:

* ``step``: g2(r) = Theta(r - 1).
* ``delta``: unit step plus a contact delta carrying average kissing
  number Z.
* ``gap``: unit step pushed out to r = sigma >= 1, contact delta kept
  at r = 1.

The closed structure factors are assembled from the normalized Bessel
kernel; ``structure_factor_numeric`` is an independent quadrature route
(pedestrian jv ratio, exact-support integral) used as an oracle, and it
also accepts a tabulated g2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, jv

from .specialfn import bessel_lambda, first_zero, log_sphere_volume, sphere_surface

__all__ = [
    "RadialModel",
    "PackingDensity",
    "StructureFactorCurve",
    "TabulatedG2",
    "step_model",
    "delta_model",
    "gap_model",
    "g2_eval",
    "hyperuniform_Z",
    "log_amplitude",
    "maclaurin_coefficients",
    "structure_factor_step",
    "structure_factor_delta",
    "structure_factor_gap",
    "structure_factor",
    "structure_factor_numeric",
    "default_k_max",
    "make_curve",
]

KINDS = ("step", "delta", "gap")

#: largest curve grid make_curve accepts
MAX_CURVE_SAMPLES = 2**20


@dataclass(frozen=True)
class RadialModel:
    """One of the three g2 shapes. sigma is the step edge, Z the contact weight."""

    kind: str
    sigma: float = 1.0
    Z: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        # NaN slips through every comparison below, and inf through the bounds
        if not math.isfinite(self.sigma):
            raise ValueError(f"step edge sigma must be finite, got {self.sigma}")
        if not math.isfinite(self.Z):
            raise ValueError(f"contact weight Z must be finite, got {self.Z}")
        if self.sigma < 1.0:
            raise ValueError(f"step edge sigma must be >= 1, got {self.sigma}")
        if self.Z < 0.0:
            raise ValueError(f"contact weight Z must be >= 0, got {self.Z}")
        if self.kind == "step" and (self.sigma != 1.0 or self.Z != 0.0):
            raise ValueError("step model has sigma=1 and Z=0")
        if self.kind == "delta" and self.sigma != 1.0:
            raise ValueError("delta model has sigma=1")


def step_model() -> RadialModel:
    return RadialModel("step")


def delta_model(Z: float) -> RadialModel:
    return RadialModel("delta", 1.0, Z)


def gap_model(sigma: float, Z: float) -> RadialModel:
    return RadialModel("gap", sigma, Z)


@dataclass(frozen=True)
class PackingDensity:
    """Sphere volume fraction phi in dimension d; spheres have diameter 1."""

    d: int
    phi: float

    def __post_init__(self):
        if self.d < 1 or self.d != int(self.d):
            raise ValueError(f"dimension must be a positive integer, got {self.d}")
        if not (0.0 <= self.phi <= 1.0):
            raise ValueError(f"volume fraction must lie in [0,1], got {self.phi}")

    @property
    def rho(self) -> float:
        """Center density phi / v1(1/2)."""
        return math.exp(self.log_rho) if self.phi > 0.0 else 0.0

    @property
    def log_rho(self) -> float:
        if self.phi == 0.0:
            return -math.inf
        return math.log(self.phi) - log_sphere_volume(self.d, 0.5)


@dataclass(frozen=True)
class TabulatedG2:
    """Tabulated continuous g2 on an r grid, plus an optional contact delta.

    Input route for structure_factor_numeric only.
    """

    r: np.ndarray
    g2: np.ndarray
    Z: float = 0.0

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        g2 = np.asarray(self.g2, dtype=float)
        if r.ndim != 1 or r.shape != g2.shape or r.size < 2:
            raise ValueError("r and g2 must be equal-length 1-d arrays")
        if np.any(np.diff(r) <= 0.0) or r[0] < 0.0:
            raise ValueError("r grid must be strictly increasing and nonnegative")
        if self.Z < 0.0:
            raise ValueError("contact weight Z must be >= 0")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "g2", g2)


@dataclass(frozen=True)
class StructureFactorCurve:
    """Sampled S(k) for one model/density, with the k=0 limit kept explicitly."""

    k: np.ndarray
    S: np.ndarray
    S0: float
    model: RadialModel
    density: PackingDensity


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
        weight = model.Z / (sphere_surface(density.d, 1.0) * density.rho)
    return cont, weight


def log_amplitude(d: int, phi: float, sigma: float) -> float:
    """log((2 sigma)^d phi) for phi > 0, the step amplitude.

    With sigma = R it is the log expected count rho v1(R) in a window of radius R.
    """
    return d * math.log(2.0 * sigma) + math.log(phi)


def _step_amplitude(d: int, phi: float, sigma: float = 1.0) -> float:
    """(2 sigma)^d phi, assembled in log space so d=300 cannot overflow en route."""
    if phi == 0.0:
        return 0.0
    return math.exp(log_amplitude(d, phi, sigma))


def hyperuniform_Z(d: int, phi: float, sigma: float) -> float:
    """Contact weight making S(0) = 0 exactly: Z = (2 sigma)^d phi - 1."""
    return _step_amplitude(d, phi, sigma) - 1.0


def structure_factor_step(d: int, phi: float, k):
    """S(k) = 1 - 2^d phi Lambda_nu(k), nu = d/2. k = 0 is the analytic limit."""
    PackingDensity(d, phi)
    return 1.0 - _step_amplitude(d, phi) * bessel_lambda(0.5 * d, k)


def structure_factor_delta(d: int, phi: float, Z: float, k):
    """Step form plus the contact term Z Lambda_{nu-1}(k)."""
    if Z < 0.0:
        raise ValueError("contact weight Z must be >= 0")
    return structure_factor_step(d, phi, k) + Z * bessel_lambda(0.5 * d - 1.0, k)


def structure_factor_gap(d: int, phi: float, sigma: float, Z: float, k):
    """S(k) = 1 - (2 sigma)^d phi Lambda_nu(k sigma) + Z Lambda_{nu-1}(k)."""
    PackingDensity(d, phi)
    if sigma < 1.0:
        raise ValueError("step edge sigma must be >= 1")
    if Z < 0.0:
        raise ValueError("contact weight Z must be >= 0")
    nu = 0.5 * d
    ka = np.asarray(k, dtype=float)
    out = (
        1.0
        - _step_amplitude(d, phi, sigma) * bessel_lambda(nu, ka * sigma)
        + Z * bessel_lambda(nu - 1.0, ka)
    )
    return float(out) if np.asarray(k).ndim == 0 else out


def structure_factor(model: RadialModel, density: PackingDensity, k):
    """Closed-form S(k) for any of the three models."""
    return structure_factor_gap(density.d, density.phi, model.sigma, model.Z, k)


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

    Deliberately does not share code with bessel_lambda: this is the oracle
    route.
    """
    m = nu - 1.0
    u = float(u)
    if u < 1e-4:
        lead = math.exp(-(m * math.log(2.0) + gammaln(m + 1.0)))
        return lead * (1.0 - u * u / (4.0 * nu))
    return jv(m, u) / u**m


def structure_factor_numeric(model, density: PackingDensity, k: float, r_max: float | None = None) -> float:
    """Quadrature oracle for S(k): exact-support integral plus analytic delta.

    For the closed models h(r)+1 vanishes below the step edge, so the
    continuous part of the transform is a finite integral over [0, sigma]
    rather than an oscillatory infinite-range one. A TabulatedG2 is
    integrated by the trapezoid rule on its own grid instead.
    """
    d = density.d
    nu = 0.5 * d
    k = float(k)
    if k < 0.0:
        raise ValueError("wavenumber must be nonnegative")
    rho = density.rho
    pref = rho * (2.0 * math.pi) ** nu

    if isinstance(model, TabulatedG2):
        sigma_eff = 1.0
        if r_max is None:
            r_max = float(model.r[-1])
        if r_max < 50.0 * sigma_eff:
            raise ValueError("r_max must cover at least 50 step edges")
        tail = abs(model.g2[-1] - 1.0)
        if tail > 1e-8:
            # crude oscillatory-tail bound: first-neglected-lobe area
            bound = pref * tail * model.r[-1] ** (d - 1) / max(k, 1.0 / model.r[-1])
            warnings.warn(
                f"tabulated g2 not converged to 1 at r={model.r[-1]:.3f} "
                f"(|h|={tail:.2e}); neglected-tail bound ~{bound:.2e}",
                RuntimeWarning,
            )
        keep = model.r <= r_max
        r = model.r[keep]
        h = model.g2[keep] - 1.0
        kern = np.array([_kernel(nu, k * ri) for ri in r])
        integral = float(np.trapezoid(r ** (d - 1) * h * kern, r))
        z_term = pref * (model.Z / (sphere_surface(d, 1.0) * rho)) * _kernel(nu, k) if model.Z else 0.0
        return 1.0 + pref * integral + z_term

    sigma = model.sigma
    if r_max is None:
        r_max = 50.0 * sigma
    if r_max < 50.0 * sigma:
        raise ValueError("r_max must cover at least 50 step edges")
    if density.phi == 0.0 and model.Z == 0.0:
        return 1.0

    def integrand(r: float) -> float:
        # g2 - 1 = -1 on [0, sigma); exactly 0 beyond
        return -(r ** (d - 1)) * _kernel(nu, k * r)

    integral, err = quad(integrand, 0.0, sigma, epsabs=1e-13, epsrel=1e-11, limit=400)
    if err > 1e-8:
        warnings.warn(
            f"structure-factor quadrature error estimate {err:.2e} at k={k:.4f}",
            RuntimeWarning,
        )
    _, weight = g2_eval(model, density, 1.0)
    z_term = pref * weight * _kernel(nu, k) if weight else 0.0
    return 1.0 + pref * integral + z_term


def default_k_max(d: int) -> float:
    """Grid end 2 (x0(nu) + 10 nu^(1/3) + 20): past the structure in S by a wide margin."""
    nu = 0.5 * d
    return 2.0 * (first_zero(max(nu, 0.5)) + 10.0 * nu ** (1.0 / 3.0) + 20.0)


def make_curve(
    model: RadialModel,
    density: PackingDensity,
    k_max: float | None = None,
    n: int = 2048,
    refine: bool = True,
) -> StructureFactorCurve:
    """Sample the closed-form S on a uniform grid, densified around local minima.

    The grid has n points, 16 <= n <= MAX_CURVE_SAMPLES (2^20). A larger n
    raises ValueError up front instead of attempting allocations of that
    length that can exhaust memory.
    """
    if not 16 <= n <= MAX_CURVE_SAMPLES:
        raise ValueError(f"need 16 <= samples <= {MAX_CURVE_SAMPLES}, got {n}")
    if k_max is None:
        k_max = default_k_max(density.d)
    k = np.linspace(0.0, k_max, n)
    S = structure_factor(model, density, k)
    if refine:
        interior = np.flatnonzero((S[1:-1] < S[:-2]) & (S[1:-1] < S[2:])) + 1
        extra = [np.linspace(k[i - 1], k[i + 1], 26) for i in interior]
        if extra:
            k = np.unique(np.concatenate([k] + extra))
            S = structure_factor(model, density, k)
    S0 = float(structure_factor(model, density, 0.0))
    tail = S[k > 0.9 * k_max]
    if tail.size and np.max(np.abs(tail - 1.0)) > 0.05:
        warnings.warn("structure-factor tail has not settled to 1 on this grid", RuntimeWarning)
    return StructureFactorCurve(k=k, S=S, S0=S0, model=model, density=density)
