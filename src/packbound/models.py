"""Test pair-correlation models and their structure factors.

Three nested model shapes, all with unit hard core:

* ``step``: g2(r) = Theta(r - 1).
* ``delta``: unit step plus a contact delta carrying average kissing
  number Z.
* ``gap``: unit step pushed out to r = sigma >= 1, contact delta kept
  at r = 1.

All three structure factors are one closed form, ``structure_factor_gap``,
assembled from the normalized Bessel kernel (step and delta are sigma = 1,
with Z = 0 for step). A quadrature route for S(k) survives only as an oracle
in the tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .specialfn import bessel_lambda, first_zero

__all__ = [
    "RadialModel",
    "PackingDensity",
    "hyperuniform_Z",
    "log_amplitude",
    "structure_factor_gap",
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


@dataclass(frozen=True)
class PackingDensity:
    """Sphere volume fraction phi in dimension d; spheres have diameter 1."""

    d: int
    phi: float

    def __post_init__(self):
        if self.d < 1 or self.d != int(self.d):
            raise ValueError(f"dimension must be a positive integer, got {self.d}")
        if not (0.0 <= self.phi <= 1.0):
            raise ValueError(f"volume fraction phi must lie in [0,1], got {self.phi}")


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


def default_k_max(d: int) -> float:
    """Grid end 2 (x0(nu) + 10 nu^(1/3) + 20): past the structure in S by a wide margin."""
    nu = 0.5 * d
    return 2.0 * (first_zero(max(nu, 0.5)) + 10.0 * nu ** (1.0 / 3.0) + 20.0)


def make_curve(
    model: RadialModel,
    density: PackingDensity,
    k_max: float | None = None,
    n: int = 2048,
) -> tuple[np.ndarray, np.ndarray]:
    """(k, S): the closed-form S on a uniform grid from k = 0, densified around local minima.

    The grid has n points, 16 <= n <= MAX_CURVE_SAMPLES (2^20), on [0, k_max]
    with k_max finite and positive. A larger n raises ValueError up front
    instead of attempting allocations of that length that can exhaust memory.
    """
    if not 16 <= n <= MAX_CURVE_SAMPLES:
        raise ValueError(f"need 16 <= samples <= {MAX_CURVE_SAMPLES}, got {n}")
    if k_max is None:
        k_max = default_k_max(density.d)
    elif not (math.isfinite(k_max) and k_max > 0.0):
        raise ValueError(f"curve end k_max must be finite and positive, got {k_max}")
    k = np.linspace(0.0, k_max, n)
    S = structure_factor_gap(density.d, density.phi, model.sigma, model.Z, k)
    interior = np.flatnonzero((S[1:-1] < S[:-2]) & (S[1:-1] < S[2:])) + 1
    extra = [np.linspace(k[i - 1], k[i + 1], 26) for i in interior]
    if extra:
        # sorted, exact repeats dropped (np.unique would load numpy.ma)
        k = np.sort(np.concatenate([k] + extra))
        k = k[np.concatenate(([True], k[1:] != k[:-1]))]
        S = structure_factor_gap(density.d, density.phi, model.sigma, model.Z, k)
    tail = S[k > 0.9 * k_max]
    if tail.size and np.max(np.abs(tail - 1.0)) > 0.05:
        warnings.warn("structure-factor tail has not settled to 1 on this grid", RuntimeWarning)
    return k, S
