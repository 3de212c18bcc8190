"""Scalar root bracketing by Brent's method (zeroin).

The library needs one scalar root finder, and loading scipy.optimize for it
would also load scipy.linalg and scipy.sparse on every start-up. ``brentq``
below follows scipy's C ``brentq`` (Brent 1973, *Algorithms for Minimization
without Derivatives*, ch. 4) step for step, with its defaults, stopping rule
xtol + rtol*|x|, error types and messages, so every iterate and every root is
the same double scipy would return.
"""

from __future__ import annotations

import math
import sys

__all__ = ["brentq"]


def brentq(
    f, a: float, b: float, xtol: float = 2e-12, rtol: float = 4 * sys.float_info.epsilon,
    maxiter: int = 100,
) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, as a float.

    Stops when half the bracket is below (xtol + rtol*|x|)/2 or f(x) == 0.
    Raises ValueError when the signs agree or f returns NaN, and RuntimeError
    after maxiter iterations without convergence.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        step_ok = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                bound = 3 * abs(sbis) - delta
                step_ok = 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound)
            except ZeroDivisionError:
                # C divides to inf or NaN here, which the test above rejects
                pass
        if step_ok:
            spre, scur = scur, stry
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
