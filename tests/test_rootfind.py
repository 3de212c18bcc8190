"""rootfind.brentq against scipy.optimize.brentq, its reference: the same
double, a Python float, and the same exception type and message."""

import math
import random

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq
from scipy.special import jv

from packbound import optimizer, specialfn
from packbound.cli import main
from packbound.rootfind import brentq


def _outcome(solver, f, a, b, **kwargs):
    try:
        x = solver(f, a, b, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return type(x), x.hex()


def _family(name: str, rng: random.Random):
    """(f, a, b) with a random scale, offset and bracket; tiny scales make the
    interpolation denominators underflow to zero."""
    c = rng.uniform(-3.0, 3.0)
    scale = 10.0 ** rng.uniform(-300.0, 3.0)
    if name == "tanh":
        return (lambda x: scale * math.tanh(x - c)), rng.uniform(-5, 5), rng.uniform(-5, 5)
    if name == "cubic":
        return (lambda x: scale * ((x - c) ** 3 - 0.5 * (x - c))), rng.uniform(-5, 5), rng.uniform(-5, 5)
    nu = rng.uniform(0.0, 60.0)
    a = rng.uniform(0.0, 80.0)
    return (lambda x: jv(nu, x)), a, a + rng.uniform(0.01, 10.0)


@pytest.mark.parametrize("maxiter", [100, 200, 8])
@pytest.mark.parametrize("xtol", [1e-12, 1e-15, 2e-12])
@pytest.mark.parametrize("name", ["tanh", "cubic", "jv"])
def test_brentq_matches_scipy_bitwise(name, xtol, maxiter):
    rng = random.Random(f"{name}-{xtol}-{maxiter}")
    kinds = set()
    for _ in range(100):
        f, a, b = _family(name, rng)
        got = _outcome(brentq, f, a, b, xtol=xtol, maxiter=maxiter)
        assert got == _outcome(scipy_brentq, f, a, b, xtol=xtol, maxiter=maxiter), (a, b)
        kinds.add(got[0])
    # every family finds roots, and same-sign brackets raise ValueError
    assert float in kinds and ValueError in kinds


def _nan_right(x):
    return math.nan if x > 0.5 else x - 0.7


def test_brentq_defaults_and_edge_cases_match_scipy():
    cases = [
        (lambda x: x - 0.3, 0.0, 1.0, {}),
        # numpy brackets still give a Python float
        (lambda x: x - 0.3, np.float64(0.0), np.float64(1.0), {}),
        (lambda x: np.float64(x) - 0.3, 0.0, 1.0, {}),
        # roots at an endpoint, including a signed zero
        (lambda x: x, 0.0, 1.0, {}),
        (lambda x: x - 1.0, 0.0, 1.0, {}),
        (lambda x: -0.0 if x == 0.25 else x - 0.25, 0.25, 2.0, {}),
        # same signs, also when their product underflows
        (lambda x: x * x + 1.0, -1.0, 2.0, {}),
        (lambda x: 1e-200, 0.0, 1.0, {}),
        # NaN at a bracket end and at an interior iterate
        (_nan_right, 0.0, 1.0, {}),
        (lambda x: math.nan, 0.0, 1.0, {}),
        (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, {}),
        # too few iterations
        (lambda x: math.tanh(x - 0.123), -4.0, 5.0, {"maxiter": 3}),
        (lambda x: x - 0.3, 0.0, 1.0, {"maxiter": 0}),
    ]
    for f, a, b, kwargs in cases:
        assert _outcome(brentq, f, a, b, **kwargs) == _outcome(scipy_brentq, f, a, b, **kwargs)
    assert _outcome(brentq, _nan_right, 0.0, 1.0)[1] == (
        "The function value at x=1.0 is NaN; solver cannot continue."
    )


def test_delta_table_rows_match_scipy_root_finder(capsys, monkeypatch):
    # at these d the interpolation denominator of find_minima's root search is
    # exactly zero, where the step must fall back to bisection as in C
    argv = ["table", "--model", "delta", "--dims", "908,920,1000"]
    assert main(argv) == 0
    ours = capsys.readouterr()
    monkeypatch.setattr(optimizer, "brentq", scipy_brentq)
    monkeypatch.setattr(specialfn, "brentq", scipy_brentq)
    assert main(argv) == 0
    assert capsys.readouterr() == ours
    assert "error" not in ours.out and ours.out.count("\n") == 4
