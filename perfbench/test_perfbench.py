"""Tests of the benchmark itself: the oracles, the checks and the tracer.

    python3 -m pytest perfbench -q        (from the repository root, ~2 min)

Each check must pass the program's genuine output and fail a deliberately
corrupted copy of it.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import betainc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

#: genuine `packbound table --model gap --dims 3,200` rows
GAP_ROWS = {
    3: "3,1.246997e+00,7.932576e+00,5.758254e-01,1.842641e+00,4.015993e+00",
    200: "200,1.008510e+00,4.958618e+17,5.667099e-44,9.016512e+14,1.084390e+02",
}


def cli(*args: str, tracer: Path | None = None) -> str:
    cmd = [sys.executable, "-m", "packbound.cli", *args]
    if tracer is not None:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(tracer), "--", *args]
    return subprocess.run(cmd, env=ENV, check=True, capture_output=True, text=True).stdout


def gap_text(rows: dict[int, str]) -> str:
    return oracles.TABLE_HEADER + "\n" + "\n".join(rows.values()) + "\n"


def with_cell(row: str, col: int, fn) -> str:
    cells = row.split(",")
    cells[col] = f"{fn(float(cells[col])):.6e}"
    return ",".join(cells)


# ---------------------------------------------------------------- oracles


@pytest.mark.parametrize("mu", [-0.5, 0.5, 1.0, 2.5, 49.0, 50.0, 51.0, 99.0, 100.0, 101.0])
def test_bessel_kernel_matches_mpmath(mu):
    x = np.array([1e-3, 0.05, 0.5, 3.0, 10.0, 11.5, 12.5, 40.0, 101.0, 150.0, 370.0])
    ref = np.array([float(mpmath.hyp0f1(mu + 1, -mpmath.mpf(v) ** 2 / 4)) for v in x])
    np.testing.assert_allclose(oracles.bessel_kernel(mu, x), ref, rtol=1e-10, atol=1e-13)


def test_renyi_constant():
    assert oracles.renyi_coverage(math.inf) == pytest.approx(oracles.RENYI_CONSTANT, abs=1e-7)
    assert oracles.renyi_coverage(100.0) < oracles.RENYI_CONSTANT


@pytest.mark.parametrize("d", [1, 3, 5])
def test_odd_alpha2_matches_incomplete_beta(d):
    for x in (0.0, 0.1, 0.5, 0.9, 0.999):
        exact = float(oracles._alpha2_odd(d, Fraction(x)))
        assert exact == pytest.approx(betainc((d + 1) / 2, 0.5, 1 - x * x), rel=1e-13, abs=1e-16)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_closed_form_alpha2_and_g2(d):
    for x in (0.05, 0.4, 0.8):
        assert oracles.alpha2_closed(d, x) == pytest.approx(betainc((d + 1) / 2, 0.5, 1 - x * x), rel=1e-13)
    assert oracles.ghost_g2(d, 2.5, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert oracles.ghost_g2(d, 0.9, 1.0) == 0.0


def test_mpmath_variance_matches_exact_at_odd_d():
    phi, sigma, Z = oracles.closed_form_model("delta", 3)
    for R in (0.9, 2.3, 7.0):
        assert oracles.variance_mpmath(3, phi, sigma, Z, R) == pytest.approx(
            oracles.variance_odd(3, phi, sigma, Z, R), rel=1e-12)


# ---------------------------------------------------------------- gap table


def test_gap_check_accepts_genuine_rows():
    assert oracles.check_gap_table(gap_text(GAP_ROWS), [3, 200]) == []


@pytest.mark.parametrize("col,scale", [(1, 1 + 1e-3), (3, 1 - 1e-3), (2, 1 + 1e-3), (4, 1.01), (5, 1.02)])
@pytest.mark.parametrize("d", [3, 200])
def test_gap_check_rejects_corrupted_cell(d, col, scale):
    rows = dict(GAP_ROWS)
    rows[d] = with_cell(rows[d], col, lambda v: v * scale)
    assert oracles.check_gap_table(gap_text(rows), [3, 200])


def test_gap_check_rejects_infeasible_amplitude():
    # phi* raised by 5e-5 (inside the paper's 1e-4) with Z* kept consistent:
    # S(k) then dips below zero near k_min
    d, row = 3, GAP_ROWS[3]
    cells = [float(c) for c in row.split(",")]
    phi = cells[3] * (1 + 5e-5)
    Z = (2 * cells[1]) ** d * phi - 1
    ratio = 2 ** (d + 1) * phi / (d + 2)
    bad = f"3,{cells[1]:.6e},{Z:.6e},{phi:.6e},{ratio:.6e},{cells[5]:.6e}"
    errors = oracles.check_gap_table(gap_text({3: bad}), [3])
    assert any("< 0" in e for e in errors), errors


def test_gap_check_rejects_missing_or_reordered_rows():
    assert oracles.check_gap_table(gap_text({3: GAP_ROWS[3]}), [3, 200])
    assert oracles.check_gap_table(gap_text(GAP_ROWS), [200, 3])


# ---------------------------------------------------------------- yamada


@pytest.fixture(scope="module")
def yamada_d1():
    return cli("yamada", "--model", "delta", "--d", "1")


def edit_row(text: str, row: int, col: int, value: str) -> str:
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_yamada_check_accepts_genuine_d1(yamada_d1):
    assert oracles.check_yamada(yamada_d1, "delta", 1, 3, 0) == []


def test_yamada_check_rejects_corruptions(yamada_d1):
    rows = yamada_d1.splitlines()[1:]
    s2 = float(rows[40].split(",")[1])
    flagged = next(i for i, r in enumerate(rows) if r.endswith("true"))
    clean = next(i for i, r in enumerate(rows) if r.endswith("false"))
    corrupted = [
        edit_row(yamada_d1, 40, 1, f"{s2 * 1.001:.6e}"),
        edit_row(yamada_d1, flagged, 3, "false"),
        edit_row(yamada_d1, clean, 3, "true"),
        edit_row(yamada_d1, 40, 2, "2.500000e-01"),
        "\n".join(yamada_d1.splitlines()[:-1]) + "\n",
    ]
    for text in corrupted:
        assert oracles.check_yamada(text, "delta", 1, 3, 0)
    # the same output presented as another model or dimension fails too
    assert oracles.check_yamada(yamada_d1, "step", 1, 3, 0)


def gauss_legendre_variance(d: int, model: str, R: np.ndarray) -> np.ndarray:
    """sigma^2(R) with I(R) from a plain 128-node Gauss-Legendre rule in u = r^d."""
    phi, sigma, Z = (float(v) for v in oracles.closed_form_model(model, d))
    nodes, weights = np.polynomial.legendre.leggauss(128)
    out = []
    for r in R:
        u_hi = min(sigma, 2 * r) ** d
        u = 0.5 * u_hi * (nodes + 1)
        x = u ** (1 / d) / (2 * r)
        integral = 0.5 * u_hi * np.dot(weights, betainc((d + 1) / 2, 0.5, np.clip(1 - x * x, 0, 1)))
        contact = betainc((d + 1) / 2, 0.5, 1 - 1 / (2 * r) ** 2) if 2 * r > 1 else 0.0
        out.append(phi * (2 * r) ** d * (1 - 2**d * phi * integral + Z * contact))
    return np.array(out)


def test_yamada_check_rejects_gauss_legendre_at_d24():
    text = cli("yamada", "--model", "delta", "--d", "24")
    assert oracles.check_yamada(text, "delta", 24, 3, 11) == []
    lines = text.splitlines()
    R = np.array([float(line.split(",")[0]) for line in lines[1:]])
    s2 = gauss_legendre_variance(24, "delta", R)
    for i, v in enumerate(s2):
        cells = lines[i + 1].split(",")
        cells[1] = f"{v:.6e}"
        lines[i + 1] = ",".join(cells)
    errors = oracles.check_yamada("\n".join(lines) + "\n", "delta", 24, 3, 11)
    assert any("sigma2" in e for e in errors), errors


# ---------------------------------------------------------------- matern


@pytest.fixture(scope="module")
def ghost_d3(tmp_path_factory):
    d, L, T, kappa = run.MATERN_CASES[2]
    centers = tmp_path_factory.mktemp("ghost") / "centers.csv"
    out = cli("matern", "--d", str(d), "--L", repr(L), "--T", repr(T), "--kappa", str(kappa),
              "--seed", "12", "--centers-out", str(centers))
    return out, centers.read_text(), (d, L, T, kappa, 12)


def test_matern_check_accepts_genuine_runs(ghost_d3, tmp_path):
    out, centers, case = ghost_d3
    assert oracles.check_matern(out, centers, *case) == []
    path = tmp_path / "rsa.csv"
    rsa = cli("matern", "--d", "1", "--L", "300.0", "--T", "100.0", "--kappa", "0", "--seed", "4",
              "--centers-out", str(path))
    assert oracles.check_matern(rsa, path.read_text(), 1, 300.0, 100.0, 0, 4) == []


def test_matern_check_rejects_corruptions(ghost_d3):
    out, centers, case = ghost_d3
    lines = centers.splitlines()
    overlap = lines[:]
    x = [float(c) for c in lines[1].split(",")]
    overlap[2] = ",".join(f"{c + 0.3 if j == 0 else c:.9e}" for j, c in enumerate(x))
    meta_phi = next(line for line in out.splitlines() if line.startswith("# phi_hat"))
    phi = float(meta_phi.split(",")[1])
    hist = out.splitlines()
    head = next(i for i, line in enumerate(hist) if line == oracles.HIST_HEADER)
    scaled = hist[: head + 1] + [with_cell(row, 1, lambda v: v * 1.05) for row in hist[head + 1:]]
    cases = [
        (out, "\n".join(overlap) + "\n"),
        (out.replace(meta_phi, f"# phi_hat,{phi * 1.01:.6e}"), centers),
        ("\n".join(scaled) + "\n", centers),
        (out, "\n".join(lines[:-1]) + "\n"),
    ]
    for text, cen in cases:
        assert oracles.check_matern(text, cen, *case)
    # a ghost run presented as standard RSA fails the Renyi check
    assert oracles.check_matern(out, centers, case[0], case[1], case[2], 0, case[4])


# ---------------------------------------------------------------- tracer and runner


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_tracer_leaves_stdout_unchanged_and_counts_layers(tmp_path):
    args = ("yamada", "--model", "delta", "--d", "1")
    trace_file = tmp_path / "trace.json"
    assert cli(*args, tracer=trace_file) == cli(*args)
    m = run.summarize_trace(json.loads(trace_file.read_text()))
    assert m["cli.main.calls"] == 1 and m["variance.yamada_check.calls"] == 1
    assert m["variance.number_variance.calls"] > 500
    # alpha2 reached through variance.alpha2, an imported copy
    assert m["geometry.alpha2.calls"] > m["variance.number_variance.calls"]
    assert 0 < m["variance.number_variance.self_s"] < m["variance.number_variance.s"]
    assert m["specialfn.bessel_lambda.calls"] == 0


def test_traced_run_reports_every_layer_metric():
    r = bench("--workload", "matern_sim", "--seed", "5", "--seconds", "1", "--trace", "1")
    result = json.loads(r.stdout.splitlines()[-1])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"] and set(m) == set(run.PER_LAYER)
    # alpha2 reached through matern.beta2, an imported copy
    assert m["geometry.alpha2.calls"] == 50 and m["matern.simulate.peak_rss_rise_mb"] > 100
    assert m["matern.arrivals.points"] > 10**6 and m["specialfn.bessel_lambda.calls"] == 0


def test_same_seed_gives_identical_bytes():
    runs = [bench("--workload", "matern_sim", "--seed", "5", "--seconds", "1") for _ in range(2)]
    ops = [[line for line in r.stdout.splitlines() if line.startswith("op ")] for r in runs]
    digests = [[line.split("sha256=")[1] for line in o] for o in ops]
    assert len(digests[0]) == len(run.MATERN_CASES) and digests[0] == digests[1]
    result = json.loads(runs[0].stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    r = bench("--workload", "gap_low_d", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert r.returncode != 0 and r.stdout.strip() == ""
