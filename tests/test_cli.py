import ast
import concurrent.futures as cf
import contextlib
import io
import json
import math
import subprocess
import sys
import warnings
from functools import partial
from importlib import resources
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import packbound.cli as cli
import packbound.optimizer as opt
from packbound.cli import _parse_dims, _worker_count, main
from packbound.matern import MAX_ARRIVALS, MAX_BINS
from packbound.models import PackingDensity, RadialModel, make_curve
from packbound.optimizer import MAX_CLOSED_FORM_D, terminal_delta, terminal_gap
from packbound.variance import MAX_R_GRID, yamada_check


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture(scope="module")
def schema():
    text = resources.files("packbound").joinpath("cli-output.schema.json").read_text()
    obj = json.loads(text)
    jsonschema.Draft7Validator.check_schema(obj)
    return obj


def test_parse_dims():
    assert _parse_dims("3,4,5", "step") == [3, 4, 5]
    assert _parse_dims("3..8", "step") == [3, 4, 5, 6, 7, 8]
    assert _parse_dims("2,5..7,9", "step") == [2, 5, 6, 7, 9]
    with pytest.raises(ValueError):
        _parse_dims("5..3", "step")
    with pytest.raises(ValueError):
        _parse_dims(",", "step")
    with pytest.raises(ValueError, match=r"gap dimension must be an integer in \[2, 300\], got 1$"):
        _parse_dims("1..5", "gap")
    with pytest.raises(ValueError, match=r"got 1001$"):
        _parse_dims("2..1001", "step")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["table", "--model", "step", "--dims", "1..3000000000"],
            "error: step dimension must be an integer in [1, 1000], got 3000000000\n",
        ),
        (
            ["classical", "--dims", "2..3000000000"],
            "error: classical dimension must be an integer in [2, 1000], got 3000000000\n",
        ),
    ],
)
def test_oversized_dims_span_rejected_before_expansion(argv, message):
    # under an 800 MB address-space cap, expanding the span would end in a
    # MemoryError traceback; checking its ends first allocates nothing
    import resource

    cap = 800 * 2**20
    res = subprocess.run(
        [sys.executable, "-m", "packbound.cli", *argv],
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (res.returncode, res.stdout, res.stderr) == (2, "", message)


def test_table_step_csv(capsys):
    code, out = run_main(capsys, ["table", "--dims", "3", "--model", "step"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d,sigma_star,Z_star,phi_star,ratio,k_min"
    cells = lines[1].split(",")
    assert cells[0] == "3"
    assert float(cells[3]) == 0.125


def test_table_gap_matches_optimizer(capsys):
    rec = terminal_gap(3)
    code, out = run_main(capsys, ["table", "--dims", "3", "--model", "gap"])
    assert code == 0
    cells = out.strip().split("\n")[1].split(",")
    assert float(cells[1]) == pytest.approx(rec.sigma_star, rel=1e-6)
    assert float(cells[2]) == pytest.approx(rec.Z_star, rel=1e-6)
    assert float(cells[3]) == pytest.approx(rec.phi_star, rel=1e-6)


def test_exit_codes(capsys):
    assert main(["table", "--dims", "1", "--model", "gap"]) == 2
    assert main(["sk", "--model", "step", "--d", "1", "--phi", "0.5", "--samples", "0"]) == 2
    assert main(["asymptotics", "--d", "10"]) == 2
    assert main(["yamada", "--model", "step", "--d", "3", "--phi", "1.5"]) == 2
    assert main(["matern", "--d", "1", "--L", "2", "--T", "5"]) == 2
    assert main(["classical", "--dims", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["yamada", "--model", "step", "--d", "3", "--threads", "2"],
        ["sk", "--model", "step", "--d", "3", "--phi", "0.1", "--seed", "1"],
        ["table", "--dims", "3", "--model", "step", "--seed", "1"],
        ["matern", "--d", "1", "--L", "20", "--T", "1", "--threads", "2"],
    ],
)
def test_options_only_where_used(capsys, argv):
    # --threads belongs to table and --seed to matern; elsewhere argparse rejects them
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err


def test_table_error_rows_annotated(capsys, monkeypatch):
    real = cli.terminal_record

    def flaky(kind, d):
        if d == 4:
            raise RuntimeError("contrived failure")
        return real(kind, d)

    monkeypatch.setattr(cli, "terminal_record", flaky)
    code, out = run_main(capsys, ["table", "--dims", "3,4,5", "--model", "delta"])
    assert code == 3
    lines = out.strip().split("\n")
    assert lines[2] == "4,nan,nan,nan,nan,nan"
    assert lines[3].startswith("# error d=4:")
    assert lines[4].startswith("5,")

    code, out = run_main(capsys, ["table", "--dims", "3,4", "--model", "delta", "--format", "json"])
    assert code == 3
    rows = json.loads(out)["rows"]
    assert "error" in rows[1] and rows[1]["d"] == 4


def test_threads_match_sequential(capsys):
    code1, seq = run_main(capsys, ["table", "--dims", "2..5", "--model", "delta"])
    code2, par = run_main(capsys, ["table", "--dims", "2..5", "--model", "delta", "--threads", "3"])
    assert code1 == code2 == 0
    assert seq == par


def test_json_outputs_validate(capsys, schema):
    invocations = [
        ["table", "--dims", "2,3", "--model", "gap", "--format", "json"],
        ["sk", "--model", "step", "--d", "1", "--phi", "0.5", "--samples", "64", "--format", "json"],
        ["asymptotics", "--d", "24", "--skip-numeric", "--format", "json"],
        ["yamada", "--model", "delta", "--d", "1", "--format", "json"],
        # the expected count overflows on the far rows, so sigma^2 is inf there
        ["yamada", "--model", "step", "--d", "700", "--format", "json"],
        ["matern", "--d", "1", "--L", "30", "--T", "4", "--seed", "5", "--format", "json"],
        ["classical", "--dims", "56,60", "--format", "json"],
    ]

    def strict(name):
        raise ValueError(f"{name} is not valid JSON")

    for argv in invocations:
        code, out = run_main(capsys, argv)
        assert code == 0, argv
        jsonschema.validate(json.loads(out, parse_constant=strict), schema)


def test_yamada_gap_default_density(capsys):
    code, out = run_main(capsys, ["yamada", "--model", "gap", "--d", "2", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["violations"] == []
    rec = terminal_gap(2)
    assert obj["phi"] == pytest.approx(rec.phi_star, rel=1e-6)


def test_yamada_gap_caps_counts_past_phi_accuracy(capsys):
    # the default density is the numeric gap optimum: counts whose fractional
    # part depends on phi* below its accuracy print the cap 1/4. A given --phi
    # is taken as exact and keeps the rule of the closed forms
    rec = terminal_gap(12)
    argv = ["yamada", "--model", "gap", "--d", "12", "--format", "json"]
    _, out = run_main(capsys, argv)
    _, given = run_main(capsys, argv + ["--phi", repr(rec.phi_star)])
    optimum, given = json.loads(out), json.loads(given)
    assert optimum["R"] == given["R"]
    counts = rec.phi_star * (2.0 * np.array(optimum["R"])) ** 12
    bound, given_bound = np.array(optimum["yamada_bound"]), np.array(given["yamada_bound"])
    past = counts * rec.phi_rel_err > 1.01e-8
    assert past.sum() > 300 and np.all(bound[past] == 0.25)
    assert np.any(given_bound[past] < 0.25)
    near = counts * rec.phi_rel_err < 0.99e-8
    assert np.array_equal(bound[near], given_bound[near])


def test_matern_csv_layout(capsys, tmp_path):
    centers = tmp_path / "centers.csv"
    code, out = run_main(
        capsys,
        ["matern", "--d", "2", "--L", "12", "--T", "3", "--seed", "3", "--centers-out", str(centers)],
    )
    assert code == 0
    lines = out.strip().split("\n")
    meta = [ln for ln in lines if ln.startswith("#")]
    assert any(ln.startswith("# phi_hat,") for ln in meta)
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == "r,g2_hat,stderr,g2_analytic"
    assert centers.read_text().startswith("x1,x2")


def test_classical_terminal_column(capsys):
    code, out = run_main(capsys, ["classical", "--dims", "60", "--terminal"])
    assert code == 0
    cells = out.strip().split("\n")[1].split(",")
    densest, phi_star = float(cells[7]), float(cells[8])
    assert phi_star > densest


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "t.csv"
    code, out = run_main(capsys, ["table", "--dims", "3", "--model", "step", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("d,sigma_star")


def test_byte_identical_reruns():
    argv = [sys.executable, "-m", "packbound.cli", "matern", "--d", "1", "--L", "50",
            "--T", "4", "--seed", "11", "--format", "json"]
    a = subprocess.run(argv, capture_output=True).stdout
    b = subprocess.run(argv, capture_output=True).stdout
    assert a == b and len(a) > 0


def test_sk_gap_curve_hyperuniform(capsys):
    rec = terminal_gap(12)
    code, out = run_main(capsys, [
        "sk", "--model", "gap", "--d", "12", "--phi", f"{rec.phi_star:.17g}",
        "--sigma", f"{rec.sigma_star:.17g}", "--Z", f"{rec.Z_star:.17g}",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,S"
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(0.0, abs=1e-7)
    values = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert min(values) >= -1e-7

def test_threads_match_sequential_on_bad_dimension(capsys):
    code1 = main(["table", "--dims", "2,301", "--model", "gap"])
    seq = capsys.readouterr()
    code2 = main(["table", "--dims", "2,301", "--model", "gap", "--threads", "2"])
    par = capsys.readouterr()
    assert code1 == code2 == 2
    assert seq.out == par.out == ""
    assert seq.err == par.err
    assert "301" in seq.err


@pytest.mark.parametrize(
    "L, T", [("20", "nan"), ("20", "inf"), ("nan", "1"), ("inf", "1")]
)
def test_matern_nonfinite_rejected_before_simulation(capsys, monkeypatch, L, T):
    import packbound.cli as cli

    def never(config):
        raise AssertionError("simulation started")

    monkeypatch.setattr(cli.mt, "simulate", never)
    assert main(["matern", "--d", "2", "--L", L, "--T", T]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: box length and time horizon must be finite")


def test_sk_huge_sample_count_rejected(capsys):
    argv = ["sk", "--model", "gap", "--d", "3", "--phi", "0.5", "--samples", "100000000000000"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: need 16 <= samples <= ")


def test_sk_csv_and_json_layout(capsys):
    argv = ["sk", "--model", "delta", "--d", "3", "--phi", "0.3125", "--Z", "1.5",
            "--kmax", "20", "--samples", "64"]
    # the CLI refines its grid around minima, so the row count comes from make_curve;
    # its fixed 0.05 tail tolerance fires on this correct curve, whose contact
    # term decays only like k^-(d-1)/2 (a FOUND in CHANGES.md)
    tail = partial(pytest.warns, RuntimeWarning, match="tail has not settled")
    model = RadialModel("delta", 1.0, 1.5)
    with tail():
        k, S = make_curve(model, PackingDensity(3, 5.0 / 16.0), k_max=20.0, n=64)
    with tail():
        code, out = run_main(capsys, argv)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,S"
    assert len(lines) == k.size + 1
    assert all(len(row.split(",")) == 2 for row in lines[1:])
    with tail():
        code, out = run_main(capsys, argv + ["--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["command"] == "sk"
    assert obj["model"] == "delta" and obj["d"] == 3
    assert obj["Z"] == 1.5 and obj["sigma"] == 1.0
    assert len(obj["points"]) == k.size and len(obj["points"][0]) == 2
    assert obj["S0"] == float(cli._fmt(S[0]))


def test_yamada_csv_violated_column(capsys):
    rec = terminal_delta(1)
    chk = yamada_check(
        RadialModel("delta", 1.0, rec.Z_star), PackingDensity(1, rec.phi_star), 5.0, n_grid=50
    )
    code, out = run_main(capsys, ["yamada", "--model", "delta", "--d", "1", "--Rmax", "5",
                                  "--grid", "50"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "R,sigma2,yamada_bound,violated"
    assert len(lines) == len(chk.R) + 1
    n_true = sum(1 for ln in lines[1:] if ln.endswith(",true"))
    assert n_true == len(chk.violations)


def test_matern_hist_and_centers_csv(capsys, tmp_path):
    centers = tmp_path / "centers.csv"
    code, out = run_main(capsys, ["matern", "--d", "2", "--L", "12", "--T", "5", "--kappa", "1",
                                  "--seed", "2", "--centers-out", str(centers)])
    assert code == 0
    lines = out.strip().split("\n")
    meta = dict(ln[2:].split(",") for ln in lines if ln.startswith("# "))
    hist = [ln for ln in lines if not ln.startswith("#")]
    assert hist[0] == "r,g2_hat,stderr,g2_analytic"
    assert len(hist) == 50 + 1  # default --bins
    cent = centers.read_text().strip().split("\n")
    assert cent[0] == "x1,x2"
    assert len(cent) == int(meta["n_accepted"]) + 1
    row = [float(v) for v in cent[1].split(",")]
    assert len(row) == 2


@pytest.mark.parametrize(
    "argv, name",
    [
        (["sk", "--model", "delta", "--d", "3", "--phi", "0.1", "--Z", "nan"], "Z"),
        (["sk", "--model", "gap", "--d", "3", "--phi", "0.1", "--sigma", "inf"], "sigma"),
        (["yamada", "--model", "gap", "--d", "3", "--sigma", "nan"], "sigma"),
        (["yamada", "--model", "delta", "--d", "3", "--Z", "inf"], "Z"),
        (["yamada", "--model", "delta", "--d", "3", "--Z", "nan"], "Z"),
    ],
)
def test_nonfinite_model_parameters_rejected(capsys, argv, name):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"{name} must be finite" in captured.err


def test_matern_bins_capped_before_simulation(capsys, monkeypatch):
    import packbound.cli as cli

    def never(config):
        raise AssertionError("simulation started")

    monkeypatch.setattr(cli.mt, "simulate", never)
    for bins in (str(MAX_BINS + 1), "100000000000"):
        assert main(["matern", "--d", "1", "--L", "20", "--T", "1", "--bins", bins]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: need 50 <= histogram bins <= {MAX_BINS}")


def test_matern_arrivals_capped_before_allocation(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("arrivals drawn")

    monkeypatch.setattr(cli.mt, "arrivals", never)
    for d, L, T in (("1", "5000", "3356"), ("2", "1e200", "1"), ("3", "40", "1e300")):
        assert main(["matern", "--d", d, "--L", L, "--T", T]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: expected arrival count L^d*T must be at most {MAX_ARRIVALS}"
        )


@pytest.mark.parametrize("d", ["1001", "5000", "20000"])
def test_asymptotics_dimension_capped_up_front(capsys, d):
    # past the cap the report overflows, or scipy fails on the Bessel order
    assert main(["asymptotics", "--d", d, "--skip-numeric"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: asymptotics dimension must be an integer in [20, {MAX_CLOSED_FORM_D}], got {d}\n"
    )


@pytest.mark.parametrize("d", ["301", "1000"])
def test_asymptotics_numeric_past_gap_range_rejected_up_front(capsys, monkeypatch, d):
    def never(*args, **kwargs):
        raise AssertionError("report built")

    monkeypatch.setattr(cli.asym, "build_report", never)
    assert main(["asymptotics", "--d", d]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --d {d} is past the gap optimizer's last dimension 300; "
        "add --skip-numeric to print the expansions alone\n"
    )


def test_matern_tiny_horizon_prints_ideal_gas_g2(capsys):
    # g2_matern's direct form underflowed here (e1*e1 = 0)
    code, out = run_main(capsys, ["matern", "--d", "1", "--L", "6", "--T", "1e-300"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
    col = rows[0].index("g2_analytic")
    assert {float(r[col]) for r in rows[1:]} == {1.0}


def test_yamada_grid_capped_before_allocation(capsys, monkeypatch):
    import packbound.variance as var

    def never(*args):
        raise AssertionError("R grid built")

    monkeypatch.setattr(var, "_r_grid", never)
    for grid in (str(MAX_R_GRID + 1), "100000000000", "1", "-5"):
        assert main(["yamada", "--model", "delta", "--d", "1", "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: need 2 <= grid points <= {MAX_R_GRID}")


@pytest.mark.parametrize("kmax", ["nan", "inf", "-5", "0"])
def test_sk_kmax_checked(capsys, kmax):
    argv = ["sk", "--model", "step", "--d", "3", "--phi", "0.1", "--kmax", kmax]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: curve end k_max must be finite and positive")


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["classical", "--dims", "5000"], "got 5000"),
        (["table", "--model", "step", "--dims", "2000"], "got 2000"),
        (["table", "--model", "delta", "--dims", "3,1100"], "got 1100"),
        (["table", "--model", "gap", "--dims", "3,301", "--threads", "2"], "got 301"),
        (["table", "--model", "step", "--dims", "3,4", "--threads", "-4"], "--threads must be"),
        (
            ["classical", "--dims", "299..301", "--terminal"],
            "gap dimension must be an integer in [2, 300], got 301",
        ),
    ],
)
def test_bad_table_input_rejected_up_front(capsys, monkeypatch, argv, bad):
    # any record or optimum computed would raise
    monkeypatch.setattr(cli, "terminal_record", None)
    monkeypatch.setattr(cli, "terminal_gap", None)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and bad in captured.err


def test_worker_count_rule(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert [_worker_count(n, 17) for n in (1, 3, 100000)] == [1, 3, 4]
    assert _worker_count(3, 2) == 2
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert _worker_count(8, 17) == 1
    for bad in (0, -4):
        with pytest.raises(ValueError, match="--threads must be at least 1"):
            _worker_count(bad, 17)


_LOADED_SCRIPT = """
import contextlib, io, json, sys
import packbound.cli as cli
heavy = ("scipy.optimize", "scipy.spatial", "scipy.linalg", "scipy.sparse", "scipy.integrate",
         "concurrent.futures.process", "multiprocessing")
loaded = {"import": [m for m in heavy if m in sys.modules]}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["table", "--model", "gap", "--dims", "3"]),
             cli.main(["yamada", "--model", "delta", "--d", "1"])]
    loaded["gap, yamada"] = [m for m in heavy if m in sys.modules]
    codes.append(cli.main(["matern", "--d", "1", "--L", "50", "--T", "1"]))
    loaded["matern"] = [m for m in heavy if m in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_commands_import_only_what_they_run():
    # start-up loads numpy and scipy.special only; scipy.spatial comes with the
    # first simulation, and the process pool only with table --threads N > 1
    res = subprocess.run([sys.executable, "-c", _LOADED_SCRIPT], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout)
    assert got["codes"] == [0, 0, 0]
    assert got["loaded"]["import"] == []
    assert got["loaded"]["gap, yamada"] == []
    assert "scipy.spatial" in got["loaded"]["matern"]


def _unreached_public_names(pkg: Path) -> list[str]:
    """'module.name' for each __all__ name that no top-level definition of cli reaches.

    Walks the AST of every module in pkg: a reached definition reaches each
    top-level definition of its module it names, each name it imports with
    'from .module import name', and 'alias.name' for each 'from . import
    module as alias'.
    """
    defs, aliases, exports = {}, {}, {}
    for path in sorted(pkg.glob("*.py")):
        mod = path.stem
        defs[mod], aliases[mod], exports[mod] = {}, {}, []
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod][node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name) and t.id == "__all__":
                        exports[mod] = ast.literal_eval(node.value)
                    elif isinstance(t, ast.Name):
                        defs[mod][t.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    # (module, name), or (module, None) for a module alias
                    target = (node.module, a.name) if node.module else (a.name, None)
                    aliases[mod][a.asname or a.name] = target
    reached = set()
    todo = [("cli", name) for name in defs["cli"]]
    while todo:
        mod, name = todo.pop()
        if (mod, name) in reached:
            continue
        reached.add((mod, name))
        for node in ast.walk(defs[mod][name]):
            if isinstance(node, ast.Name):
                if node.id in defs[mod]:
                    todo.append((mod, node.id))
                elif aliases[mod].get(node.id, (None, None))[1] is not None:
                    todo.append(aliases[mod][node.id])
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                target, member = aliases[mod].get(node.value.id, (None, ""))
                if member is None and node.attr in defs[target]:
                    todo.append((target, node.attr))
    return sorted(
        f"{mod}.{name}" for mod in exports for name in exports[mod] if (mod, name) not in reached
    )


def test_public_names_serve_a_command():
    # every public library name is on some command's path; reference formulas
    # that only the tests evaluate live in tests/oracle_routes.py
    unreached = _unreached_public_names(Path(cli.__file__).parent)
    assert not unreached, f"{len(unreached)} public names no command reaches: {unreached}"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_table_failure_reported_on_stderr(capsys, monkeypatch, tmp_path, threads):
    # the pool runs in threads here, so the patched S reaches its workers
    monkeypatch.setattr(cf, "ProcessPoolExecutor", cf.ThreadPoolExecutor)
    real = opt.structure_factor_gap

    def dented(d, *args):
        # S reads below the -1e-9 floor at the first minimum of d = 4 only
        S = real(d, *args)
        if d == 4:
            S[0] = -2e-9
        return S

    monkeypatch.setattr(opt, "structure_factor_gap", dented)
    argv = ["table", "--model", "delta", "--dims", "3..5", "--threads", threads]
    msg = "closed-form terminal parameters violate S >= 0 at d=4: min S = -2.000e-09"
    assert main(argv) == 3
    shown = capsys.readouterr()
    assert f"\n4,nan,nan,nan,nan,nan\n# error d=4: {msg}\n5," in shown.out
    assert shown.err == f"numerical failure: d=4: {msg}\n"
    # with --out the file holds the same bytes and stderr still names d
    path = tmp_path / "table.csv"
    assert main(argv + ["--out", str(path)]) == 3
    assert capsys.readouterr() == ("", shown.err)
    assert path.read_text() == shown.out


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["--model", "delta", "--d", "2000", "--phi", "0.1", "--Z", "1"], "--d must be"),
        (["--model", "step", "--d", "0", "--phi", "0.1"], "--d must be"),
        (["--model", "gap", "--d", "3", "--phi", "0.1", "--sigma", "1e308", "--Z", "1"],
         "phi overflows at --d 3, --phi 0.1, --sigma 1e+308"),
        (["--model", "gap", "--d", "1000", "--phi", "0.5", "--sigma", "1.5"],
         "phi overflows at --d 1000, --phi 0.5, --sigma 1.5"),
        # the amplitude is finite, but the curve end times sigma is not
        (["--model", "gap", "--d", "1", "--phi", "1e-10", "--sigma", "1e307"],
         "k_max * --sigma overflows"),
        (["--model", "gap", "--d", "3", "--phi", "1e-300", "--sigma", "1e10", "--kmax", "1e300"],
         "k_max * --sigma overflows: 1e+300 * 10000000000.0"),
    ],
)
def test_sk_input_checked_up_front(capsys, monkeypatch, argv, bad):
    # no curve is sampled, and numpy prints no overflow warning first
    monkeypatch.setattr(cli, "make_curve", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sk"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and bad in captured.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["table", "--model", "step", "--dims", "3"], "--out"),
        (["matern", "--d", "1", "--L", "20", "--T", "1"], "--centers-out"),
    ],
)
def test_unwritable_output_path_rejected(capsys, tmp_path, argv, flag):
    path = str(tmp_path / "missing" / "x.csv")
    assert main(argv + [flag, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and path in captured.err


@pytest.fixture
def coarse_k_grid(monkeypatch):
    """_k_grid at 1/pi points per unit, too coarse to find the gap model's tangencies."""
    real = opt._k_grid

    def coarse(d):
        k_hi = real(d)[-1]
        return np.linspace(1e-9, k_hi, int(k_hi / math.pi))

    # no record or kernel cached on either grid reaches the other
    opt._sigma_free_kernels.cache_clear()
    opt.terminal_gap.cache_clear()
    monkeypatch.setattr(opt, "_k_grid", coarse)
    yield
    opt._sigma_free_kernels.cache_clear()
    opt.terminal_gap.cache_clear()


def test_gap_without_binding_constraint_is_numerical_failure(capsys, coarse_k_grid):
    with pytest.raises(RuntimeError, match="no binding constraint at d=80"):
        terminal_gap.__wrapped__(80)
    assert main(["table", "--model", "gap", "--dims", "80"]) == 3
    shown = capsys.readouterr()
    assert "\n# error d=80: no binding constraint at d=80" in shown.out
    assert shown.err.startswith("numerical failure: d=80: no binding constraint")


def _run_quiet(argv):
    """main(argv)'s stdout, stderr and exit code, captured without pytest fixtures."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code


@settings(max_examples=25, deadline=None)
@given(
    model=st.sampled_from(["step", "delta"]),
    dims=st.lists(st.integers(-2, 1005), min_size=1, max_size=6),
)
def test_pooled_table_matches_sequential(model, dims):
    # out-of-range dims exit 2 before any row; the rest print the same rows
    argv = ["table", "--model", model, "--dims=" + ",".join(map(str, dims))]
    assert _run_quiet(argv + ["--threads", "2"]) == _run_quiet(argv + ["--threads", "1"])


@settings(max_examples=30, deadline=None)
@given(
    model=st.sampled_from(["step", "delta"]),
    dims=st.lists(st.integers(1, 1000), min_size=1, max_size=6),
    pick=st.integers(0, 5),
    exc=st.sampled_from([ValueError, RuntimeError, ZeroDivisionError]),
)
def test_failing_row_is_error_row_on_both_paths(model, dims, pick, exc):
    bad = dims[pick % len(dims)]
    real = cli.terminal_record

    def failing(kind, d):
        if d == bad:
            raise exc("injected failure")
        return real(kind, d)

    argv = ["table", "--model", model, "--dims=" + ",".join(map(str, dims))]
    # the pool runs in threads here, so the patched record reaches its workers
    with mock.patch.object(cli, "terminal_record", failing), \
            mock.patch.object(cf, "ProcessPoolExecutor", cf.ThreadPoolExecutor):
        pooled = _run_quiet(argv + ["--threads", "2"])
        sequential = _run_quiet(argv + ["--threads", "1"])
    assert pooled == sequential
    out, err, code = sequential
    assert code == 3
    assert f"\n# error d={bad}: injected failure\n" in out
    assert f"numerical failure: d={bad}: injected failure\n" in err
