"""Golden outputs: the exact bytes of fixed CLI commands.

Each case runs one command in-process through `cli.main` and compares its
stdout with a file under tests/golden/: for `matern` also its
`--centers-out` file, and for a command that must fail its stderr, with the
exit code checked too. A change meant to alter the output rewrites them
with

    PYTHONPATH=src python tests/test_golden.py

and lists every changed cell in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import tempfile
from pathlib import Path

import pytest

from conftest import TABLE_DIMS
from packbound.cli import main

GOLDEN = Path(__file__).parent / "golden"

# the dimensions of the paper's table
_PAPER_DIMS = ",".join(map(str, TABLE_DIMS))

#: case name -> (CLI arguments, exit code); `matern` runs with `--centers-out`
#: added, and a command that exits 0 must write nothing to stderr
CASES = {
    **{
        f"matern-d{d}-kappa{kappa}-{fmt}": ([
            "matern", "--d", str(d), "--L", "6", "--T", "2", "--seed", "7",
            "--kappa", str(kappa), "--format", fmt,
        ], 0)
        for d, kappa, fmt in itertools.product((1, 2, 3), (0, 1), ("csv", "json"))
    },
    # the default --Rmax: the closed-form models, and gap optima on both sides
    # of the d where rows pass DBL_MAX
    **{
        f"yamada-{model}-d{d}-{fmt}": (["yamada", "--model", model, "--d", str(d), "--format", fmt], 0)
        for (model, d), fmt in itertools.product(
            (("delta", 1), ("step", 3), ("delta", 24), ("gap", 2), ("gap", 12), ("gap", 300)),
            ("csv", "json"),
        )
    },
    # the bracket's digits run out before --Rmax
    "yamada-gap-d24-Rmax1e4": (["yamada", "--model", "gap", "--d", "24", "--Rmax", "1e4"], 3),
    # 120,215 arrivals: the ghost rule sweeps four bands, each gathering three
    "matern-d1-L2000-T60-csv": (["matern", "--d", "1", "--L", "2000", "--T", "60", "--seed", "7"], 0),
    **{
        f"table-{model}-d1-1000-csv": (["table", "--model", model, "--dims", "1..1000"], 0)
        for model in ("step", "delta")
    },
    **{
        f"table-gap-paper-dims-{fmt}": (["table", "--model", "gap", "--dims", _PAPER_DIMS, "--format", fmt], 0)
        for fmt in ("csv", "json")
    },
    "classical-d2-1000": (["classical", "--dims", "2..1000"], 0),
    # with the gap optimum's density column
    "classical-d2-64-terminal": (["classical", "--dims", "2..64", "--terminal"], 0),
    # rows from a pool of two worker processes
    "table-gap-d2-12-threads2": (["table", "--model", "gap", "--dims", "2..12", "--threads", "2"], 0),
    # the expansions, with and without the numeric optimum, across the gap range
    **{
        f"asymptotics-d{d}{suffix}": (["asymptotics", "--d", str(d), *flag], 0)
        for d in (20, 24, 100, 200, 300, 301, 610, 700, 1000)
        for suffix, flag in (("", []), ("-skip-numeric", ["--skip-numeric"]))
    },
    # the gap optimum at d = 12, as terminal_gap returns it
    "sk-gap-d12-optimum": ([
        "sk", "--model", "gap", "--d", "12", "--phi", "0.019150818069812788",
        "--sigma", "1.1028572752575865", "--Z", "252.96801703484817",
    ], 0),
}


def _run(argv: list[str], code: int, tmp: Path) -> dict[str, str]:
    """The outputs of one command that exits with code: stdout, the `--centers-out`
    file of `matern`, and stderr if code is not 0 (and then it must be empty)."""
    centers = tmp / "centers.csv"
    extra = ["--centers-out", str(centers)] if argv[0] == "matern" else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = main(argv + extra)
    assert got == code and (code or not err.getvalue()), (
        f"packbound {' '.join(argv)} exited {got}, not {code}: {err.getvalue()}"
    )
    files = {"stdout": out.getvalue()}
    if extra:
        files["centers"] = centers.read_text()
    if code:
        files["stderr"] = err.getvalue()
    return files


def _first_difference(want: str, got: str) -> str:
    pairs = itertools.zip_longest(
        want.splitlines(keepends=True), got.splitlines(keepends=True), fillvalue="<end of output>"
    )
    for n, (a, b) in enumerate(pairs, 1):
        if a != b:
            return f"line {n}:\n  golden: {a!r}\n  now:    {b!r}"
    return "no line differs"


@pytest.mark.parametrize("name", CASES)
def test_golden_output(name, tmp_path):
    argv, code = CASES[name]
    for kind, got in _run(argv, code, tmp_path).items():
        path = GOLDEN / f"{name}.{kind}"
        want = path.read_text()
        assert got == want, (
            f"{path.relative_to(GOLDEN.parent.parent)} differs from the output of "
            f"`packbound {' '.join(argv)}` at {_first_difference(want, got)}\n"
            "If the change is meant, rewrite the golden files with "
            "`PYTHONPATH=src python tests/test_golden.py` and list every changed cell in CHANGES.md."
        )


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, code) in CASES.items():
            for kind, text in _run(argv, code, Path(tmp)).items():
                (GOLDEN / f"{name}.{kind}").write_text(text)
    print(f"rewrote {len(CASES)} cases in {GOLDEN}")
