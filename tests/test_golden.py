"""Golden outputs: the exact bytes of fixed CLI commands.

Each case runs one `matern` command in-process through `cli.main` and
compares its stdout and its `--centers-out` file with the files under
tests/golden/. A change meant to alter the output rewrites them
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

from packbound.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: case name -> CLI arguments, run with `--centers-out` added
CASES = {
    f"matern-d{d}-kappa{kappa}-{fmt}": [
        "matern", "--d", str(d), "--L", "6", "--T", "2", "--seed", "7",
        "--kappa", str(kappa), "--format", fmt,
    ]
    for d, kappa, fmt in itertools.product((1, 2, 3), (0, 1), ("csv", "json"))
}


def _run(argv: list[str], centers: Path) -> dict[str, str]:
    """stdout and the `--centers-out` file of one command, which must exit 0 silently."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--centers-out", str(centers)])
    assert (code, err.getvalue()) == (0, ""), f"packbound {' '.join(argv)} exited {code}: {err.getvalue()}"
    return {"stdout": out.getvalue(), "centers": centers.read_text()}


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
    argv = CASES[name]
    for kind, got in _run(argv, tmp_path / "centers.csv").items():
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
        for name, argv in CASES.items():
            for kind, text in _run(argv, Path(tmp) / "centers.csv").items():
                (GOLDEN / f"{name}.{kind}").write_text(text)
    print(f"rewrote {len(CASES)} cases in {GOLDEN}")
