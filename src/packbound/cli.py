"""Command-line front end: tables, curves, reports as CSV or JSON.

Output contract: floats are printed as 7-significant-digit scientific notation
in both formats (JSON numbers are rounded before serialization), so identical
invocations produce byte-identical streams. This module is the only place
that turns results into text: the library returns numbers, and every CSV and
JSON byte comes from ``_csv`` and ``_dump`` below. Exit codes: 0 success, 2
bad usage, parameter validation or an unwritable output path, 3 numerical
failure during computation. ``table`` checks every input before it computes
a row, so any failure while computing a row is the library's: the row
becomes an error row, stderr names it and the exit code is 3, whether the
rows come from a process pool or one after another.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial

import numpy as np

from . import asymptotics as asym
from . import matern as mt
from .models import PackingDensity, RadialModel, default_k_max, log_amplitude, make_curve
from .optimizer import DIMENSION_RANGE, MAX_CLOSED_FORM_D, check_dimension, classical_bounds
from .optimizer import terminal_gap, terminal_record
from .variance import yamada_check

TABLE_COLUMNS = ("d", "sigma_star", "Z_star", "phi_star", "ratio", "k_min")
CLASSICAL_COLUMNS = (
    "d", "minkowski", "ball", "greedy", "blichfeldt", "rogers", "kl", "densest_known", "phi_star"
)


def _fmt(v: float) -> str:
    return f"{v:.6e}"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt(v)
    return str(v)


def _csv(header, rows, meta=()) -> str:
    """'# key,value' lines for meta, the header, then one line of cells per row."""
    lines = [f"# {key},{_cell(val)}" for key, val in meta]
    lines.append(",".join(header))
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _jwalk(obj):
    """Floats rounded as _fmt prints them; NaN and +-inf become null so the stream stays valid."""
    if isinstance(obj, dict):
        return {k: _jwalk(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_jwalk(v) for v in obj]
    if isinstance(obj, float):
        return float(_fmt(obj)) if math.isfinite(obj) else None
    return obj


def _dump(obj: dict) -> str:
    return json.dumps(_jwalk(obj), indent=2) + "\n"


def _parse_dims(text: str, kind: str) -> list[int]:
    """A comma list of dimensions and lo..hi spans, expanded only once
    check_dimension(kind, .) has passed every value and both ends of every span."""
    spans = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo, hi = (int(v) for v in token.split("..", 1))
            if hi < lo:
                raise ValueError(f"empty dimension span {token!r}")
            spans.append((lo, hi))
        elif token:
            spans.append((int(token), int(token)))
    if not spans:
        raise ValueError("no dimensions given")
    for lo, hi in spans:
        check_dimension(kind, lo)
        check_dimension(kind, hi)
    return [d for lo, hi in spans for d in range(lo, hi + 1)]


def _table_row(kind: str, d: int) -> dict:
    """The TABLE_COLUMNS of d's record, or {"d": d, "error": ...} if computing it fails."""
    try:
        rec = terminal_record(kind, d)
    except Exception as exc:
        return {"d": d, "error": str(exc)}
    return {c: getattr(rec, c) for c in TABLE_COLUMNS}


def _worker_count(threads: int, n_dims: int) -> int:
    """Worker processes for --threads: never more than the dims or the CPUs."""
    if threads < 1:
        raise ValueError(f"--threads must be at least 1, got {threads}")
    return min(threads, n_dims, os.cpu_count() or 1)


def cmd_table(args) -> tuple[str, int]:
    dims = _parse_dims(args.dims, args.model)
    workers = _worker_count(args.threads, len(dims))

    row = partial(_table_row, args.model)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(row, dims))
    else:
        rows = list(map(row, dims))

    errors = [r for r in rows if "error" in r]
    for r in errors:  # stderr names each failure, also when --out takes the rows
        print(f"numerical failure: d={r['d']}: {r['error']}", file=sys.stderr)
    code = 3 if errors else 0
    if args.format == "json":
        return _dump({"command": "table", "model": args.model, "rows": rows}), code
    body = []
    for r in rows:
        body.append([r.get(c, math.nan) for c in TABLE_COLUMNS])
        if "error" in r:
            # the note follows its nan row as a one-cell row
            body.append([f"# error d={r['d']}: {r['error']}"])
    return _csv(TABLE_COLUMNS, body), code


def cmd_sk(args) -> tuple[str, int]:
    d, phi, sigma = args.d, args.phi, args.sigma
    if not 1 <= d <= MAX_CLOSED_FORM_D:
        raise ValueError(f"--d must be an integer in [1, {MAX_CLOSED_FORM_D}], got {d}")
    model = RadialModel(kind=args.model, sigma=sigma, Z=args.Z)
    density = PackingDensity(d, phi)
    if phi > 0.0 and log_amplitude(d, phi, sigma) > math.log(sys.float_info.max):
        raise ValueError(f"(2 sigma)^d phi overflows at --d {d}, --phi {phi}, --sigma {sigma}")
    k_max = default_k_max(d) if args.kmax is None else args.kmax
    # make_curve rejects a nonfinite --kmax
    if math.isfinite(k_max) and not math.isfinite(k_max * sigma):
        raise ValueError(f"curve end k_max * --sigma overflows: {k_max} * {sigma}")
    k, S = make_curve(model, density, k_max=k_max, n=args.samples)
    if args.format == "json":
        obj = {
            "command": "sk",
            "model": model.kind,
            "d": density.d,
            "phi": density.phi,
            "sigma": model.sigma,
            "Z": model.Z,
            "S0": float(S[0]),  # the grid starts at k = 0
            "points": np.column_stack((k, S)),
        }
        return _dump(obj), 0
    return _csv(("k", "S"), zip(k, S)), 0


def _flatten(prefix: str, report: dict):
    """(dotted name, value) pairs of a nested report; numbers as floats, NaN as None."""
    for key, val in report.items():
        name = f"{prefix}.{key}" if prefix else key
        if isinstance(val, dict):
            yield from _flatten(name, val)
        elif isinstance(val, (int, float)):
            # ints such as d print like every other value here: 2.000000e+02
            yield name, None if math.isnan(val) else float(val)
        else:
            yield name, val


def cmd_asymptotics(args) -> tuple[str, int]:
    # the numeric comparison runs the gap optimizer, whose range ends first
    gap_hi, asym_hi = DIMENSION_RANGE["gap"][1], DIMENSION_RANGE["asymptotics"][1]
    if not args.skip_numeric and gap_hi < args.d <= asym_hi:
        raise ValueError(
            f"--d {args.d} is past the gap optimizer's last dimension {gap_hi}; "
            f"add --skip-numeric to print the expansions alone"
        )
    report = asym.build_report(args.d, include_numeric=not args.skip_numeric)
    if args.format == "json":
        return _dump({"command": "asymptotics", "d": args.d, "report": report}), 0
    return _csv(("quantity", "value"), _flatten("", report)), 0


def _yamada_model(args) -> tuple[RadialModel, PackingDensity, float]:
    """The model, the density and the relative error of its phi (0 for a given --phi)."""
    d = args.d
    rec = terminal_record(args.model, d)
    sigma, Z, phi, phi_rel_err = rec.sigma_star, rec.Z_star, rec.phi_star, rec.phi_rel_err
    if args.phi is not None:
        if not 0.0 < args.phi < 1.0:
            raise ValueError(f"phi must lie in (0, 1), got {args.phi}")
        phi, phi_rel_err = args.phi, 0.0
    if args.sigma is not None:
        sigma = args.sigma
    if args.Z is not None:
        Z = args.Z
    return RadialModel(kind=args.model, sigma=sigma, Z=Z), PackingDensity(d, phi), phi_rel_err


def cmd_yamada(args) -> tuple[str, int]:
    model, density, phi_rel_err = _yamada_model(args)
    check = yamada_check(model, density, args.Rmax, n_grid=args.grid, phi_rel_err=phi_rel_err)
    if args.format == "json":
        obj = {
            "command": "yamada",
            "model": model.kind,
            "d": density.d,
            "phi": density.phi,
            "sigma": model.sigma,
            "Z": model.Z,
            "R0": check.R0,
            "violations": check.violations,
            "R": check.R,
            "sigma2": check.sigma2,
            "yamada_bound": check.yamada_bound,
        }
        return _dump(obj), 0
    vio = set(check.violations)
    rows = (
        (r, s, b, float(r) in vio) for r, s, b in zip(check.R, check.sigma2, check.yamada_bound)
    )
    return _csv(("R", "sigma2", "yamada_bound", "violated"), rows), 0


def cmd_matern(args) -> tuple[str, int]:
    config = mt.MaternConfig(
        d=args.d, L=args.L, T=args.T, kappa=args.kappa, seed=args.seed, bins=args.bins
    )
    result = mt.simulate(config)
    if args.centers_out:
        header = [f"x{i + 1}" for i in range(config.d)]
        # centers keep 10 significant digits, not the 7 of every other number
        fmt = ",".join(["{:.9e}"] * config.d)
        rows = ([fmt.format(*row)] for row in result.accepted_centers.tolist())
        _write(args.centers_out, _csv(header, rows))
    n_accepted = len(result.accepted_centers)
    if args.format == "json":
        obj = {
            "command": "matern",
            "d": config.d,
            "L": config.L,
            "T": config.T,
            "kappa": config.kappa,
            "seed": config.seed,
            "bins": config.bins,
            "phi_hat": result.phi_hat,
            "phi_analytic": result.phi_analytic,
            "ghost_count": result.ghost_count,
            "n_accepted": n_accepted,
            "r": result.bin_centers,
            "g2_hat": result.g2_hat,
            "stderr": result.g2_stderr,
            "g2_analytic": result.g2_analytic,
        }
        return _dump(obj), 0
    meta = (
        ("d", config.d),
        ("kappa", config.kappa),
        ("seed", config.seed),
        ("phi_hat", result.phi_hat),
        ("phi_analytic", result.phi_analytic),
        ("ghost_count", result.ghost_count),
        ("n_accepted", n_accepted),
    )
    hist = zip(result.bin_centers, result.g2_hat, result.g2_stderr, result.g2_analytic)
    return _csv(("r", "g2_hat", "stderr", "g2_analytic"), hist, meta), 0


def cmd_classical(args) -> tuple[str, int]:
    # --terminal adds a gap optimum per row, so the gap range applies up front
    dims = _parse_dims(args.dims, "gap" if args.terminal else "classical")
    rows = []
    for d in dims:
        b = classical_bounds(d)
        phi_star = terminal_gap(d).phi_star if args.terminal else None
        rows.append(
            {
                "d": d,
                "minkowski": b.minkowski,
                "ball": b.ball,
                "greedy": b.greedy,
                "blichfeldt": b.blichfeldt,
                "rogers": b.rogers,
                "kl": b.kabatiansky_levenshtein,
                "densest_known": b.densest_known,
                "phi_star": phi_star,
            }
        )
    if args.format == "json":
        return _dump({"command": "classical", "rows": rows}), 0
    return _csv(CLASSICAL_COLUMNS, ([r[c] for c in CLASSICAL_COLUMNS] for r in rows)), 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="write output to a file instead of stdout")

    parser = argparse.ArgumentParser(prog="packbound", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("table", parents=[common], help="terminal-density table per dimension")
    p.add_argument("--dims", required=True, help='comma list or span, e.g. "3,4,5" or "3..8"')
    p.add_argument("--model", choices=("step", "delta", "gap"), default="gap")
    p.add_argument(
        "--threads", type=int, default=1,
        help="worker processes across dimensions (at most one per dimension and per CPU)",
    )
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("sk", parents=[common], help="structure-factor curve for one model")
    p.add_argument("--model", choices=("step", "delta", "gap"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--Z", type=float, default=0.0)
    p.add_argument("--kmax", type=float, default=None)
    p.add_argument("--samples", type=int, default=512)
    p.set_defaults(handler=cmd_sk)

    p = sub.add_parser("asymptotics", parents=[common], help="high-dimension expansion report")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--skip-numeric", action="store_true", help="skip the optimizer comparison")
    p.set_defaults(handler=cmd_asymptotics)

    p = sub.add_parser("yamada", parents=[common], help="number-variance realizability check")
    p.add_argument("--model", choices=("step", "delta", "gap"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--phi", type=float, default=None, help="defaults to the terminal density")
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--Z", type=float, default=None)
    p.add_argument("--Rmax", type=float, default=10.0)
    p.add_argument("--grid", type=int, default=500)
    p.set_defaults(handler=cmd_yamada)

    p = sub.add_parser("matern", parents=[common], help="sequential-adsorption simulation")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--kappa", type=int, choices=(0, 1), default=1)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--centers-out", default=None, help="also dump accepted centers as CSV")
    p.set_defaults(handler=cmd_matern)

    p = sub.add_parser("classical", parents=[common], help="classical bound table")
    p.add_argument("--dims", required=True)
    p.add_argument("--terminal", action="store_true", help="include the gap terminal density")
    p.set_defaults(handler=cmd_classical)

    return parser


def _write(path: str, text: str) -> None:
    """Write text to path; a path that cannot be written is bad input naming it."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, code = args.handler(args)
        if args.out:
            _write(args.out, text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if not args.out:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
