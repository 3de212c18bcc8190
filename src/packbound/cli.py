"""Command-line front end: tables, curves, reports as CSV or JSON.

Output contract: floats are printed as 7-significant-digit scientific notation
in both formats (JSON numbers are rounded before serialization), so identical
invocations produce byte-identical streams. This module is the only place
that turns results into text: the library returns numbers, and every CSV and
JSON byte comes from ``_csv`` and ``_dump`` below. Exit codes: 0 success, 2
bad usage or parameter validation, 3 numerical failure during computation.
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
from .models import PackingDensity, RadialModel, make_curve
from .optimizer import check_dimension, classical_bounds, terminal_gap, terminal_record
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


def _record_row(kind: str, d: int) -> dict:
    rec = terminal_record(kind, d)
    return {c: getattr(rec, c) for c in TABLE_COLUMNS}


def _row_or_error(fetch, d: int) -> dict:
    """fetch()'s row; a bad argument (ValueError) aborts, other failures become error rows."""
    try:
        return fetch()
    except ValueError:
        raise
    except Exception as exc:
        return {"d": d, "error": str(exc)}


def _worker_count(threads: int, n_dims: int) -> int:
    """Worker processes for --threads: never more than the dims or the CPUs."""
    if threads < 1:
        raise ValueError(f"--threads must be at least 1, got {threads}")
    return min(threads, n_dims, os.cpu_count() or 1)


def cmd_table(args) -> tuple[str, int]:
    dims = _parse_dims(args.dims, args.model)
    workers = _worker_count(args.threads, len(dims))

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_record_row, args.model, d) for d in dims]
            try:
                rows = [_row_or_error(fut.result, d) for fut, d in zip(futures, dims)]
            except ValueError:
                # abort like the sequential path instead of finishing queued dims
                pool.shutdown(cancel_futures=True)
                raise
    else:
        rows = [_row_or_error(partial(_record_row, args.model, d), d) for d in dims]

    code = 3 if any("error" in r for r in rows) else 0
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
    model = RadialModel(kind=args.model, sigma=args.sigma, Z=args.Z)
    density = PackingDensity(args.d, args.phi)
    curve = make_curve(model, density, k_max=args.kmax, n=args.samples)
    if args.format == "json":
        obj = {
            "command": "sk",
            "model": model.kind,
            "d": density.d,
            "phi": density.phi,
            "sigma": model.sigma,
            "Z": model.Z,
            "S0": curve.S0,
            "points": np.column_stack((curve.k, curve.S)),
        }
        return _dump(obj), 0
    return _csv(("k", "S"), zip(curve.k, curve.S)), 0


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
    report = asym.build_report(args.d, include_numeric=not args.skip_numeric)
    if args.format == "json":
        return _dump({"command": "asymptotics", "d": args.d, "report": report}), 0
    return _csv(("quantity", "value"), _flatten("", report)), 0


def _yamada_model(args) -> tuple[RadialModel, PackingDensity]:
    d = args.d
    rec = terminal_record(args.model, d)
    sigma, Z, phi = rec.sigma_star, rec.Z_star, rec.phi_star
    if args.phi is not None:
        if not 0.0 < args.phi < 1.0:
            raise ValueError(f"phi must lie in (0, 1), got {args.phi}")
        phi = args.phi
    if args.sigma is not None:
        sigma = args.sigma
    if args.Z is not None:
        Z = args.Z
    return RadialModel(kind=args.model, sigma=sigma, Z=Z), PackingDensity(d, phi)


def cmd_yamada(args) -> tuple[str, int]:
    model, density = _yamada_model(args)
    check = yamada_check(model, density, args.Rmax, n_grid=args.grid)
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
        with open(args.centers_out, "w") as fh:
            fh.write(_csv(header, rows))
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


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, code = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OverflowError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
