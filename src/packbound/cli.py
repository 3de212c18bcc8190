"""Command-line front end: tables, curves, reports as CSV or JSON.

Output contract: floats are printed as 7-significant-digit scientific notation
in both formats (JSON numbers are rounded before serialization), so identical
invocations produce byte-identical streams. Exit codes: 0 success, 2 bad
usage or parameter validation, 3 numerical failure during computation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

from . import asymptotics as asym
from . import matern as mt
from .models import PackingDensity, RadialModel, curve_to_csv, make_curve
from .optimizer import classical_bounds, terminal_gap, terminal_record
from .variance import variance_to_csv, yamada_check

TABLE_HEADER = "d,sigma_star,Z_star,phi_star,ratio,k_min"
CLASSICAL_HEADER = "d,minkowski,ball,greedy,blichfeldt,rogers,kl,densest_known,phi_star"


def _fmt(v: float) -> str:
    return f"{v:.6e}"


def _jnum(v):
    """Round for JSON emission; NaN becomes null so the stream stays valid."""
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return None
    if isinstance(v, bool) or isinstance(v, int):
        return v
    return float(f"{v:.6e}")


def _jwalk(obj):
    if isinstance(obj, dict):
        return {k: _jwalk(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jwalk(v) for v in obj]
    if isinstance(obj, float):
        return _jnum(obj)
    return obj


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _parse_dims(text: str) -> list[int]:
    dims = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo, hi = token.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError(f"empty dimension span {token!r}")
            dims.extend(range(lo, hi + 1))
        elif token:
            dims.append(int(token))
    if not dims:
        raise ValueError("no dimensions given")
    return dims


def _record_row(kind: str, d: int) -> dict:
    rec = terminal_record(kind, d)
    return {
        "d": d,
        "sigma_star": rec.sigma_star,
        "Z_star": rec.Z_star,
        "phi_star": rec.phi_star,
        "ratio": rec.ratio,
        "k_min": rec.k_min,
    }


def _row_or_error(fetch, d: int) -> dict:
    """fetch()'s row; a bad argument (ValueError) aborts, other failures become error rows."""
    try:
        return fetch()
    except ValueError:
        raise
    except Exception as exc:
        return {"d": d, "error": str(exc)}


def cmd_table(args) -> tuple[str, int]:
    dims = _parse_dims(args.dims)
    floor = 2 if args.model == "gap" else 1
    for d in dims:
        if d < floor:
            raise ValueError(f"d={d} is below the supported range for the {args.model} model")

    if args.threads > 1 and len(dims) > 1:
        with ProcessPoolExecutor(max_workers=args.threads) as pool:
            futures = [pool.submit(_record_row, args.model, d) for d in dims]
            try:
                rows = [_row_or_error(fut.result, d) for fut, d in zip(futures, dims)]
            except ValueError:
                # abort like the sequential path instead of finishing queued dims
                pool.shutdown(cancel_futures=True)
                raise
    else:
        rows = [_row_or_error(partial(_record_row, args.model, d), d) for d in dims]

    failed = any("error" in r for r in rows)
    if args.format == "json":
        text = _dump({"command": "table", "model": args.model, "rows": _jwalk(rows)})
    else:
        lines = [TABLE_HEADER]
        for r in rows:
            if "error" in r:
                lines.append(f"{r['d']},nan,nan,nan,nan,nan")
                lines.append(f"# error d={r['d']}: {r['error']}")
            else:
                lines.append(
                    f"{r['d']},{_fmt(r['sigma_star'])},{_fmt(r['Z_star'])},"
                    f"{_fmt(r['phi_star'])},{_fmt(r['ratio'])},{_fmt(r['k_min'])}"
                )
        text = "\n".join(lines) + "\n"
    return text, 3 if failed else 0


def cmd_sk(args) -> tuple[str, int]:
    model = RadialModel(kind=args.model, sigma=args.sigma, Z=args.Z)
    density = PackingDensity(args.d, args.phi)
    curve = make_curve(model, density, k_max=args.kmax, n=args.samples)
    if args.format == "json":
        obj = {
            "command": "sk",
            "model": model.kind,
            "d": density.d,
            "phi": _jnum(density.phi),
            "sigma": _jnum(model.sigma),
            "Z": _jnum(model.Z),
            "S0": _jnum(curve.S0),
            "points": [[_jnum(float(k)), _jnum(float(s))] for k, s in zip(curve.k, curve.S)],
        }
        return _dump(obj), 0
    return curve_to_csv(curve), 0


def cmd_asymptotics(args) -> tuple[str, int]:
    report = asym.build_report(args.d, include_numeric=not args.skip_numeric)
    if args.format == "json":
        return _dump({"command": "asymptotics", "d": args.d, "report": _jwalk(report)}), 0
    lines = ["quantity,value"]

    def walk(prefix, obj):
        for key, val in obj.items():
            name = f"{prefix}.{key}" if prefix else key
            if isinstance(val, dict):
                walk(name, val)
            elif val is None or (isinstance(val, float) and math.isnan(val)):
                lines.append(f"{name},")
            elif isinstance(val, (int, float)):
                lines.append(f"{name},{_fmt(val)}")
            else:
                lines.append(f"{name},{val}")

    walk("", report)
    return "\n".join(lines) + "\n", 0


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
            "phi": _jnum(density.phi),
            "sigma": _jnum(model.sigma),
            "Z": _jnum(model.Z),
            "R0": _jnum(check.R0),
            "violations": [_jnum(v) for v in check.violations],
            "R": [_jnum(float(v)) for v in check.R],
            "sigma2": [_jnum(float(v)) for v in check.sigma2],
            "yamada_bound": [_jnum(float(v)) for v in check.yamada_bound],
        }
        return _dump(obj), 0
    return variance_to_csv(check), 0


def cmd_matern(args) -> tuple[str, int]:
    config = mt.MaternConfig(
        d=args.d, L=args.L, T=args.T, kappa=args.kappa, seed=args.seed, bins=args.bins
    )
    result = mt.simulate(config)
    if args.centers_out:
        with open(args.centers_out, "w") as fh:
            fh.write(mt.centers_to_csv(result))
    if args.format == "json":
        obj = {
            "command": "matern",
            "d": config.d,
            "L": _jnum(config.L),
            "T": _jnum(config.T),
            "kappa": config.kappa,
            "seed": config.seed,
            "bins": config.bins,
            "phi_hat": _jnum(result.phi_hat),
            "phi_analytic": _jnum(result.phi_analytic),
            "ghost_count": result.ghost_count,
            "n_accepted": len(result.accepted_centers),
            "r": [_jnum(float(v)) for v in result.bin_centers],
            "g2_hat": [_jnum(float(v)) for v in result.g2_hat],
            "stderr": [_jnum(float(v)) for v in result.g2_stderr],
            "g2_analytic": [_jnum(float(v)) for v in result.g2_analytic],
        }
        return _dump(obj), 0
    meta = [
        f"# d,{config.d}",
        f"# kappa,{config.kappa}",
        f"# seed,{config.seed}",
        f"# phi_hat,{_fmt(result.phi_hat)}",
        f"# phi_analytic,{_fmt(result.phi_analytic)}",
        f"# ghost_count,{result.ghost_count}",
        f"# n_accepted,{len(result.accepted_centers)}",
    ]
    return "\n".join(meta) + "\n" + mt.hist_to_csv(result), 0


def cmd_classical(args) -> tuple[str, int]:
    dims = _parse_dims(args.dims)
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
        return _dump({"command": "classical", "rows": _jwalk(rows)}), 0
    lines = [CLASSICAL_HEADER]
    for r in rows:
        cells = [str(r["d"])]
        for key in ("minkowski", "ball", "greedy", "blichfeldt", "rogers", "kl"):
            cells.append(_fmt(r[key]))
        cells.append("" if r["densest_known"] is None else _fmt(r["densest_known"]))
        cells.append("" if r["phi_star"] is None else _fmt(r["phi_star"]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n", 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="write output to a file instead of stdout")

    parser = argparse.ArgumentParser(prog="packbound", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("table", parents=[common], help="terminal-density table per dimension")
    p.add_argument("--dims", required=True, help='comma list or span, e.g. "3,4,5" or "3..8"')
    p.add_argument("--model", choices=("step", "delta", "gap"), default="gap")
    p.add_argument("--threads", type=int, default=1, help="worker processes across dimensions")
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
