"""End-to-end and per-layer benchmark of the packbound CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a packbound checkout. Each workload is a fixed list of
CLI invocations (operations); a run repeats whole rounds of that list until
S seconds have passed, one process at a time, each from a fresh interpreter.
Every output is checked against the independent oracles in ``oracles.py``
and must be byte-identical from round to round. The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are end to end: ``wall_s`` and ``cpu_s`` (the
median over rounds of the round's total), ``peak_rss_mb`` (largest resident
set of any process started) and ``setup_s`` (median of three interpreter
starts through ``import packbound.cli``). With ``--trace 1`` each operation
runs under ``tracer.py`` and the metrics are per layer (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent


WORKLOADS = ("gap_low_d", "gap_high_d", "yamada_variance", "matern_sim")
GAP_LOW_DIMS = (3, 5, 8)
GAP_HIGH_DIMS = (100, 200)
YAMADA_CASES = (("delta", 1), ("step", 3), ("delta", 24))
#: rows of the d=24 variance checked by mpmath in each run
YAMADA_SAMPLE = 3
#: (d, L, T, kappa): standard RSA near saturation, then two ghost-RSA runs
MATERN_CASES = ((1, 500.0, 100.0, 0), (2, 500.0, 4.0, 1), (3, 40.0, 2.0, 1))

SETUP_REPEATS = 3
#: a run stops starting rounds and kills a hung operation past this point
RUN_DEADLINE_S = 170.0
OUT_DIR = Path(".bench_out")

PER_LAYER = (
    "specialfn.bessel_lambda.calls",
    "specialfn.bessel_lambda.points",
    "specialfn.bessel_lambda.s",
    "optimizer.gap_feasible_t.calls",
    "optimizer.gap_feasible_t.s",
    "optimizer.gap_feasible_t.self_s",
    "optimizer.terminal_gap.s",
    "optimizer.terminal_gap.self_s",
    "optimizer.find_minima.calls",
    "optimizer.find_minima.s",
    "models.structure_factor_gap.calls",
    "models.structure_factor_gap.s",
    "geometry.alpha2.calls",
    "geometry.alpha2.points",
    "geometry.alpha2.s",
    "variance.number_variance.calls",
    "variance.number_variance.s",
    "variance.number_variance.self_s",
    "variance.yamada_check.s",
    "matern.arrivals.s",
    "matern.arrivals.points",
    "matern.simulate.s",
    "matern.simulate.self_s",
    "matern.simulate.peak_rss_rise_mb",
    "cli.main.s",
    "cli.main.self_s",
    "setup.deps_import_s",
    "setup.packbound_import_s",
    "trace.wall_s",
)


def summarize_trace(trace: dict) -> dict[str, float]:
    """Per-function calls, total time, self time and points from one trace.

    Self time is a span's duration minus the durations of its direct child
    spans, which never overlap in this single-threaded program.
    """
    import numpy as np

    names = trace["names"]
    kind = np.asarray(trace["kind"], dtype=np.int64)
    parent = np.asarray(trace["parent"], dtype=np.int64)
    dur = np.asarray(trace["end"]) - np.asarray(trace["start"])
    points = np.asarray(trace["points"], dtype=np.int64)
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    out = {}
    for k, name in enumerate(names):
        sel = kind == k
        out[f"{name}.calls"] = int(sel.sum())
        out[f"{name}.s"] = float(dur[sel].sum())
        out[f"{name}.self_s"] = float((dur[sel] - child[sel]).sum())
        out[f"{name}.points"] = int(points[sel].sum())
    for i, rise in trace["rss_rise_kb"].items():
        key = f"{names[kind[int(i)]]}.peak_rss_rise_mb"
        out[key] = max(out.get(key, 0.0), rise / 1024.0)
    out["setup.deps_import_s"] = trace["setup"]["deps_import_s"]
    out["setup.packbound_import_s"] = trace["setup"]["packbound_import_s"]
    return out


def unit_of(metric: str) -> str:
    if metric.endswith((".calls", ".points")):
        return "count"
    if metric.endswith("_mb"):
        return "MB"
    return "s"


@dataclass
class Op:
    """One CLI invocation and the check its output must pass."""

    label: str
    argv: list[str]
    check: str  # name of the check in oracles.py
    check_args: tuple
    centers: bool = False
    outputs: list[bytes] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    failed: int = 0


def build_ops(workload: str, seed: int) -> list[Op]:
    """The workload's operations; the seed sets their order and random inputs."""
    rng = random.Random(seed)
    if workload in ("gap_low_d", "gap_high_d"):
        dims = list(GAP_LOW_DIMS if workload == "gap_low_d" else GAP_HIGH_DIMS)
        rng.shuffle(dims)
        text = ",".join(map(str, dims))
        return [Op(f"table gap {text}", ["table", "--model", "gap", "--dims", text],
                   "check_gap_table", (dims,))]
    if workload == "yamada_variance":
        sample_seed = rng.randrange(2**32)
        ops = [
            Op(f"yamada {model} d={d}", ["yamada", "--model", model, "--d", str(d)],
               "check_yamada", (model, d, YAMADA_SAMPLE, sample_seed))
            for model, d in YAMADA_CASES
        ]
    elif workload == "matern_sim":
        ops = []
        for d, L, T, kappa in MATERN_CASES:
            s = rng.randrange(2**32)
            ops.append(Op(
                f"matern d={d} kappa={kappa} seed={s}",
                ["matern", "--d", str(d), "--L", repr(L), "--T", repr(T),
                 "--kappa", str(kappa), "--seed", str(s)],
                "check_matern", (d, L, T, kappa, s),
                centers=True,
            ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def children_usage() -> tuple[float, float]:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def run_process(cmd: list[str], env: dict, stdout_path: Path, deadline: float):
    """Run one process to completion; return (exit code or None, wall, cpu)."""
    cpu0, _ = children_usage()
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.PIPE, env=env)
        try:
            _, err = proc.communicate(timeout=max(deadline - t0, 1.0))
            code = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
            code = None
        wall = time.perf_counter() - t0
    cpu1, _ = children_usage()
    if code != 0:
        sys.stderr.write(f"exit {code}: {' '.join(cmd[-8:])}\n{err.decode(errors='replace')[-2000:]}")
    return code, wall, cpu1 - cpu0


def probe_import(root: Path, env: dict, out_path: Path, deadline: float) -> float:
    """Time one interpreter start through `import packbound.cli` and make
    sure the import resolved to this checkout's sources."""
    src = root / "src" / "packbound" / "cli.py"
    cmd = [sys.executable, "-c", "import packbound.cli as c; print(c.__file__)"]
    code, wall, _ = run_process(cmd, env, out_path, deadline)
    found = out_path.read_text().strip()
    if code != 0 or Path(found).resolve() != src.resolve():
        raise SystemExit(f"error: packbound.cli resolves to {found!r}, expected {src}")
    return wall


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.perf_counter() + RUN_DEADLINE_S
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    if not (root / "src" / "packbound" / "cli.py").is_file():
        raise SystemExit("error: src/packbound/cli.py not found; run from the root of a packbound checkout")
    out_dir = root / OUT_DIR / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    setup = [probe_import(root, env, out_dir / "setup.out", deadline)
             for _ in range(1 if args.trace else SETUP_REPEATS)]

    ops = build_ops(args.workload, args.seed)
    metrics: dict[str, float] = {}

    rounds_wall, rounds_cpu, rounds_traces = [], [], []
    t_measure = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        round_wall = round_cpu = 0.0
        traces = []
        for i, op in enumerate(ops):
            stdout_path = out_dir / f"op{i}.out"
            centers_path = out_dir / f"op{i}.centers.csv"
            trace_path = out_dir / f"op{i}.r{len(rounds_wall)}.trace.json"
            argv = op.argv + (["--centers-out", str(centers_path)] if op.centers else [])
            if args.trace:
                cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_path), "--", *argv]
            else:
                cmd = [sys.executable, "-m", "packbound.cli", *argv]
            code, wall, cpu = run_process(cmd, env, stdout_path, deadline)
            round_wall += wall
            round_cpu += cpu
            if code != 0:
                op.failed += 1
                continue
            data = stdout_path.read_bytes()
            if op.centers:
                data += b"\0" + centers_path.read_bytes()
            op.outputs.append(data)
            op.wall.append(wall)
            if args.trace:
                traces.append(trace_path)
        rounds_wall.append(round_wall)
        rounds_cpu.append(round_cpu)
        rounds_traces.append(traces)
        now = time.perf_counter()
        if now - t_measure >= args.seconds or now + (now - t_round) > deadline:
            break

    # imported only now: a process forked from a large parent reports the
    # parent's resident set as its own peak
    sys.path.insert(0, str(HERE))
    import oracles

    errors = []
    for op in ops:
        if not op.outputs:
            continue
        if any(o != op.outputs[0] for o in op.outputs[1:]):
            errors.append(f"{op.label}: output differs between rounds")
        stdout, _, centers = op.outputs[0].partition(b"\0")
        extra = (centers.decode(),) if op.centers else ()
        errors += getattr(oracles, op.check)(stdout.decode(), *extra, *op.check_args)
        digest = hashlib.sha256(op.outputs[0]).hexdigest()[:16]
        print(f"op {op.label}: rounds={len(op.outputs)} median_wall_s={statistics.median(op.wall):.4f} "
              f"sha256={digest}")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    if args.trace:
        # summarized only now, for the same reason as the late import above
        rounds_layer, setup_layer = [], {}
        for traces in rounds_traces:
            layer: dict[str, float] = {}  # per-layer totals of one round
            for path in traces:
                for key, val in summarize_trace(json.loads(path.read_text())).items():
                    if key.startswith("setup."):
                        setup_layer.setdefault(key, []).append(val)
                    else:
                        layer[key] = layer.get(key, 0) + val
            rounds_layer.append(layer)
        for name in PER_LAYER:
            if name == "trace.wall_s":
                val = statistics.median(rounds_wall)
            elif name.startswith("setup."):
                val = statistics.median(setup_layer.get(name, [0.0]))
            else:
                val = statistics.median(r.get(name, 0) for r in rounds_layer)
            metrics[name] = {"value": val, "unit": unit_of(name)}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(rounds_wall), "unit": "s"},
            "cpu_s": {"value": statistics.median(rounds_cpu), "unit": "s"},
            "peak_rss_mb": {"value": children_usage()[1], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    result = {
        "correct": not errors,
        "attempted": len(ops) * len(rounds_wall),
        "failed": sum(op.failed for op in ops),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
