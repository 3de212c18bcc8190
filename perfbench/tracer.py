"""Run one packbound CLI command with spans recorded around each layer.

    python3 perfbench/tracer.py TRACE_FILE -- <packbound arguments>

The program is not edited. After importing it, this script replaces each
function in TRACED with a wrapper that records a span (name, start, end,
parent span) in memory, in its defining module and in every other packbound
module that imported it by name (``optimizer.bessel_lambda``,
``models.bessel_lambda``, ``variance.alpha2``, ``cli.terminal_gap``, ...), so
internal calls are caught too. ``matern.beta2`` needs no wrapper of its own:
it looks ``alpha2`` up in ``geometry`` at call time and so reaches the
wrapped one. The CLI's stdout is left untouched. The spans, the import
times and how far ``simulate`` raised the process's peak resident set are
written to TRACE_FILE as JSON when the command ends. (tracemalloc would
give the allocation peak itself, but it slows the standard-RSA loop about
eightfold.)
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from functools import wraps  # noqa: E402

import numpy as np  # noqa: E402
import scipy.integrate  # noqa: E402,F401
import scipy.optimize  # noqa: E402,F401
import scipy.spatial  # noqa: E402,F401
import scipy.special  # noqa: E402,F401

T_DEPS = time.perf_counter()

import packbound.cli  # noqa: E402

T_PACKBOUND = time.perf_counter()


def _arg_points(index):
    """Element count of positional argument ``index`` (the evaluation points)."""
    return lambda args, out: int(np.size(args[index]))


#: (module, function, points counter or None) for every traced function
TRACED = (
    ("cli", "main", None),
    ("optimizer", "terminal_gap", None),
    ("optimizer", "gap_feasible_t", None),
    ("optimizer", "find_minima", None),
    ("specialfn", "bessel_lambda", _arg_points(1)),
    ("models", "structure_factor_gap", None),
    ("geometry", "alpha2", _arg_points(1)),
    ("variance", "number_variance", None),
    ("variance", "yamada_check", None),
    ("matern", "arrivals", lambda args, out: len(out[1])),
    ("matern", "simulate", None),
)
RSS_TRACED = {"matern.simulate"}


class SpanRecorder:
    """Spans kept as parallel lists; a span's parent is the innermost open span."""

    def __init__(self):
        self.names: list[str] = []
        self.kind: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.points: list[int] = []
        self.rss_rise: dict[int, int] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        kind_id = len(self.names)
        self.names.append(name)
        track_rss = name in RSS_TRACED
        kind, parent, start, end, points, open_ = (
            self.kind, self.parent, self.start, self.end, self.points, self._open)
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            kind.append(kind_id)
            parent.append(open_[-1] if open_ else -1)
            end.append(0.0)
            points.append(0)
            open_.append(i)
            if track_rss:
                rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()
                if track_rss:
                    self.rss_rise[i] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
            if count is not None:
                points[i] = count(args, out)
            return out

        return traced

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "kind": self.kind,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "points": self.points,
            "rss_rise_kb": {str(k): v for k, v in self.rss_rise.items()},
        }


def install(recorder: SpanRecorder) -> None:
    """Replace every traced function wherever a packbound module holds it."""
    modules = [m for n, m in sys.modules.items() if n == "packbound" or n.startswith("packbound.")]
    for mod_name, fn_name, count in TRACED:
        original = getattr(importlib.import_module(f"packbound.{mod_name}"), fn_name)
        wrapper = recorder.wrap(f"{mod_name}.{fn_name}", original, count)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE_FILE -- <packbound arguments>", file=sys.stderr)
        return 2
    trace_file, cli_args = argv[0], argv[2:]
    recorder = SpanRecorder()
    install(recorder)
    code = packbound.cli.main(cli_args)
    sys.stdout.flush()
    trace = recorder.to_json()
    trace["setup"] = {
        "deps_import_s": T_DEPS - T_START,
        "packbound_import_s": T_PACKBOUND - T_DEPS,
    }
    trace["argv"] = cli_args
    with open(trace_file, "w") as fh:
        json.dump(trace, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
