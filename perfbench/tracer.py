"""Span tracer built only from the benchmark's own files.

`Tracer.install` wraps the program's public functions named in `WRAPPED`
on every module binding of each (modular imports coeff_series by name,
oscsum imports main_term, cli imports parse_poly), plus `cli.main`, whose
span is named after the subcommand.  Each span records its name, the op it
belongs to, its parent span, start and end; spans stay in memory and are
written out once at the end.  A span's self time is its duration minus the
time its child spans cover.

Inner-loop helpers (e_of, cutoff_f, jacobi_symbol, merge_terms, ...) are
not wrapped: tracing each of their calls would cost more than they do, so
their time stays in the caller's self time.  Nothing inside coeff_series
is separated either: its int64 and big-int convolution paths and the
conversion of integer totals to Fractions need spans inside the program.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from collections import defaultdict

import numpy as np

from workloads import COMMANDS

LAYERS = ["poly", "lattice", "oscsum", "modular", "exppairs", "cli"]

WRAPPED = {
    "poly": ["parse_poly", "sphere_average", "Polynomial3.evaluate_arrays"],
    "lattice": ["coeff_series", "ball_sum", "ball_sum_report", "short_sum",
                "short_sum_report", "long_sum_physical", "long_sum_report", "main_term"],
    "oscsum": ["gP_fourier_terms", "freq_long_sum", "exp_sum_lattice", "bound_check_VNQR"],
    "modular": ["theta_context", "theta_eval", "transformation_check", "sample_checks",
                "gauss_sum_direct", "gauss_sum_closed", "quadratic_sum_S"],
    "exppairs": ["parse_pair", "pair_apply_word", "parse_terms", "balance",
                 "exponent_table", "table_text", "table_csv"],
}

UNTRACED_NOTE = (
    "coeff_series is one span: its int64 and big-int convolution paths and the "
    "conversion of integer totals to Fractions are not separated; that needs "
    "spans inside the program"
)

# Bytes per cell of the dense frequency grid freq_long_sum builds: three
# int64 meshgrids, the int64 squared norm and the boolean mask.
GRID_BYTES_PER_CELL = 3 * 8 + 8 + 1


def ball_point_count(n: int) -> int:
    """Number of lattice points with |x|^2 <= n, computed from n."""
    k = math.isqrt(n)
    ax = np.arange(-k, k + 1)
    count = 0
    for x in range(-k, k + 1):
        rem = n - x * x - ax * ax
        rem = rem[rem >= 0]
        count += int((2 * np.floor(np.sqrt(rem)) + 1).sum())
    return count


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, name, op, start, end)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._next_id = 0
        self._restore: list[tuple] = []
        self._seen_series: dict = {}
        self._ball_points: dict[int, int] = {}

    # -- spans --------------------------------------------------------------

    def set_op(self, op_id) -> None:
        self.op = op_id
        self._seen_series = {}

    def enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, count: bool = True) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.self_s[name] += dur - child
        if count:
            self.calls[name] += 1
        self.spans.append((span_id, parent[0] if parent else None, name, self.op, start, end))

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer.enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.exit(frame, count=False)
                        return
                    except BaseException:
                        tracer.exit(frame, count=False)
                        raise
                    tracer.exit(frame, count=False)
                    yield item
        else:
            sig = inspect.signature(fn) if hook is not None else None

            def wrapper(*args, **kwargs):
                frame = tracer.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.exit(frame)
                if hook is not None:
                    # counting is tracer overhead: keep it out of the caller's self time
                    t0 = time.perf_counter()
                    hook(sig.bind(*args, **kwargs), result)
                    if tracer._stack:
                        tracer._stack[-1][3] += time.perf_counter() - t0
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _main_wrapper(self, main):
        tracer = self

        def wrapper(argv):
            frame = tracer.enter("cli." + argv[0])
            try:
                return main(argv)
            finally:
                tracer.exit(frame)
        return wrapper

    def install(self, package) -> None:
        """Wrap every function in WRAPPED on every module binding of it."""
        modules = [package] + [getattr(package, m) for m in ("poly", "lattice", "oscsum",
                                                             "modular", "exppairs", "util", "cli")]
        hooks = self._hooks()
        for layer, names in WRAPPED.items():
            mod = getattr(package, layer)
            for qual in names:
                name = f"{layer}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(mod, cls_name)
                    fn = cls.__dict__[attr]
                    self._swap(cls, attr, self._wrap(name, fn, hooks.get(name)))
                    continue
                fn = getattr(mod, qual)
                wrapper = self._wrap(name, fn, hooks.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._swap(m, attr, wrapper)
        self._swap(package.cli, "main", self._main_wrapper(package.cli.main))

    def _swap(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- counters -------------------------------------------------------------

    def _hooks(self) -> dict:
        c = self.counters

        def coeff_series(bound, result):
            p, n = bound.arguments["p"], bound.arguments["n_max"]
            c["lattice.coeff_series.shells"] += n
            if self._seen_series.get(p, 0) >= n:
                c["lattice.coeff_series.repeats"] += 1
            self._seen_series[p] = max(self._seen_series.get(p, 0), n)

        def fourier_terms(bound, result):
            c["oscsum.gP_fourier_terms.terms"] += len(result.terms)

        def freq_long_sum(bound, result):
            cells = (2 * math.isqrt(bound.arguments["n_trunc"]) + 1) ** 3
            c["oscsum.freq_long_sum.grid_points"] += cells
            c["oscsum.freq_long_sum.grid_bytes"] += cells * GRID_BYTES_PER_CELL

        def bound_check(bound, result):
            n_top = max(bound.arguments["n_list"])
            if n_top not in self._ball_points:
                self._ball_points[n_top] = ball_point_count(n_top)
            c["oscsum.bound_check_VNQR.points"] += self._ball_points[n_top]

        def evaluate_arrays(bound, result):
            c["poly.Polynomial3.evaluate_arrays.points"] += np.size(bound.arguments["x"])

        def theta_context(bound, result):
            bound.apply_defaults()
            c["modular.theta_context.n_max"] += bound.arguments["n_max"]

        def transformation_check(bound, result):
            c["modular.transformation_check.passed"] += bool(result.passed)

        def gauss_direct(bound, result):
            c["modular.gauss_sum_direct.terms"] += abs(bound.arguments["c"])

        return {
            "lattice.coeff_series": coeff_series,
            "oscsum.gP_fourier_terms": fourier_terms,
            "oscsum.freq_long_sum": freq_long_sum,
            "oscsum.bound_check_VNQR": bound_check,
            "poly.Polynomial3.evaluate_arrays": evaluate_arrays,
            "modular.theta_context": theta_context,
            "modular.transformation_check": transformation_check,
            "modular.gauss_sum_direct": gauss_direct,
        }

    # -- output ---------------------------------------------------------------

    def metrics(self, passes: int, traced_wall_s: float) -> dict[str, float]:
        """Per-pass calls, self time and counts, and each layer's share of wall time.

        `traced_wall_s` is the mean wall time of one traced pass.
        """
        out: dict[str, float] = {}
        for layer, names in WRAPPED.items():
            for qual in names:
                name = f"{layer}.{qual}"
                out[f"{name}.calls"] = self.calls[name] / passes
                out[f"{name}.self_s"] = self.self_s[name] / passes
        for cmd in COMMANDS:
            out[f"cli.{cmd}.self_s"] = self.self_s["cli." + cmd] / passes
        c = self.counters
        for key in ("lattice.coeff_series.shells", "oscsum.gP_fourier_terms.terms",
                    "oscsum.freq_long_sum.grid_points", "oscsum.freq_long_sum.grid_bytes",
                    "oscsum.bound_check_VNQR.points", "poly.Polynomial3.evaluate_arrays.points",
                    "modular.theta_context.n_max", "modular.gauss_sum_direct.terms"):
            out[key] = c[key] / passes
        series_calls = self.calls["lattice.coeff_series"]
        out["lattice.coeff_series.repeat_frac"] = (
            c["lattice.coeff_series.repeats"] / series_calls if series_calls else 0.0)
        checks = self.calls["modular.transformation_check"]
        out["modular.transformation_check.pass_frac"] = (
            c["modular.transformation_check.passed"] / checks if checks else 0.0)
        shares = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            shares[name.split(".")[0]] += seconds
        for layer in LAYERS:
            out[f"{layer}.share"] = shares[layer] / passes / traced_wall_s
        out["untraced.share"] = 1.0 - sum(out[f"{layer}.share"] for layer in LAYERS)
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "parent", "name", "op", "start", "end"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "note": UNTRACED_NOTE, "spans": self.spans}, fh)
