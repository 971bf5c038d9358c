"""latharm benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload exact_series --seed 1 --seconds 25 --trace 0

Drives `latharm.cli.main(argv)` in-process, one client in a closed loop
(each op starts when the previous one returned), no threads.  The seeded
op list is run pass after pass until --seconds have elapsed; every output
is checked by the oracle outside the timed region.  One untimed warm-up
pass comes first.  A fixed probe of the machine's speed runs between ops
(see speed.py); the end-to-end times are scaled by it, the raw ones go to
the record.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes (per-command times and the baseline for the tracing overhead) with
traced passes, and prints the per-layer metrics.  The last stdout line is
the JSON result; a record of the machine, sample counts and failures goes
to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import NamedTuple

import speed
import workloads as wl
from common import BENCH_DIR, ROOT, SRC, ProgramMissing, invoke, load_cli

PINNED_ENV = ("LH_THREADS", "LH_SEED")
SETUP_PROBES = 7
PER_COMMAND = ["coeffs", "sum", "fit", "freqsum", "expsum", "theta-check", "gauss"]
IMPORT_TIMER = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"


def setup_seconds() -> tuple[list[float], list[float]]:
    """Import times of latharm and latharm.cli, each in a fresh interpreter,
    and of the import probe, run in turns with them."""
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env["PYTHONPATH"] = str(SRC)

    def timed_import(modules) -> float:
        done = subprocess.run([sys.executable, "-c", IMPORT_TIMER.format(", ".join(modules))],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
                              check=True)
        return float(done.stdout)

    times, probes = [], []
    for _ in range(SETUP_PROBES):
        probes.append(timed_import(speed.IMPORT_PROBE))
        times.append(timed_import(("latharm", "latharm.cli")))
    return times, probes


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or commit
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "loadavg_start": os.getloadavg(),
    }


class Pass(NamedTuple):
    latencies: list[float]  # seconds, one per op
    probes: list[float]  # speed probe times taken between the ops


class Runner:
    """Runs the op list pass after pass and checks every output."""

    def __init__(self, cli, oracle, ops):
        self.cli, self.oracle, self.ops = cli, oracle, ops
        self.attempted = 0
        self.passes_run = 0
        self.failures: Counter[str] = Counter()

    def run_for(self, seconds: float, tracer=None) -> list[Pass]:
        """Latency of every op and the speed probes, one `Pass` per pass.

        Runs at least one pass, and then another only while it is expected
        to end within `seconds`.
        """
        passes: list[Pass] = []
        start = time.perf_counter()
        while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(
                passes) <= seconds:
            latencies, probes = [], []
            last_probe = time.perf_counter()
            for idx, op in enumerate(self.ops):
                if tracer is not None:
                    tracer.set_op((self.passes_run, idx))
                rc, out, exc, dt = invoke(self.cli.main, op.argv)
                latencies.append(dt)
                self.attempted += 1
                reason = self.oracle.check(op, rc, out, exc)
                if reason is not None:
                    self.failures[f"{op.command}: {reason}"] += 1
                if time.perf_counter() - last_probe >= speed.PROBE_EVERY_S or not probes:
                    probes.append(speed.probe())
                    last_probe = time.perf_counter()
            passes.append(Pass(latencies, probes))
            self.passes_run += 1
        return passes

    def per_command(self, passes) -> dict[str, float]:
        """Median over passes of each command's summed op time."""
        out = {}
        for cmd in PER_COMMAND:
            idx = [i for i, op in enumerate(self.ops) if op.command == cmd]
            out[f"cmd.{cmd}_s"] = statistics.median(
                sum(p.latencies[i] for i in idx) for p in passes)
        return out


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner, passes, setup) -> tuple[dict, dict]:
    """End-to-end metrics; every time is scaled by its pass's speed probes."""
    setup_times, setup_probes = setup
    setup_scale = speed.scale(setup_probes, speed.REFERENCE_IMPORT_S)
    scales = [speed.scale(p.probes) for p in passes]
    walls = [sum(p.latencies) for p in passes]
    pooled = sorted(dt * f for p, f in zip(passes, scales) for dt in p.latencies)
    q = statistics.quantiles(pooled, n=100, method="inclusive")
    raw_q = statistics.quantiles([dt for p in passes for dt in p.latencies], n=100,
                                 method="inclusive")
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": _metric(statistics.median(setup_times) * setup_scale, "s"),
        "wall_s": _metric(statistics.median(w * f for w, f in zip(walls, scales)), "s"),
        "op_p50_ms": _metric(q[49] * 1e3, "ms"),
        "op_p90_ms": _metric(q[89] * 1e3, "ms"),
        "peak_rss_mib": _metric(rss_mib, "MiB"),
    }
    info = {"passes": len(passes), "pass_walls": walls, "pass_scales": scales,
            "op_samples": len(pooled), "setup_probes": setup_times,
            "setup_scale": setup_scale,
            "raw": {"setup_s": statistics.median(setup_times),
                    "wall_s": statistics.median(walls),
                    "op_p50_ms": raw_q[49] * 1e3, "op_p90_ms": raw_q[89] * 1e3},
            **{k: round(v, 6) for k, v in runner.per_command(passes).items()}}
    return metrics, info


def per_layer(runner, args) -> tuple[dict, dict]:
    """Pairs of one untraced and one traced pass, in alternating order.

    The tracing overhead is the median over pairs of the traced pass's wall
    time over the untraced one's, so that drift in machine speed during the
    run hits both sides alike.
    """
    import latharm
    from tracer import UNTRACED_NOTE, Tracer

    tracer = Tracer()
    plain, traced, ratios = [], [], []
    start = time.perf_counter()
    while not ratios or (time.perf_counter() - start) * (len(ratios) + 1) / len(
            ratios) <= args.seconds:
        wall = {}
        for trace_on in (False, True) if len(ratios) % 2 == 0 else (True, False):
            if trace_on:
                tracer.install(latharm)
                try:
                    (done,) = runner.run_for(0, tracer)
                finally:
                    tracer.uninstall()
                traced.append(done)
            else:
                (done,) = runner.run_for(0)
                plain.append(done)
            wall[trace_on] = sum(done.latencies)
        ratios.append(wall[True] / wall[False])
    values = tracer.metrics(len(traced),
                            sum(sum(p.latencies) for p in traced) / len(traced))
    values.update(runner.per_command(plain))
    values["trace_overhead_frac"] = statistics.median(ratios) - 1
    units = {m["name"]: m["unit"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {missing}")
    trace_path = BENCH_DIR / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(trace_path)
    metrics = {name: _metric(values[name], unit) for name, unit in units.items()}
    info = {"untraced_pass_walls": [sum(p.latencies) for p in plain],
            "traced_pass_walls": [sum(p.latencies) for p in traced],
            "overhead_ratios": ratios,
            "spans": len(tracer.spans), "span_file": str(trace_path.relative_to(ROOT)),
            "computed_counters": ["oscsum.freq_long_sum.grid_points",
                                  "oscsum.freq_long_sum.grid_bytes",
                                  "oscsum.bound_check_VNQR.points"],
            "not_separated": UNTRACED_NOTE}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny op per family (for selftest.py)")
    args = parser.parse_args(argv)

    for var in PINNED_ENV:
        os.environ.pop(var, None)
    try:
        cli = load_cli()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from oracle import Oracle

    record = machine_record()
    setup = setup_seconds() if not args.trace else None
    ops = wl.build(args.workload, args.seed, smoke=args.smoke)
    oracle = Oracle()
    for op in ops:
        oracle.prepare(op)
    runner = Runner(cli, oracle, ops)
    # one untimed pass first keeps first-call costs out of the timed passes
    (warmup,) = runner.run_for(0)
    if args.trace:
        metrics, info = per_layer(runner, args)
    else:
        metrics, info = end_to_end(runner, runner.run_for(args.seconds), setup)
    record.update(workload=args.workload, seed=args.seed, ops_per_pass=len(ops),
                  warmup_pass_wall=sum(warmup.latencies),
                  loadavg_end=os.getloadavg(), failures=dict(runner.failures), **info)
    print(json.dumps({"record": record}), file=sys.stderr)
    failed = sum(runner.failures.values())
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
