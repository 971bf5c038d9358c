"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads exact_series,checks]
                                 [--trace 0|1] [--out perfbench/results/x.json]

Runs are sequential, one fresh process each.  For every metric the summary
gives the median, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, next to the bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, ROOT


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(done.stderr.strip().splitlines()[-1])["record"]
    return {"seed": seed, "elapsed_s": time.perf_counter() - t0, "result": result,
            "record": record}


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        entry = {"median": med, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
        if name in bounds:
            entry["bound"] = bounds[name]
        out[name] = entry
    return out


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, args.trace) for s in _seeds(args.seeds)]
        summary[workload] = {
            "runs": runs,
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": summarise(runs, bounds),
        }
        print(f"== {workload}: failed {summary[workload]['failed']} of "
              f"{summary[workload]['attempted']}, "
              f"{statistics.median(r['elapsed_s'] for r in runs):.1f} s per run", flush=True)
        for name, m in summary[workload]["metrics"].items():
            if args.trace and not name.endswith(".share") and name != "trace_overhead_frac":
                continue
            spread = m.get("spread")
            print(f"  {name:40s} median {m['median']:.6g}"
                  + (f"  spread {spread:.3f}" if spread is not None else "")
                  + (f"  bound {m['bound']}" if "bound" in m else ""), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)


if __name__ == "__main__":
    main()
