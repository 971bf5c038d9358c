"""Self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its format, that a smoke run of every
workload emits exactly the metrics BENCHMARK.json names (end-to-end with
--trace 0, per-layer with --trace 1) with the expected layers active, that
the oracle accepts every smoke output and rejects a corrupted copy of each,
that an exception escaping the CLI counts as a failed op, and that the
benchmark refuses to run where the program's sources are missing.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import workloads as wl
from common import BENCH_DIR, ROOT, invoke, load_cli

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Layers that must be busy (share > 0) or idle (share == 0) per workload.
BUSY = {"exact_series": ["lattice", "cli"], "smoothing": ["oscsum", "lattice", "poly"],
        "checks": ["modular", "exppairs", "cli"]}
IDLE = {"exact_series": ["oscsum", "modular", "exppairs"], "smoothing": ["modular", "exppairs"],
        "checks": ["oscsum"]}


def check_format(bench: dict) -> None:
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["per_layer"]) <= 128
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names)), "names must be unique"
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    known = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    links = json.loads((BENCH_DIR / "metrics_map.json").read_text())["interactions"]
    for link in links:
        unknown = [n for n in link["layer"] + link["moves"] if n not in known and "*" not in n]
        assert not unknown and link["on"] in [w["name"] for w in bench["workloads"]], link


def smoke(bench: dict, workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    spec = bench["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"]), (m, got)
        if not trace:
            assert got["value"] > 0, m
    return result["metrics"]


def check_layers(workload: str, metrics: dict) -> None:
    value = {name: m["value"] for name, m in metrics.items()}
    for layer in BUSY[workload]:
        assert value[f"{layer}.share"] > 0, (workload, layer)
    for layer in IDLE[workload]:
        assert value[f"{layer}.share"] == 0, (workload, layer)
    shares = {name: v for name, v in value.items() if name.endswith(".share")}
    assert all(-1e-9 <= v <= 1 for v in shares.values()), shares
    assert abs(sum(shares.values()) - 1) < 1e-9, shares
    ops = wl.build(workload, 7, smoke=True)
    for name, v in value.items():
        if name.startswith("cmd."):
            cmd = name[len("cmd."):-len("_s")]
            assert (v > 0) == any(op.command == cmd for op in ops), (name, v)


def corrupt(op: wl.Op, rc: int, out: str) -> tuple[int, str]:
    """A wrong copy of a correct output."""
    if op.command == "coeffs":
        lines = out.rstrip("\n").split("\n")
        n, a = lines[-1].split(",")
        return rc, "\n".join(lines[:-1] + [f"{n},{Fraction(a) + 1}"]) + "\n"
    if op.command == "gauss":
        return 1, out
    if op.command in ("table", "balance", "pair"):
        return rc, out + "x"
    if op.command == "theta-check":
        return rc, out.replace('"pass": true', '"pass": false', 1)
    rec = json.loads(out)
    if op.command == "sum":
        rec["value"] = str(Fraction(rec["value"]) + 1)
    elif op.command == "fit":
        rec["slope"] *= 1 + 1e-6
    elif op.command == "expsum" and "rows" in rec:
        rec["rows"][-1]["abs_V"] += 1e-3 * rec["rows"][-1]["bound"]
    elif op.command == "expsum":
        rec["value_re"] += 1e-3 * rec["bound"]
    else:
        rec["value"] *= 1.001
    return rc, json.dumps(rec) + "\n"


def check_oracle() -> None:
    from oracle import Oracle
    from run import Runner

    cli = load_cli()
    oracle = Oracle()
    commands = set()
    for workload in wl.WORKLOADS:
        for op in wl.build(workload, 7, smoke=True):
            rc, out, exc, _ = invoke(cli.main, op.argv)
            assert oracle.check(op, rc, out, exc) is None, op.argv
            bad_rc, bad_out = corrupt(op, rc, out)
            assert oracle.check(op, bad_rc, bad_out, None) is not None, ("missed", op.argv)
            commands.add(op.command)
    assert commands == set(wl.COMMANDS), set(wl.COMMANDS) - commands
    # gamma z falls below y_min: the CLI lets a ValueError escape today
    bad = wl.Op(("theta-check", "--gamma", "1,0,4,1", "--z", "0,2", "--json"),
                {"sample": 1})
    runner = Runner(cli, oracle, [bad])
    runner.run_for(0)
    assert runner.attempted == 1 and list(runner.failures) == [
        "theta-check: exception ValueError"], runner.failures


def check_refuses_without_program() -> None:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "checks", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and '"metrics"' not in done.stdout, done


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_format(bench)
    check_refuses_without_program()
    check_oracle()
    print("format, refusal and oracle checks passed", flush=True)
    for workload in wl.WORKLOADS:
        smoke(bench, workload, 0)
        check_layers(workload, smoke(bench, workload, 1))
        print(f"{workload}: smoke runs emit every metric", flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
