"""Regenerate the oracle's stored references from the program in this checkout.

    python3 perfbench/make_refs.py

Writes perfbench/refs/{exact,fourier,text}.json.  Run it only on a commit
whose outputs are trusted: the references pin the exact outputs (coeffs,
sum), the fit results, the symbolic Fourier terms and the exact texts of
table, balance and pair for every input the generators can produce.
"""

from __future__ import annotations

import hashlib
import json
import sys

import workloads as wl
from common import BENCH_DIR, invoke, load_cli

REFS = BENCH_DIR / "refs"


def _run(cli, argv) -> str:
    rc, out, exc, _ = invoke(cli.main, argv)
    if rc != 0 or exc:
        raise SystemExit(f"reference run failed: {argv} rc={rc} exc={exc}")
    return out


def exact_refs(cli) -> dict:
    refs = {"coeffs": {}, "sum": {}, "fit": {}}
    for name, expr in wl.POLYS.items():
        refs["coeffs"][name], refs["sum"][name], refs["fit"][name] = {}, {}, {}
        for e in wl.SERIES_LADDER[name]:
            n = wl.grid_size(e)
            out = _run(cli, ["coeffs", "--poly", expr, "--n-max", str(n), "--csv", "-"])
            refs["coeffs"][name][str(n)] = hashlib.sha256(out.encode()).hexdigest()
            rec = json.loads(_run(cli, ["sum", "--poly", expr, "--r-sq", str(n), "--json"]))
            refs["sum"][name][str(n)] = {"value": rec["value"], "term_count": rec["term_count"]}
        for e in wl.FIT_LADDER[name]:
            r = wl.grid_size(e)
            argv = ["fit", "--poly", expr, "--r-max", str(r), "--json"]
            if name == "one":
                argv.append("--subtract-main")
            rec = json.loads(_run(cli, argv))
            del rec["schema"]
            refs["fit"][name][str(r)] = rec
        print(f"exact references for {name} done", file=sys.stderr)
    return refs


def fourier_refs() -> dict:
    from latharm.oscsum import gP_fourier_terms
    from latharm.poly import parse_poly, sphere_average

    refs = {}
    for name in ("one", "quartic", "sextic"):
        p = parse_poly(wl.POLYS[name])
        ft = gP_fourier_terms(p)
        refs[name] = {
            "nu": ft.nu,
            "imaginary": ft.imaginary,
            "sphere_average": str(sphere_average(p)),
            "terms": [
                {
                    "pi": t.pi_pow, "r": t.r_pow, "h": t.h_pow, "mix": t.mix_pow,
                    "denom": t.denom_pow,
                    "trig": [[f.freq, f.shift] for f in t.trig],
                    "poly": [[i, j, k, str(c.re)] for (i, j, k), c in t.poly.sorted_terms()],
                }
                for t in ft.terms
            ],
        }
    return refs


def text_refs(cli) -> dict:
    argvs = [("table",), ("table", "--csv")]
    for long in wl.NAMED_LONG:
        for short in wl.SHORT_MODELS:
            base = ("balance", "--long", long, "--short", short)
            argvs += [base, base + ("--json",)]
    for pair in wl.PAIRS:
        for word in wl.WORDS:
            argvs.append(("pair", "--pair", pair) + (("--word", word) if word else ()))
    return {" ".join(argv): _run(cli, argv) for argv in argvs}


def main() -> None:
    cli = load_cli()
    REFS.mkdir(exist_ok=True)
    for name, refs in (("text", text_refs(cli)), ("fourier", fourier_refs()),
                       ("exact", exact_refs(cli))):
        (REFS / f"{name}.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
