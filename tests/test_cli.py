import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from latharm import exppairs, lattice, modular, poly
from latharm.cli import UsageError, _headline_magnitudes, _parse_args, build_parser, main
from latharm.poly import COEFF_BIT_CAP, DEGREE_CAP, parse_poly, sphere_average

from conftest import SEXTIC_EXPR
from test_modular import report_json_lines, report_text_lines

GOLDEN = Path(__file__).parent / "golden"
QUARTIC = "5*(x^4+y^4+z^4)-3*(x^2+y^2+z^2)^2"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sum_exact(capsys):
    code, out, _ = run(capsys, "sum", "--poly", "5*(x^4+y^4+z^4)-3*(x^2+y^2+z^2)^2",
                       "--r-sq", "3")
    assert code == 0
    assert out.strip() == "-108"


def test_sum_rational_output(capsys):
    code, out, _ = run(capsys, "sum", "--poly", "1/3*x^2", "--r-sq", "1")
    assert code == 0
    assert out.strip() == "2/3"  # two points at +-e_x contribute 1/3 each


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "sum", "--poly", "x^", "--r-sq", "4")
    assert code == 2
    assert "bad polynomial" in err


def test_pair_word(capsys):
    code, out, _ = run(capsys, "pair", "--pair", "32/205,269/410", "--word", "BA2")
    assert code == 0
    assert out.strip() == "743/2024,269/506 (+eps)"


def test_pair_eps_override(capsys):
    code, out, _ = run(capsys, "pair", "--pair", "32/205,269/410", "--word", "BA2",
                       "--no-eps")
    assert code == 0
    assert out.strip() == "743/2024,269/506"


def test_parser_is_built_once_and_calls_stay_independent(capsys):
    assert build_parser() is build_parser()
    first = run(capsys, "pair", "--pair", "32/205,269/410")
    no_eps = run(capsys, "pair", "--pair", "32/205,269/410", "--no-eps")
    again = run(capsys, "pair", "--pair", "32/205,269/410")
    assert first == again == (0, "32/205,269/410 (+eps)\n", "")
    assert no_eps == (0, "32/205,269/410\n", "")


COMMANDS = ("sum", "coeffs", "shortsum", "longsum", "freqsum", "expsum", "pair", "balance",
            "table", "fit", "theta-check", "gauss")
# argvs whose parse is the tricky part: help, a missing or unknown command, a
# flag before the command, abbreviations, '=' forms, negative numbers, '--',
# another script's digit, unrecognised arguments and a NaN
PARSE_EDGES = [
    (), ("-h",), ("--help",), ("bogus",), ("--poly", "1", "sum"), ("--", "sum"),
    ("-h", "sum"), ("sum", "-h", "--bogus"), ("sum", "--", "--poly", "1"),
    ("coeffs", "--poly", "1", "--n", "64", "--csv", "-"),
    ("expsum", "--r", "10", "--n-l", "4,16"), ("expsum", "--r", "10", "--n", "4"),
    ("theta-check", "--gamma=-1,0,0,-1", "--z=-0.25,0.5"),
    ("theta-check", "--gamma", "-1,0,0,-1", "--z", "0,1"),
    ("gauss", "--d", "-3", "--c", "-4", "--xi=-2"), ("gauss", "--d", "3", "--c", "\u0663"),
    ("sum", "--poly", "1", "--r-sq", "4", "extra"), ("sum", "--poly", "1", "--r-sq"),
    ("longsum", "--poly", "1", "--r", "nan", "--h", "0.5"), ("table", "--csv", "--out=-"),
    *((command, "-h") for command in COMMANDS),
]


def _parse_outcome(capsys, parse, argv):
    """The namespace's fields with NaN made comparable, the refusal's message,
    or the exit's code and output."""
    try:
        args = parse(argv)
    except UsageError as exc:
        return "refused", str(exc)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return "exit", exc.code, captured.out, captured.err
    return {k: "nan" if isinstance(v, float) and math.isnan(v) else v
            for k, v in vars(args).items()}


def _workloads():
    """perfbench/workloads.py, the benchmark's op lists."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import workloads
    finally:
        del sys.path[0]
    return workloads


def test_each_command_parses_as_the_top_parser_would(capsys, monkeypatch):
    # the one-pass dispatch against build_parser().parse_args, the reference
    rows = json.loads((GOLDEN / "cli_digests.json").read_text())
    workloads = _workloads()
    argvs = [*(op.argv for name in workloads.WORKLOADS for seed in (1, 2, 3)
               for op in workloads.build(name, seed)),
             *(row["argv"] for row in rows), *BAD_INPUT.values(), *PARSE_EDGES]
    assert len(argvs) > 590
    reference = build_parser().parse_args
    for argv in argvs:
        assert (_parse_outcome(capsys, _parse_args, list(argv))
                == _parse_outcome(capsys, reference, list(argv))), argv
    for argv in (["pair", "--pair", "0,1"], ["-h"], ["sum", "-h"], ["bogus"], []):
        monkeypatch.setattr(sys, "argv", ["latharm", *argv])
        assert (_parse_outcome(capsys, _parse_args, None)
                == _parse_outcome(capsys, reference, None)), argv
        assert run(capsys, *argv) == (main(None), *capsys.readouterr()), argv


def test_each_call_parses_its_argv_once(capsys, monkeypatch):
    passes = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        passes.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    bases = {base[0]: base for base in FUZZ_BASES}
    assert sorted(bases) == sorted(COMMANDS)
    for command, argv in bases.items():
        passes.clear()
        assert run(capsys, *argv)[0] == 0, argv
        assert passes == [f"latharm {command}"], argv
    # what the top parser alone can word still comes from it, once
    for argv, code, err in [
        ((), 2, "error: the following arguments are required: command\n"),
        (("bogus",), 2, "error: argument command: invalid choice: 'bogus' (choose from "
                        + ", ".join(map(repr, COMMANDS)) + ")\n"),
        (("-h",), 0, ""),
    ]:
        passes.clear()
        out = build_parser().format_help() if code == 0 else ""
        assert run(capsys, *argv) == (code, out, err)
        assert passes == ["latharm"]


def test_balance_named_term_lists(capsys):
    code, out, _ = run(capsys, "balance", "--long", "classic", "--short", "cusp")
    assert code == 0
    assert "alpha=-37/64" in out
    assert "theta=83/64" in out


@pytest.mark.parametrize("name", sorted(exppairs.LONG_SUM_MODELS))
def test_balance_named_long_list_equals_its_exponents(capsys, name):
    explicit = ";".join(f"{t.r_exp},{t.h_exp}" for t in exppairs.LONG_SUM_MODELS[name])
    named = run(capsys, "balance", "--long", name, "--short", "cusp")
    assert named[0] == 0
    assert named == run(capsys, "balance", "--long", explicit, "--short", "cusp")


def test_balance_json(capsys):
    code, out, _ = run(capsys, "balance", "--long", "1,-1;", "--short", "2,1",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["theta"] == "3/2"
    assert payload["alpha"] == "-1/2"


def test_table_matches_golden_text(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert out == (GOLDEN / "exponent_table.txt").read_text()


def test_table_matches_golden_csv(capsys):
    code, out, _ = run(capsys, "table", "--csv")
    assert code == 0
    assert out == (GOLDEN / "exponent_table.csv").read_text()


def test_coeffs_csv(capsys):
    code, out, _ = run(capsys, "coeffs", "--poly", "1", "--n-max", "3", "--csv", "-")
    assert code == 0
    assert out == "n,a_n\n1,6\n2,12\n3,8\n"


def test_coeffs_json(capsys):
    code, out, _ = run(capsys, "coeffs", "--poly", "x^2-y^2", "--n-max", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["nu"] == 2
    assert payload["values"] == ["0", "0", "0", "0"]


def test_shortsum_longsum_freqsum(capsys):
    code, out, _ = run(capsys, "shortsum", "--poly", "1", "--r", "1", "--h", "0.5")
    assert code == 0
    short_value = float(out)
    expected = 6.0 + 12 * (1.0 * (1.5 - math.sqrt(2)) / 0.5) / math.sqrt(2)
    assert short_value == pytest.approx(expected, rel=1e-12)

    code, out, _ = run(capsys, "longsum", "--poly", "x*y", "--r", "4", "--h", "0.5")
    assert code == 0 and float(out) == 0.0

    code, out, _ = run(capsys, "freqsum", "--poly", "x*y", "--r", "4", "--h", "0.5",
                       "--n-trunc", "64")
    assert code == 0
    assert abs(float(out)) < 1e-9


# Every number these print is a Python float or int: a numpy scalar would
# print as np.float64(...) or np.int64(...).
NUMPY_FREE = [
    ("longsum", "--poly", "x*y", "--r", "4", "--h", "0.5"),
    ("longsum", "--poly", "x*y", "--r", "4", "--h", "0.5", "--json"),
    ("longsum", "--poly", "1", "--r", "5", "--h", "0.5"),
    ("longsum", "--poly", "1/3*x^2-1/7*y^2", "--r", "5", "--h", "0.5", "--json"),
    ("shortsum", "--poly", "x*y", "--r", "4", "--h", "0.5"),
    ("shortsum", "--poly", QUARTIC, "--r", "5", "--h", "0.5", "--json"),
    ("freqsum", "--poly", "x*y", "--r", "4", "--h", "0.5", "--n-trunc", "64"),
    ("freqsum", "--poly", QUARTIC, "--r", "4", "--h", "0.5", "--n-trunc", "64", "--json"),
    ("expsum", "--poly", "x^2-y^2", "--r", "5", "--n", "16"),
    ("expsum", "--poly", "1", "--r", "5", "--h=1/3,0,1/5", "--n", "16", "--json"),
    ("fit", "--poly", QUARTIC, "--r-max", "16"),
    ("fit", "--poly", "1", "--r-max", "16", "--json"),
    ("fit", "--poly", "x^2", "--r-max", "16", "--csv", "-"),
]


@pytest.mark.parametrize("argv", NUMPY_FREE, ids=[" ".join(a[:1] + a[-2:]) for a in NUMPY_FREE])
def test_printed_numbers_are_python_numbers(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out and "np." not in out


# (2^27 - 1)(x^4+y^4+z^4) at 4096 shells: its shell sums reach 2^61 with
# every bit significant, inside int64, so they stay int64 to the output
# edge, while their running sums (the fit, the long sum's inner part) pass
# 2^69.  Digests of each stdout as printed by the Python-int formatting and
# float conversion that the int64 kernels replaced.
WIDE_INT64 = "134217727*(x^4+y^4+z^4)"
WIDE_INT64_OUTPUT = {
    ("coeffs", "--n-max", "4096", "--csv", "-"):
        "df6abfd20e0605ff725cfb877e053beb1fc64ee41cb0436102c023d323fa856c",
    ("fit", "--r-max", "64"):
        "7c44958d4b27d98befb8ef85e0bbcfbcd2622bb4ba42d6f37452de968f0e8939",
    ("fit", "--r-max", "64", "--json"):
        "e5bbd3888461e974c0bee741a83d93e4817f4a459bed4dcf1381572bd711b826",
    ("fit", "--r-max", "64", "--csv", "-"):
        "71c21121090071eef65653b362cdb99d5e3d1b1a49b2fd18524d59c2b3ee71aa",
    ("longsum", "--r", "63.5", "--h", "0.5"):
        "db38ff2505348b5a5d8d7d66ae14f178bbefe7afde1f46f4934030c4684f695d",
    ("longsum", "--r", "63.5", "--h", "0.5", "--json"):
        "a31f2285f513d99a61c33a16fc5dbaaf4440885e7daa9e579e5a8b40d438170e",
    ("shortsum", "--r", "63.5", "--h", "0.5"):
        "af854212a4d186220480328b5085e37b4891cba53b837d68f165968108ee3885",
    ("shortsum", "--r", "63.5", "--h", "0.5", "--json"):
        "65d3f41265ac56d82612d70a791148e4a28a9ce812e61f08b05ff02741148b04",
}


@pytest.mark.parametrize("args", WIDE_INT64_OUTPUT, ids=[" ".join(a) for a in WIDE_INT64_OUTPUT])
def test_int64_series_print_as_python_integers_did(capsys, args):
    totals = lattice.shell_totals(parse_poly(WIDE_INT64), 4096)[1]
    assert totals.dtype == np.int64 and int(np.cumsum(totals, dtype=object)[-1]) > 1 << 69
    code, out, _ = run(capsys, args[0], "--poly", WIDE_INT64, *args[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == WIDE_INT64_OUTPUT[args]


def test_expsum_single(capsys):
    code, out, _ = run(capsys, "expsum", "--poly", "1", "--r", "5", "--n", "1")
    assert code == 0
    assert complex(out.strip().strip("()")) == pytest.approx(7 + 0j, abs=1e-12)


def test_expsum_sweep_csv(capsys, tmp_path):
    target = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "expsum", "--poly", "1", "--r", "50",
                     "--n-list", "16,64,256", "--csv", str(target))
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "N,abs_V,bound,ratio"
    assert len(lines) == 4


def test_expsum_json(capsys):
    code, out, _ = run(capsys, "expsum", "--poly", "1", "--r", "50",
                       "--n-list", "16,64", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert [row["N"] for row in payload["rows"]] == [16, 64]


def test_expsum_reduces_h_exactly_mod_1(capsys):
    # e(h . xi) has period 1 in each component; the float of a huge
    # numerator over 3 would lose the 1/3
    outs = [
        run(capsys, "expsum", "--poly", "x^3*y+2*x*z-7", "--r", "2.5", f"--h={h}",
            "--n", "50")
        for h in ("100000000000000000001/3,-7/4,3", "2/3,1/4,0")
    ]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0


@pytest.mark.parametrize("size", [("--n", "16"), ("--n-list", "1,4,16")])
def test_expsum_negative_r_json(capsys, size):
    # |V(Q, -R, -h)| = |V(Q, R, h)|, and the bound reads |R|
    payloads = []
    for r, h in (("-5", "-1/3,0,-1/5"), ("5", "1/3,0,1/5")):
        code, out, _ = run(capsys, "expsum", "--poly", "x^2*y-z", f"--r={r}", f"--h={h}",
                           *size, "--json")
        assert code == 0
        payloads.append(json.loads(out))
    minus, plus = payloads
    rows = [(minus, plus)] if "rows" not in plus else zip(minus["rows"], plus["rows"])
    for a, b in rows:
        assert a["bound"] == b["bound"]
        assert a["ratio"] == pytest.approx(b["ratio"], rel=1e-12)


BAD_INPUT = {
    "freqsum-n-trunc-0": ("freqsum", "--poly", "1", "--r", "10", "--h", "0.5",
                          "--n-trunc", "0"),
    "expsum-n-0": ("expsum", "--poly", "1", "--r", "10", "--n", "0"),
    "freqsum-r-nan": ("freqsum", "--poly", "1", "--r", "nan", "--h", "0.5",
                      "--n-trunc", "64"),
    "freqsum-h-inf": ("freqsum", "--poly", "1", "--r", "10", "--h", "inf",
                      "--n-trunc", "64"),
    "expsum-r-inf": ("expsum", "--poly", "1", "--r", "inf", "--n", "4"),
    "expsum-r-nan-sweep": ("expsum", "--poly", "1", "--r", "nan", "--n-list", "4,16"),
    "expsum-h-nan": ("expsum", "--poly", "1", "--r", "10", "--h=nan,0,0", "--n", "4"),
    "longsum-r-nan": ("longsum", "--poly", "1", "--r", "nan", "--h", "0.5"),
    "longsum-h-inf": ("longsum", "--poly", "1", "--r", "10", "--h", "inf"),
    "shortsum-r-inf": ("shortsum", "--poly", "1", "--r", "inf", "--h", "0.5"),
    "shortsum-h-nan": ("shortsum", "--poly", "1", "--r", "10", "--h", "nan"),
    "shortsum-r-below-1": ("shortsum", "--poly", "1", "--r", "0.5", "--h", "0.5"),
    "coeffs-nonhomogeneous": ("coeffs", "--poly", "x^2+y", "--n-max", "10"),
    "coeffs-n-max-0": ("coeffs", "--poly", "1", "--n-max", "0"),
    "sum-r-sq-negative": ("sum", "--poly", "1", "--r-sq", "-1"),
    "balance-alpha-range-one-value": ("balance", "--long", "classic", "--short", "cusp",
                                      "--alpha-range", "1"),
    # one rational parser refuses a zero denominator, and an exponent past
    # RATIONAL_EXP_CAP before Fraction builds 10^(10^8)
    "pair-zero-denominator": ("pair", "--pair", "1/0,1"),
    "pair-exponent-huge": ("pair", "--pair", "1e100000000,1"),
    "balance-long-zero-denominator": ("balance", "--long", "1/0,1", "--short", "trivial"),
    "balance-short-zero-denominator": ("balance", "--long", "1,1", "--short", "1,1/0"),
    "balance-long-exponent-huge": ("balance", "--long", "1,1e100000000", "--short", "trivial"),
    "balance-alpha-range-exponent-huge": ("balance", "--long", "classic", "--short", "cusp",
                                          "--alpha-range=-1e100000000,0"),
    "expsum-h-exponent-huge": ("expsum", "--poly", "1", "--r", "10", "--h=1e100000000,0,0",
                               "--n", "4"),
    "expsum-h-zero-denominator": ("expsum", "--poly", "1", "--r", "10", "--h=1/0,0,0",
                                  "--n", "4"),
    "fit-missing-csv": ("fit", "--from-csv", "{tmp}/missing.csv"),
    # a series row at n = 10^12 would size a list of 10^12 entries
    "fit-from-csv-n-huge": ("fit", "--from-csv", "{tmp}/huge-n.csv"),
    # a series must list n = 1, 2, 3, ... as rows n,R,abs_sum
    "fit-from-csv-two-fields": ("fit", "--from-csv", "{tmp}/two-fields.csv"),
    "fit-from-csv-gap": ("fit", "--from-csv", "{tmp}/gap.csv"),
    "fit-from-csv-n-0": ("fit", "--from-csv", "{tmp}/n-0.csv"),
    "fit-from-csv-abs-sum-inf": ("fit", "--from-csv", "{tmp}/abs-sum-inf.csv"),
    "fit-from-csv-abs-sum-nan": ("fit", "--from-csv", "{tmp}/abs-sum-nan.csv"),
    "table-out-missing-dir": ("table", "--out", "{tmp}/missing/t.txt"),
    "pair-bad-word": ("pair", "--pair", "1/6,2/3", "--word", "C"),
    # A^n costs O(n^2) time; the expansion is counted before it is built
    "pair-word-huge": ("pair", "--pair", "1/6,2/3", "--word", "A99999999999"),
    # work that would exhaust memory is refused before anything is allocated
    "coeffs-n-max-huge": ("coeffs", "--poly", "x^2", "--n-max", str(10**11)),
    "sum-r-sq-huge": ("sum", "--poly", "x^2", "--r-sq", str(10**11)),
    "fit-r-max-huge": ("fit", "--poly", QUARTIC, "--r-max", str(10**6)),
    "freqsum-n-trunc-huge": ("freqsum", "--poly", "1", "--r", "10", "--h", "0.5",
                             "--n-trunc", str(10**11)),
    # a finite R whose kernel prefactor overflows a float
    "freqsum-r-overflow": ("freqsum", "--poly", QUARTIC, "--r", "1e100", "--h", "0.5",
                           "--n-trunc", "16"),
    # (R+H) sqrt(n_trunc) above 2^32 leaves the kernel's float64 phases
    # meaningless; at 1e75 they would also overflow to inf * 0
    "freqsum-phase-imprecise": ("freqsum", "--poly", QUARTIC, "--r", "1e30", "--h", "0.5",
                                "--n-trunc", "16"),
    "freqsum-phase-overflow": ("freqsum", "--poly", QUARTIC, "--r", "1e75", "--h", "0.5",
                               "--n-trunc", "16"),
    "expsum-n-huge": ("expsum", "--poly", "1", "--r", "10", "--n", str(10**11)),
    "expsum-n-huge-h": ("expsum", "--poly", "1", "--r", "10", "--h", "1/3,0,1/5",
                        "--n", str(10**11)),
    # |R| sqrt(N) above 2^32 leaves the float64 phase meaningless
    "expsum-phase-imprecise": ("expsum", "--poly", "1", "--r", "1e300", "--n", "4"),
    "expsum-phase-imprecise-h": ("expsum", "--poly", "1", "--r", "1e300",
                                 "--h", "1/3,0,1/5", "--n", "4"),
    "expsum-phase-imprecise-sweep": ("expsum", "--poly", "x^2", "--r=-3e9",
                                     "--n-list", "1,4"),
    "theta-check-n-max-huge": ("theta-check", "--n-max", "2000000"),
    "theta-check-n-max-0": ("theta-check", "--n-max", "0"),
    "theta-check-z-im-nan": ("theta-check", "--gamma", "1,0,4,1", "--z", "0,nan"),
    "theta-check-z-im-inf": ("theta-check", "--gamma", "1,0,4,1", "--z", "0,inf"),
    "theta-check-z-re-nan": ("theta-check", "--gamma", "1,0,4,1", "--z", "nan,1"),
    # a literal past Python's 4300-digit limit on int(str), and a
    # coefficient whose theta constant leaves the float range
    "theta-check-literal-digits-huge": ("theta-check", "--poly", "1" * 5000 + "*x^2",
                                        "--sample", "2"),
    "theta-check-coeff-overflow": ("theta-check", "--poly", "2^2000*(x^2-y^2)",
                                   "--sample", "2"),
    "theta-check-z-re-inf": ("theta-check", "--gamma", "1,0,4,1", "--z", "inf,1"),
    "theta-check-nonharmonic": ("theta-check", "--poly", "x^2"),
    "theta-check-nonhomogeneous": ("theta-check", "--poly", "x^2+y"),
    # the zero polynomial has no theta series to check: every report would be
    # inconclusive
    "theta-check-zero": ("theta-check", "--poly", "0"),
    "theta-check-tol-nan": ("theta-check", "--tol", "nan"),
    "theta-check-tol-0": ("theta-check", "--tol", "0"),
    "theta-check-tol-negative": ("theta-check", "--tol", "-1"),
    # no tail of 256 terms is certified below 1e-30 * 1e-4 near Y_MIN
    "theta-check-tol-uncertifiable": ("theta-check", "--tol", "1e-30", "--n-max", "256"),
    "gauss-c-huge": ("gauss", "--d", "1", "--c", "4000000000"),
    # the closed form's domain is checked before the O(|c|) direct sum
    "gauss-c-not-4": ("gauss", "--d", "1", "--c", "999999"),
    "theta-check-sample-0": ("theta-check", "--sample", "0"),
    "theta-check-sample-negative": ("theta-check", "--sample", "-3"),
    "theta-check-sample-huge": ("theta-check", "--sample", "100000000"),
    # digits are ASCII: str.isdigit would accept a superscript two
    "theta-check-non-ascii-digit": ("theta-check", "--poly", "x^\u00b2"),
    "sum-non-ascii-digit": ("sum", "--poly", "\u00b2", "--r-sq", "2"),
    "pair-word-non-ascii-digit": ("pair", "--pair", "0,1", "--word", "A\u00b2"),
    # a 3.2-Gbit constant power is refused before it is built
    "sum-coefficient-power-huge": ("sum", "--poly", "9^1000000000*x^2", "--r-sq", "2"),
    # coefficients are rational: the parser refuses `i`
    "sum-complex": ("sum", "--poly", "(x+i*y)^4", "--r-sq", "10"),
    "freqsum-complex": ("freqsum", "--poly", "(x+i*y)^4", "--r", "10", "--h", "0.5",
                        "--n-trunc", "64"),
    "theta-check-complex": ("theta-check", "--poly", "(x+i*y)^4"),
    # a power whose multiply work would pass poly.MUL_WORK_CAP is refused at its
    # '^', unbuilt, alone or as a product's first factor
    "sum-power-terms-huge": ("sum", "--poly", "(x+y+z+1)^64", "--r-sq", "4"),
    "sum-product-terms-huge": ("sum", "--poly", "(x+y+z+1)^32*(x+y+z+1)^32", "--r-sq", "4"),
    # parentheses nest at most poly.PAREN_DEPTH_CAP (100) deep
    "sum-nested-250": ("sum", "--poly", "(" * 250 + "x" + ")" * 250, "--r-sq", "4"),
    # a model name resolves only in its own table
    "balance-long-takes-a-short-model": ("balance", "--long", "CI", "--short", "cusp"),
    "balance-short-takes-a-long-model": ("balance", "--long", "1,1", "--short", "classic"),
    # int, float and Fraction would read another script's digits as 0-9
    "pair-non-ascii-digit": ("pair", "--pair", "\u0663/8,3/4"),
    "expsum-h-non-ascii-digit": ("expsum", "--poly", "1", "--r", "10", "--h=\u0663/8,0,0",
                                 "--n", "4"),
    "expsum-n-non-ascii-digit": ("expsum", "--poly", "1", "--r", "10", "--n", "\u06630"),
    "shortsum-r-non-ascii-digit": ("shortsum", "--poly", "1", "--r", "\u0665", "--h", "0.5"),
    "fit-from-csv-non-ascii-digit": ("fit", "--from-csv", "{tmp}/non-ascii.csv"),
    # a flag the command would silently ignore
    "coeffs-json-and-csv": ("coeffs", "--poly", "1", "--n-max", "4", "--json",
                            "--csv", "{tmp}/a.csv"),
    "expsum-n-and-n-list": ("expsum", "--poly", "1", "--r", "10", "--n", "16",
                            "--n-list", "4,16"),
    "expsum-csv-without-n-list": ("expsum", "--poly", "1", "--r", "10", "--n", "16",
                                  "--csv", "{tmp}/v.csv"),
    "expsum-csv-and-json": ("expsum", "--poly", "1", "--r", "10", "--n-list", "4,16",
                            "--json", "--csv", "{tmp}/v.csv"),
    "theta-check-z-without-gamma": ("theta-check", "--z", "0,0.5", "--sample", "1",
                                    "--n-max", "256"),
    "fit-from-csv-and-poly": ("fit", "--from-csv", "{tmp}/series.csv", "--poly", QUARTIC),
    "fit-from-csv-and-csv": ("fit", "--from-csv", "{tmp}/series.csv", "--csv", "{tmp}/f.csv"),
    "fit-from-csv-and-r-max": ("fit", "--from-csv", "{tmp}/series.csv", "--r-max", "16"),
    "theta-check-gamma-and-sample": ("theta-check", "--gamma", "1,0,4,1", "--z", "0,0.5",
                                     "--sample", "7", "--seed", "3", "--n-max", "256"),
    "theta-check-gamma-and-seed": ("theta-check", "--gamma", "1,0,4,1", "--z", "0,0.5",
                                   "--seed", "0", "--n-max", "256"),
    # argparse's own refusals print one error line too
    "pair-eps-and-no-eps": ("pair", "--pair", "0,1", "--eps", "--no-eps"),
    "sum-missing-poly": ("sum", "--r-sq", "4"),
    "unknown-command": ("bogus",),
    "no-command": (),
    "sum-r-sq-not-a-number": ("sum", "--poly", "1", "--r-sq", "abc"),
    # a coefficient past the cap, whose sums would pass the 4300-digit limit
    "sum-coeff-past-cap": ("sum", "--poly", "2^20000*x^2", "--r-sq", "2", "--json"),
    "sum-unknown-flag": ("sum", "--poly", "1", "--r-sq", "4", "--bogus"),
    # a power whose multiplications pass poly.MUL_WORK_CAP is refused unbuilt
    "sum-poly-past-the-work-budget": ("sum", "--poly", "(2^400*x+y+z+1)^31", "--r-sq", "2"),
}


def test_outputs_match_the_golden_digests(capsys):
    # exit code and sha256 of stdout and stderr of each argv of
    # tests/golden/regenerate.py, which writes the digests
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    rows = json.loads((GOLDEN / "cli_digests.json").read_text())
    assert len(rows) > 40
    changed = []
    for row in rows:
        code, out, err = run(capsys, *row["argv"])
        if {"argv": row["argv"], "code": code, "stdout": sha(out), "stderr": sha(err)} != row:
            changed.append(row["argv"])
    assert not changed


# theta-check's two --gamma cases that still raise, with their messages;
# perfbench/selftest.py asserts the first as an escaped ValueError, so both
# change with it
GAMMA_RAISES = {
    ("theta-check", "--gamma", "1,0,4,1", "--z", "0,2"):
        "both z and gamma z must stay above Im = 0.05",
    ("theta-check", "--gamma", "1,0,0,1", "--z", "0,0.06", "--n-max", "16"):
        "cannot certify tail < 1e-14 with n_max=16 at Im z = 0.06",
}


def test_only_the_two_gamma_cases_raise(capsys):
    # every theta-check argv of the golden digests, two passing runs and the
    # two cases above: exactly those two raise, every other argv returns
    rows = json.loads((GOLDEN / "cli_digests.json").read_text())
    argvs = [tuple(row["argv"]) for row in rows if row["argv"][0] == "theta-check"]
    argvs += [("theta-check", "--sample", "2", "--n-max", "256"),
              ("theta-check", "--gamma", "1,0,4,1", "--z", "0,0.5", "--n-max", "256")]
    assert len(argvs) > 15
    raised = {}
    for argv in argvs + list(GAMMA_RAISES):
        try:
            code, _, _ = run(capsys, *argv)
        except ValueError as exc:
            raised[argv] = str(exc)
            continue
        assert code in (0, 1, 2), argv
    assert raised == GAMMA_RAISES


def test_the_widest_coefficient_prints_its_exact_sum(capsys):
    # 2^(COEFF_BIT_CAP - 1) x^64 over the largest ball: its 4112-digit sum
    # still passes Python's 4300-digit limit on int to str
    code, out, _ = run(capsys, "sum", "--poly", f"2^{COEFF_BIT_CAP - 1}*x^64",
                       "--r-sq", str(lattice.N_MAX_CAP), "--json")
    assert code == 0
    value = json.loads(out)["value"]
    assert len(value) > 4000
    assert int(value) == 2 ** (COEFF_BIT_CAP - 1) * lattice.ball_sum(parse_poly("x^64"),
                                                                     lattice.N_MAX_CAP)


@pytest.mark.parametrize("text", [
    "(2^400*x+y+z+1)^31",
    "(2^400*x+y+z+1)^15*(2^400*x+y+z+1)^16",
    "(2^800*(x+y+z+1)^15)*(2^800*(x+y+z+1)^16)",
    "(2^6400*(x+y+z+1)^15)*(2^6400*(x+y+z+1)^16)",
    "(x+y+z+1)^31",
])
def test_large_expansions_end_within_a_second(capsys, text):
    # each ends within the parser's aim of 1 s of CPU time: refused by the work
    # budget, or parsed and then refused by sum as not homogeneous
    start = time.process_time()
    code, _, err = run(capsys, "sum", "--poly", text, "--r-sq", "2")
    assert time.process_time() - start < 1.0
    assert code == 2 and err.startswith("error: ")  # refused, or P is not homogeneous


def test_a_product_past_the_coefficient_cap_exits_2_unbuilt(capsys, monkeypatch):
    # the slowest product found at the work budget's edge: two factors of 87
    # terms with 12 900-bit coefficients, n^2 (2b + PAIR_BITS) within
    # MUL_WORK_CAP.  Their leading numerators multiply to 25 799 bits or more,
    # so the '*' refuses the product before it is multiplied out (it took
    # 0.7-0.9 s built and then refused)
    rng = random.Random(12900)
    monomials = [m for m in itertools.product(range(8), repeat=3) if sum(m) <= 7][:87]

    def factor():
        return "(" + "+".join(f"{rng.getrandbits(12900) | 1 << 12899}*x^{i}*y^{j}*z^{k}"
                              for i, j, k in monomials) + ")"

    text = factor() + "*" + factor()
    assert 87**2 * (2 * 12900 + poly.PAIR_BITS) <= poly.MUL_WORK_CAP
    built, mul = [], poly._mul
    monkeypatch.setattr(poly, "_mul", lambda a, b: len(a) > 1 < len(b) and built.append(1)
                        or mul(a, b))
    start = time.perf_counter()
    code, out, err = run(capsys, "coeffs", "--poly", text, "--n-max", "10")
    assert time.perf_counter() - start < 0.1
    assert (code, out, built) == (2, "", [])
    assert err == (f"error: bad polynomial: a coefficient of at least 25799 bits passes the "
                   f"{COEFF_BIT_CAP}-bit cap (at position {text.index(')*(') + 1})\n")


@pytest.mark.parametrize("argv", BAD_INPUT.values(), ids=BAD_INPUT)
def test_bad_input_is_usage_error(capsys, tmp_path, argv):
    (tmp_path / "huge-n.csv").write_text("n,R,abs_sum\n1000000000000,1000000.0,1.0\n")
    (tmp_path / "two-fields.csv").write_text("n,R,abs_sum\n1,1.0,12.0\n2,1.4142135623730951\n")
    (tmp_path / "gap.csv").write_text("n,R,abs_sum\n1,1.0,12.0\n3,1.7320508075688772,84.0\n")
    (tmp_path / "n-0.csv").write_text("n,R,abs_sum\n0,0.0,0.0\n1,1.0,12.0\n")
    (tmp_path / "abs-sum-inf.csv").write_text("n,R,abs_sum\n1,1.0,12.0\n2,1.4142135623730951,inf\n")
    (tmp_path / "abs-sum-nan.csv").write_text("n,R,abs_sum\n1,1.0,nan\n")
    (tmp_path / "non-ascii.csv").write_text("n,R,abs_sum\n1,1.0,\u0661\u0662.0\n")
    (tmp_path / "series.csv").write_text("n,R,abs_sum\n" + "".join(
        f"{n},{math.sqrt(n)!r},{float(n)!r}\n" for n in range(1, 65)))  # a valid series
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert peak < 1 << 20  # refused before any large allocation


@pytest.mark.parametrize("argv", [("--help",), ("sum", "--help"), ("theta-check", "-h")])
def test_help_exits_0_with_its_text(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and out.startswith("usage: latharm") and err == ""


@pytest.mark.parametrize("argv, message", [
    (("theta-check", "--poly", "x^\u00b2"), "unexpected character '\u00b2' (at position 2)"),
    (("sum", "--poly", "\u00b2", "--r-sq", "2"), "unexpected character '\u00b2' (at position 0)"),
    (("pair", "--pair", "0,1", "--word", "A\u00b2"), "unexpected '\u00b2'"),
], ids=["theta-check", "sum", "pair"])
def test_non_ascii_digit_is_an_unexpected_character(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.rstrip().endswith(message)


# One small valid argv list or more per subcommand.  theta-check's --gamma
# path is left out: two of its inputs still end in a ValueError traceback.
FUZZ_BASES = [
    ["sum", "--poly", QUARTIC, "--r-sq", "50"],
    ["sum", "--poly", "1/3*x^2", "--r-sq", "10", "--json"],
    ["coeffs", "--poly", "x^2-y^2", "--n-max", "64", "--json"],
    ["shortsum", "--poly", "x^2-y^2", "--r", "5", "--h", "0.5"],
    ["longsum", "--poly", "1", "--r", "5", "--h", "0.5", "--json"],
    ["freqsum", "--poly", "x*y", "--r", "4", "--h", "0.5", "--n-trunc", "64"],
    ["expsum", "--poly", "x^2*y-z", "--r", "5", "--h=1/3,0,1/5", "--n", "16"],
    ["expsum", "--poly", "1", "--r", "50", "--n-list", "16,64", "--json"],
    ["pair", "--pair", "32/205,269/410", "--word", "BA2"],
    ["balance", "--long", "classic", "--short", "cusp", "--alpha-range=-1,0"],
    ["balance", "--long", "1,-1;", "--short", "2,1;3/2,1/2", "--json"],
    ["table", "--csv"],
    ["fit", "--poly", QUARTIC, "--r-max", "16", "--json"],
    ["theta-check", "--poly", QUARTIC, "--sample", "3", "--n-max", "256"],
    ["theta-check", "--poly", QUARTIC, "--sample", "3", "--n-max", "256", "--json"],
    ["gauss", "--d", "3", "--c", "4", "--xi", "2"],
]
# Whole-field replacements; none asks for more work than the field it replaces.
FUZZ_VALUES = ["", "nan", "inf", "-inf", "1e400", "-1", "0", "1/0", ",", ";", "9^99999",
               "x^99999", "1e100000000"]
NON_ASCII_DIGITS = "\u0663\u00b2\u0665\uff13\u09e9"


def _mutate(rng, text: str) -> str:
    kind = rng.randrange(7)
    if kind == 0:
        return rng.choice(FUZZ_VALUES)
    if kind == 1:  # deep nesting
        depth = rng.choice([99, 100, 101, 250])
        return "(" * depth + text + ")" * depth
    if kind == 2:  # a run of unary signs
        return rng.choice(["-", "+-"]) * rng.choice([1, 2, 250, 501]) + text
    if kind == 3:  # a character, or the end, becomes another script's digit
        at = rng.randrange(len(text) + 1)
        return text[:at] + rng.choice(NON_ASCII_DIGITS) + text[at + 1:]
    if kind == 4:  # a huge exponent
        return text + rng.choice(["^99999999", "e99999999", "^64"])
    if kind == 5:  # an empty field
        fields = text.split(",")
        fields[rng.randrange(len(fields))] = ""
        return ",".join(fields)
    return text[:rng.randrange(len(text) + 1)]  # cut short


def test_fuzzed_argv_exits_0_1_or_2(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a mutated output path would land here
    rng = random.Random(21)
    escaped = []
    for base in FUZZ_BASES:
        # the values, not the flags: the text after '=' in a --flag=value
        values = [i for i, a in enumerate(base) if i and (not a.startswith("--") or "=" in a)]
        for _ in range(100):
            argv = list(base)
            for i in rng.sample(values, min(len(values), rng.choice([1, 2]))):
                flag, eq, value = argv[i].rpartition("=")
                argv[i] = flag + eq + _mutate(rng, value)
            try:
                code = main(argv)
            except Exception as exc:  # any escape is the failure
                code = repr(exc)
            capsys.readouterr()
            # every field reads ASCII only: another script's digit is bad input
            if code not in ((0, 1, 2) if "".join(argv).isascii() else (2,)):
                escaped.append((argv, code))
    assert escaped == []


def test_freqsum_phase_refusal_prints_no_warning(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "freqsum", "--poly", QUARTIC, "--r", "1e75", "--h", "0.5",
                             "--n-trunc", "16")
    assert code == 2 and out == ""
    assert "2^32" in err
    assert caught == []


def test_theta_check_single(capsys):
    code, out, _ = run(capsys, "theta-check", "--gamma", "1,0,4,1", "--z", "0,0.5",
                       "--tol", "1e-8")
    assert code == 0
    assert "pass" in out


def test_theta_check_negative_first_component_needs_the_equals_form(capsys):
    # argparse reads "-0.25,0.5" after a space as an option, so a negative
    # first component of --z or --gamma is given as --z=-0.25,0.5
    code, out, _ = run(capsys, "theta-check", "--gamma=-1,0,0,-1", "--z=-0.25,0.5")
    assert code == 0 and "gamma=(-1, 0, 0, -1) z=-0.2500+0.5000i" in out and "pass" in out
    code, out, _ = run(capsys, "theta-check", "--gamma", "3,2,4,3", "--z=-0.25,0.5")
    assert code == 0 and "pass" in out
    code, _, err = run(capsys, "theta-check", "--gamma", "3,2,4,3", "--z", "-0.25,0.5")
    assert code == 2 and "expected one argument" in err


def test_theta_check_sampled_json(capsys):
    code, out, _ = run(capsys, "theta-check", "--sample", "3", "--seed", "5", "--json",
                       "--n-max", "2048")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        payload = json.loads(line)
        assert payload["pass"] is True
        assert payload["schema"] == 1


def _theta_reports(seed=None, sample=40, tol=1e-6, gamma=None, z=None):
    """What theta-check reports for the default polynomial and --n-max."""
    p = parse_poly(QUARTIC)
    ctx = modular.theta_context(p, modular.context_n_max(p, modular.DEFAULT_N_MAX, tol))
    if gamma is not None:
        return [modular.transformation_check(ctx, gamma, z, tol=tol)]
    return modular.sample_checks(ctx, sample, seed=seed, tol=tol)


def test_theta_check_prints_the_json_dumps_of_each_report(capsys):
    reports = _theta_reports(seed=7)
    code, out, err = run(capsys, "theta-check", "--sample", "40", "--seed", "7", "--json")
    assert (code, err) == (0, "")
    assert out == report_json_lines(reports)
    assert len(out.splitlines()) == 40
    code, out, err = run(capsys, "theta-check", "--sample", "40", "--seed", "7")
    assert (code, err) == (0, "")
    assert out == report_text_lines(reports)


def test_theta_check_gamma_prints_its_report(capsys):
    gamma, z = modular.GammaElement(3, 2, 4, 3), complex(-0.25, 0.5)
    reports = _theta_reports(gamma=gamma, z=z, tol=1e-8)
    code, out, _ = run(capsys, "theta-check", "--gamma", "3,2,4,3", "--z=-0.25,0.5",
                       "--tol", "1e-8", "--json")
    assert code == 0 and out == report_json_lines(reports)
    code, out, _ = run(capsys, "theta-check", "--gamma", "3,2,4,3", "--z=-0.25,0.5",
                       "--tol", "1e-8")
    assert code == 0 and out == report_text_lines(reports)


def test_theta_check_prints_every_line_before_it_fails(capsys):
    # at --tol 1e-300 only an exact match passes: every report is printed,
    # then exit 1
    reports = _theta_reports(seed=3, sample=30, tol=1e-300)
    assert sum(r.passed for r in reports) < 30
    code, out, err = run(capsys, "theta-check", "--sample", "30", "--seed", "3",
                         "--tol", "1e-300", "--json")
    assert code == 1 and "check failed" in err
    assert out == report_json_lines(reports)
    assert [json.loads(line)["pass"] for line in out.splitlines()] == [r.passed for r in reports]
    code, out, err = run(capsys, "theta-check", "--sample", "30", "--seed", "3",
                         "--tol", "1e-300")
    assert code == 1 and "check failed" in err
    assert out == report_text_lines(reports) and out.count("\n") == 30


def test_theta_check_does_not_import_numpy_random():
    # importing numpy.random alone adds about 6 MiB to a process's peak RSS
    src = Path(__file__).resolve().parent.parent / "src"
    script = ("import sys; from latharm.cli import main; "
              "code = main(['theta-check', '--sample', '20', '--json']); "
              "print(code, 'numpy.random' in sys.modules, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stderr.split() == ["0", "False"], done.stderr
    assert len(done.stdout.splitlines()) == 20


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_theta_ops_pass_its_oracle(capsys, seed):
    # the benchmark oracle wants exit 0 and one passing JSON line per sample
    # from every theta-check op of the checks workload
    ops = [op for op in _workloads().build("checks", seed) if op.command == "theta-check"]
    assert ops
    for op in ops:
        code, out, _ = run(capsys, *op.argv)
        assert code == 0, op.argv
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == op.params["sample"], op.argv
        assert all(rec["pass"] is True for rec in records), op.argv


def test_theta_check_impossible_tolerance_fails(capsys):
    code, _, err = run(capsys, "theta-check", "--gamma", "1,0,4,1", "--z", "0,0.5",
                       "--tol", "1e-18")
    assert code == 1
    assert "check failed" in err


def test_gauss_pass_and_value(capsys):
    code, out, _ = run(capsys, "gauss", "--d", "1", "--c", "4", "--xi", "2")
    assert code == 0
    assert "direct=2+2j" in out.replace(" ", "") or "2+2j" in out.replace(" ", "")


def test_gauss_near_the_cap_passes(capsys):
    code, out, _ = run(capsys, "gauss", "--d", "1136815", "--c", "999996", "--xi", "7")
    assert code == 0
    assert "S(xi=7)=" in out


def test_gauss_bad_inputs(capsys):
    code, _, err = run(capsys, "gauss", "--d", "2", "--c", "4")
    assert code == 2


def test_fit_subtracts_the_volume_term_of_any_degree(capsys):
    assert run(capsys, "fit", "--poly", "x^2", "--r-max", "16")[0] == 0
    # less its volume term, the sum of |x|^2 grows like R^2 times the
    # ball's lattice-point error, about R^(3/2)
    code, out, _ = run(capsys, "fit", "--poly", "x^2+y^2+z^2", "--r-max", "128", "--json")
    assert code == 0
    assert json.loads(out)["slope"] == pytest.approx(3.48, abs=0.01)


def test_fit_subtract_main_changes_nothing(capsys):
    plain = run(capsys, "fit", "--poly", "1", "--r-max", "32", "--json")
    assert plain[0] == 0
    assert plain == run(capsys, "fit", "--poly", "1", "--r-max", "32", "--json",
                        "--subtract-main")


@pytest.mark.parametrize("text", ["1", "x^2", "x^4+y^4+z^4"])
def test_headline_magnitudes_less_the_volume_term(text):
    # |ball sum - 4 pi a n^((nu+3)/2) / (nu+3)|, with a the sphere mean
    p = parse_poly(text)
    mags = _headline_magnitudes(p, 64)
    with mp.workdps(50):
        def exact(q: Fraction):
            return mp.mpf(q.numerator) / q.denominator

        for n in (100, 1000, 4096):
            main_term = (4 * mp.pi * exact(sphere_average(p))
                         * mp.mpf(n) ** (mp.mpf(p.degree + 3) / 2) / (p.degree + 3))
            want = abs(exact(lattice.ball_sum(p, n)) - main_term)
            assert abs(mags[n - 1] - want) <= 1e-12 * main_term


def test_volume_powers_are_the_c_librarys_pow():
    # `_headline_magnitudes` takes n^((nu+3)/2) from np.float_power, whose
    # bits must be Python's n**power (the C library's pow) for every even
    # degree up to the cap: every n to 2 10^4 and seeded n to 10^6.  A numpy
    # build that routes float_power to a SIMD pow fails here
    n = list(range(1, 20_001)) + random.Random(0).sample(range(20_001, 10**6 + 1), 20_000)
    floats = np.array(n, dtype=np.float64)
    for nu in range(0, DEGREE_CAP + 1, 2):
        power = (nu + 3) / 2
        found = np.float_power(floats, power)
        assert found.tolist() == [k**power for k in n], power


@pytest.mark.parametrize("text", ["1", "x^2+y^2+z^2", "(x^2+y^2+z^2)^3+x^6"])
def test_headline_magnitudes_equal_python_pow_rows(text):
    # the reference: the running sums less pi main_term(p, 1, 0) n**power,
    # one Python pow per shell
    p = parse_poly(text)
    denom, totals = lattice.shell_totals(p, 181 * 181)
    running = np.cumsum(np.array(totals.tolist(), dtype=object))[1:]
    coeff, power = math.pi * float(lattice.main_term(p, 1, 0)), (p.degree + 3) / 2
    want = [abs(float(Fraction(t, denom)) - coeff * n**power)
            for n, t in enumerate(running.tolist(), start=1)]
    assert _headline_magnitudes(p, 181).tolist() == want


@pytest.mark.parametrize("poly, message", [
    ("x^2", "theta context requires a harmonic homogeneous polynomial"),
    ("0", "theta context requires a nonzero polynomial")])
def test_refused_theta_polynomial_costs_no_float_work(capsys, monkeypatch, poly, message):
    # P is checked before `context_n_max` bounds the tail: no term count runs
    calls = []
    monkeypatch.setattr(modular.ThetaContext, "term_counts",
                        lambda *args: calls.append(args) or pytest.fail("tail bound ran"))
    assert run(capsys, "theta-check", "--poly", poly) == (2, "", f"error: {message}\n")
    assert calls == []


class _Discard:
    """A stdout that keeps nothing, so that only the program's own memory
    is traced."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


# Peak traced memory of `coeffs --csv -` at 2^15 shells through `main`, its
# output discarded (one call after a warm-up).  The CSV text is 505 KiB
# (quartic) and 623 KiB (sextic).  Measured 1447 and 1715 KiB; 1951 and
# 2337 KiB when each block of rows took its own row matrix, the blocks were
# joined as bytes, decoded and then prefixed with the header
CSV_PEAK_KIB = {QUARTIC: 1664, SEXTIC_EXPR: 2048}


@pytest.mark.parametrize("poly", list(CSV_PEAK_KIB), ids=["quartic", "sextic"])
def test_coeffs_csv_transient_memory_is_bounded(poly):
    argv = ["coeffs", "--poly", poly, "--n-max", str(1 << 15), "--csv", "-"]
    with contextlib.redirect_stdout(_Discard()):
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < CSV_PEAK_KIB[poly] << 10


def test_fit_degenerate_series(capsys):
    code, _, err = run(capsys, "fit", "--poly", "x*y", "--r-max", "16")
    assert code == 1
    assert "degenerate series" in err


def test_fit_quartic_and_csv_roundtrip(capsys, tmp_path):
    target = tmp_path / "series.csv"
    code, out, _ = run(capsys, "fit", "--poly", "5*(x^4+y^4+z^4)-3*(x^2+y^2+z^2)^2",
                       "--r-max", "64", "--csv", str(target), "--json")
    assert code == 0
    assert out == (
        '{"schema": 1, "slope": 5.260667261761708, "intercept": 1.0637808099181587, '
        '"r_squared": 0.9999669446563697, "points_used": 6}\n'
    )
    direct = json.loads(out)
    code, out, _ = run(capsys, "fit", "--from-csv", str(target), "--json")
    assert code == 0
    refit = json.loads(out)
    assert refit == direct  # byte-identical fit after re-ingesting the series


def test_fit_from_csv_refuses_cut_rows(capsys, tmp_path):
    # every other row of a quartic series cut to two fields: once read as |sum| = 0
    target = tmp_path / "series.csv"
    assert run(capsys, "fit", "--poly", QUARTIC, "--r-max", "16", "--csv", str(target))[0] == 0
    lines = target.read_text().splitlines()
    cut = [line.rsplit(",", 1)[0] if i % 2 == 0 else line
           for i, line in enumerate(lines) if i > 0]
    target.write_text("\n".join(lines[:1] + cut) + "\n")
    code, out, err = run(capsys, "fit", "--from-csv", str(target))
    assert (code, out) == (2, "")
    assert "series line 3:" in err and "n = 2" in err


def test_fit_from_csv_refuses_rows_past_the_shell_cap(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(lattice, "N_MAX_CAP", 3)
    target = tmp_path / "series.csv"
    target.write_text("n,R,abs_sum\n" + "".join(f"{n},{n},1.0\n" for n in range(1, 5)))
    code, out, err = run(capsys, "fit", "--from-csv", str(target))
    assert (code, out) == (2, "")
    assert "shell count 4 outside 0..3" in err


def test_fit_subtract_main_mode(capsys):
    code, out, _ = run(capsys, "fit", "--poly", "1", "--r-max", "32",
                       "--subtract-main", "--json")
    assert code == 0
    payload = json.loads(out)
    assert 0.5 < payload["slope"] < 2.5  # classical error growth, wide bound


def test_usage_error_on_unknown_command(capsys):
    assert main(["frobnicate"]) == 2
