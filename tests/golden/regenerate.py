"""Regenerate cli_digests.json: the exit code and the sha256 of stdout and
of stderr of `latharm.cli.main` on a fixed argv list.

    python tests/golden/regenerate.py

The tests compare each argv's output against the stored digests, so a
change that alters an output on purpose reruns this script and commits the
new file.  `freqsum`, `expsum`, `theta-check` and `gauss` appear only with
refusals that exit 2 before any numpy trig or exp kernel runs: those
kernels may round differently on another CPU, so their other bytes are not
pinned.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

QUARTIC = "5*(x^4+y^4+z^4)-3*(x^2+y^2+z^2)^2"
SEXTIC = "231*z^6-315*z^4*(x^2+y^2+z^2)+105*z^2*(x^2+y^2+z^2)^2-5*(x^2+y^2+z^2)^3"
OCTIC = "x^8-28*x^6*y^2+70*x^4*y^4-28*x^2*y^6+y^8"
# tests/test_lattice.py's MIXED_Z, not homogeneous, so the CLI refuses it;
# MIXED_Z12 is a homogeneous cousin: z exponents 0, 2 and 4 and a negative
# coefficient past 2^64
MIXED_Z = "-3*x^6-(2^65+7)*x^4*y^2+11*x^2*y^2*z^2-x^4*y^2*z^2+5*x^4*y^4*z^4"
MIXED_Z12 = "-3*x^12-(2^65+7)*x^8*y^4+11*x^6*y^4*z^2-x^4*y^6*z^2+5*x^4*y^4*z^4"
# z exponents with a gap or without 0: 2 alone, 4 alone, 0 and 4, 12 alone
GAPS = ["x^2*y^2*z^2", "x^4*y^4*z^4", "x^4*y^4*z^4+x^6*y^6", "x^12*y^12*z^12"]

ARGVS = [
    *(["coeffs", "--poly", p, "--n-max", "4096", "--csv", "-"] for p in ("1", QUARTIC, OCTIC)),
    ["coeffs", "--poly", SEXTIC, "--n-max", "4096", "--json"],
    ["coeffs", "--poly", OCTIC, "--n-max", "17867", "--csv", "-"],
    ["coeffs", "--poly", SEXTIC, "--n-max", "32768", "--csv", "-"],
    ["coeffs", "--poly", "x^64", "--n-max", "512", "--csv", "-"],
    ["coeffs", "--poly", "1/3*x^2-1/7*y^2", "--n-max", "300", "--csv", "-"],
    ["coeffs", "--poly", "1/3*x^2-1/7*y^2", "--n-max", "300", "--json"],
    ["coeffs", f"--poly={MIXED_Z12}", "--n-max", "1000", "--csv", "-"],
    ["coeffs", f"--poly={MIXED_Z}", "--n-max", "300", "--csv", "-"],
    *(["coeffs", "--poly", p, "--n-max", "1000", "--csv", "-"] for p in GAPS[:3]),
    ["coeffs", "--poly", GAPS[3], "--n-max", "512", "--json"],
    ["coeffs", "--poly", "x^2", "--n-max", "0", "--csv", "-"],
    ["sum", "--poly", QUARTIC, "--r-sq", "1000000", "--json"],
    ["sum", "--poly", OCTIC, "--r-sq", "30000"],
    ["sum", "--poly", "1/3*x^2-1/7*y^2", "--r-sq", "1000"],
    ["sum", "--poly", "x^64", "--r-sq", "512", "--json"],
    ["sum", f"--poly={MIXED_Z12}", "--r-sq", "3000", "--json"],
    *(["sum", "--poly", p, "--r-sq", "5000"] for p in GAPS),
    ["sum", "--poly", "2^20000*x^2", "--r-sq", "2", "--json"],
    ["sum", "--poly", "x^", "--r-sq", "4"],
    ["sum", "--poly", "1", "--r-sq", "4", "--bogus"],
    ["fit", "--poly", QUARTIC, "--r-max", "64"],
    ["fit", "--poly", SEXTIC, "--r-max", "48", "--json"],
    ["fit", "--poly", "1", "--r-max", "32"],
    ["fit", "--poly", OCTIC, "--r-max", "128", "--json"],
    ["fit", "--poly", GAPS[2], "--r-max", "32", "--json"],
    ["fit", "--poly", "x^3", "--r-max", "16"],
    ["longsum", "--poly", QUARTIC, "--r", "30.5", "--h", "0.5"],
    ["longsum", "--poly", SEXTIC, "--r", "25", "--h", "0.25", "--json"],
    ["longsum", "--poly", GAPS[1], "--r", "20.25", "--h", "1", "--json"],
    ["longsum", "--poly", "1", "--r", "nan", "--h", "0.5"],
    ["shortsum", "--poly", QUARTIC, "--r", "30.5", "--h", "0.5", "--json"],
    ["shortsum", "--poly", "1/3*x^2-1/7*y^2", "--r", "12", "--h", "0.7"],
    ["shortsum", "--poly", GAPS[0], "--r", "20", "--h", "0.7", "--json"],
    ["shortsum", "--poly", "1", "--r", "0.5", "--h", "0.5"],
    ["table"],
    ["table", "--csv"],
    ["balance", "--long", "lindelof", "--short", "cusp"],
    ["balance", "--long", "huxley", "--short", "HB", "--json"],
    ["balance", "--long", "1/2,1/4;1/3,1/3", "--short", "1/4,1/8", "--alpha-range", "0,1"],
    ["balance", "--long", "vdc", "--short", "lindelof"],
    ["pair", "--pair", "32/205,269/410", "--word", "BA2"],
    ["pair", "--pair", "1/2,1/2", "--word", "AB", "--no-eps"],
    ["pair", "--pair", "0,1", "--word", "BAB"],
    ["pair", "--pair", "2,1", "--word", "A"],
    # theta-check refuses, one argv per input check (--n-max 16 and 1 keep
    # context_n_max from running its exp kernel)
    ["theta-check", "--tol", "0"],
    ["theta-check", "--sample", "0"],
    ["theta-check", "--z", "0,0.5"],
    ["theta-check", "--gamma", "1,0,4,1", "--z", "0,0.5", "--seed", "1"],
    ["theta-check", "--gamma", "1,0,4,1", "--z", "0,0.5", "--sample", "3"],
    ["theta-check", "--gamma", "1,0,4", "--z", "0,0.5"],
    ["theta-check", "--gamma", "1,0,4,1"],
    ["theta-check", "--gamma", "1,0,4,1", "--z", "0,inf"],
    ["theta-check", "--gamma", "2,0,4,1", "--z", "0,0.5"],
    ["theta-check", "--gamma", "1,0,1,1", "--z", "0,0.5"],
    ["theta-check", "--n-max", "0"],
    ["theta-check", "--n-max", "1000001"],
    # the first draw of seed 2 has c = 0, so its Im z takes no complex division
    ["theta-check", "--n-max", "1", "--sample", "1", "--seed", "2"],
    ["theta-check", "--poly", "2^2000*(x^2-y^2)"],
    ["theta-check", "--poly", "x^2", "--n-max", "16"],
    ["theta-check", "--poly", "x^2+y", "--n-max", "16"],
    ["freqsum", "--poly", "1", "--r", "10", "--h", "0.5", "--n-trunc", "0"],
    ["freqsum", "--poly", "x^2+y", "--r", "10", "--h", "0.5", "--n-trunc", "64"],
    ["expsum", "--poly", "1", "--r", "10", "--n", "0"],
    ["expsum", "--poly", "1", "--r", "10"],
    ["gauss", "--d", "1", "--c", "999999"],
    ["gauss", "--d", "2", "--c", "8"],
]


def digest(argv: list[str]) -> dict:
    """argv with the exit code and the sha256 of stdout and of stderr of
    `main(argv)`."""
    from latharm.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "code": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


if __name__ == "__main__":
    rows = [digest(argv) for argv in ARGVS]
    (HERE / "cli_digests.json").write_text(json.dumps(rows, indent=1) + "\n")
    print(f"{len(rows)} argvs, exit codes {sorted({r['code'] for r in rows})}")
