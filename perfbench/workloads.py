"""Seeded operation lists for the three benchmark workloads.

Each workload is a list of `Op`s; the program sees only `Op.argv`.  The
oracle reads `Op.params`, which restate the generated inputs
in a form it can check against.

All three workloads walk fixed size ladders; the seed draws everything
else (the spot-checked n of the exact workload, R, H, h, d, xi, the sample
points, the choices of the checks workload, and the order of the ops).  So
the pass cost, the latency quantiles and the memory peak, such as the dense
frequency grid at the top of the n_trunc ladder, do not depend on the seed,
and the run-to-run spread of the end-to-end metrics stays small.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

POLYS = {
    "one": "1",
    "quartic": "5*(x^4+y^4+z^4)-3*(x^2+y^2+z^2)^2",
    # zonal degree-6 solid harmonic, as in the repository's test fixtures
    "sextic": "231*z^6-315*z^4*(x^2+y^2+z^2)+105*z^2*(x^2+y^2+z^2)^2"
    "-5*(x^2+y^2+z^2)^3",
    "octic": "x^8-28*x^6*y^2+70*x^4*y^4-28*x^2*y^6+y^8",
}

# Sizes of the exact workload live on a grid of 1/8 octave so that the
# stored references cover every size the generator can produce.
GRID_STEPS = 8

# Size ladders of the exact workload, as grid exponents e with size
# round(2^(e/8)): series from 2^12 to 2^15 shells, fit r_max 2^6 to 2^7.5.
# The octic leaves the certified int64 bound at 2^14 (e = 112), so its top
# series rung (2^14.125) runs the big-int path; degree <= 6 stays on the
# int64 path.
SERIES_LADDER = {"one": [96, 104, 112, 120], "quartic": [96, 104, 112, 120],
                 "sextic": [96, 104, 112, 120], "octic": [96, 113]}
FIT_LADDER = {"one": [48, 60], "quartic": [48, 60], "sextic": [48, 60], "octic": [54]}
# The exact (35 ops) and checks (65 ops) lists have an op count N with
# 0.5 N and 0.9 N half-way between integers, so that over the pooled passes
# op_p50_ms and op_p90_ms fall in the middle of one op's samples, not on
# the edge between a fast op and a slow one, where they jump with noise.

NAMED_LONG = ["vdc", "classic", "huxley", "huxley-ba2", "lindelof"]
SHORT_MODELS = ["trivial", "CI", "HB", "cusp", "GLH", "RC"]
PAIRS = ["0,1", "1/2,1/2", "9/56,37/56", "32/205,269/410", "0,1/2"]
WORDS = ["", "A", "B", "AB", "BA", "BA2", "A2B", "BAB"]

COMMANDS = ["coeffs", "sum", "fit", "freqsum", "expsum", "longsum", "shortsum",
            "theta-check", "gauss", "table", "balance", "pair"]


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def command(self) -> str:
        return self.argv[0]


def grid_size(e: int) -> int:
    return round(2 ** (e / GRID_STEPS))


def _log_pair(rng: random.Random, lo: float, hi: float) -> tuple[float, float]:
    u = rng.random()
    span = math.log(hi / lo)
    return lo * math.exp(u * span), lo * math.exp((1 - u) * span)


def _fmt(x: float) -> str:
    return repr(round(x, 4))


def _h_unit(rng: random.Random) -> float:
    return rng.randint(1, 10000) / 10000  # H in (0, 1]


def _sizes(ladder: list[int], smoke: bool) -> list[int]:
    """Grid sizes of a ladder; smoke mode takes the smallest only."""
    return [grid_size(e) for e in (ladder[:1] if smoke else ladder)]


def exact_series(rng: random.Random, smoke: bool) -> list[Op]:
    ops: list[Op] = []
    for name, expr in POLYS.items():
        for n in _sizes(SERIES_LADDER[name], smoke):
            spots = sorted(rng.sample(range(1, n + 1), 3))
            argv = ("coeffs", "--poly", expr, "--n-max", str(n), "--csv", "-")
            ops.append(Op(argv, {"poly": name, "n": n, "spots": spots}))
        for n in _sizes(SERIES_LADDER[name], smoke):
            argv = ("sum", "--poly", expr, "--r-sq", str(n), "--json")
            ops.append(Op(argv, {"poly": name, "n": n}))
        for r in _sizes(FIT_LADDER[name], smoke):
            argv = ("fit", "--poly", expr, "--r-max", str(r), "--json")
            if name == "one":
                argv += ("--subtract-main",)
            ops.append(Op(argv, {"poly": name, "r": r}))
    return ops


def _rational_h(rng: random.Random) -> str:
    parts = []
    for _ in range(3):
        q = rng.randint(2, 12)
        parts.append(f"{rng.randint(-q + 1, q - 1)}/{q}")
    if all(p.startswith("0/") for p in parts):
        parts[0] = f"1/{rng.randint(2, 12)}"
    return ",".join(parts)


# Size ladders of the smoothing workload.
FREQ_LADDER = {"one": [256, 512, 1024, 2048], "quartic": [256, 512, 1024], "sextic": [256, 384]}
# (poly, N ladder, offset h != 0, sweep over N/4^j)
EXP_LADDERS = [
    ("one", [4096, 16384], False, True),
    ("one", [1024, 4096], True, True),
    ("quartic", [1024, 4096], False, False),
    ("sextic", [256, 1024], True, False),
]


def smoothing(rng: random.Random, smoke: bool) -> list[Op]:
    ops: list[Op] = []
    for name, ladder in FREQ_LADDER.items():
        for nt in ladder[:1] if smoke else ladder:
            r, h = 5 * 8 ** rng.random(), _h_unit(rng)
            argv = ("freqsum", "--poly", POLYS[name], "--r", _fmt(r), "--h", _fmt(h),
                    "--n-trunc", str(nt), "--json")
            ops.append(Op(argv, {"poly": name}))
    for name, ladder, offset, sweep in EXP_LADDERS:
        for n_top in [n // 16 for n in ladder[:1]] if smoke else ladder:
            argv = ("expsum", "--poly", POLYS[name], "--r", _fmt(10 * 100 ** rng.random()))
            if offset:  # "--h=" form: a leading minus would read as a flag
                argv += ("--h=" + _rational_h(rng),)
            if sweep:
                n_list = sorted({max(1, n_top >> (2 * j)) for j in range(5)})
                argv += ("--n-list", ",".join(map(str, n_list)), "--json")
            else:
                argv += ("--n", str(n_top), "--json")
            ops.append(Op(argv, {"poly": name}))
    for name in ("one", "quartic", "sextic"):
        for cmd in ("longsum", "shortsum"):
            for r in ((5.0,) if smoke else _log_pair(rng, 5, 40)):
                argv = (cmd, "--poly", POLYS[name], "--r", _fmt(r), "--h",
                        _fmt(_h_unit(rng)), "--json")
                ops.append(Op(argv, {"poly": name}))
    return ops


def _gauss_op(rng: random.Random, c_abs: int) -> Op:
    c = c_abs if rng.random() < 0.5 else -c_abs
    while True:
        d = rng.randrange(1, 4 * c_abs, 2) * rng.choice((1, -1))
        if math.gcd(c, d) == 1:
            break
    argv = ("gauss", "--d", str(d), "--c", str(c), "--xi", str(rng.randint(-50, 50)))
    return Op(argv, {})


# Size ladders of the checks workload: (samples, n_max) per theta polynomial
# and |c| of the Gauss sums, half an octave apart from 4 up to about 2e4.
THETA_LADDER = [(20, 1024), (50, 2048), (120, 4096), (300, 2048)]
GAUSS_LADDER = [4 * round(2 ** (k / 2) / 4) for k in range(4, 29)] + [20000]


def checks(rng: random.Random, smoke: bool) -> list[Op]:
    ops: list[Op] = []
    # degree 2 and odd degrees are left out: their theta series vanish, so
    # the check is inconclusive by design and exits 1
    for name in ("quartic", "sextic", "octic"):
        for k, n_max in THETA_LADDER[:1] if smoke else THETA_LADDER:
            argv = ("theta-check", "--poly", POLYS[name], "--sample", str(k),
                    "--seed", str(rng.randint(0, 10**6)), "--n-max", str(n_max), "--json")
            ops.append(Op(argv, {"sample": k}))
    for c_abs in GAUSS_LADDER[:2] if smoke else GAUSS_LADDER:
        ops.append(_gauss_op(rng, c_abs))
    for i in range(1 if smoke else 4):
        argv = ("table",) if i % 2 == 0 else ("table", "--csv")
        ops.append(Op(argv, {}))
    for _ in range(2 if smoke else 12):
        argv = ("balance", "--long", rng.choice(NAMED_LONG), "--short", rng.choice(SHORT_MODELS))
        if rng.random() < 0.5:
            argv += ("--json",)
        ops.append(Op(argv, {}))
    for _ in range(2 if smoke else 11):
        argv = ("pair", "--pair", rng.choice(PAIRS))
        word = rng.choice(WORDS)
        if word:
            argv += ("--word", word)
        ops.append(Op(argv, {}))
    return ops


WORKLOADS = {"exact_series": exact_series, "smoothing": smoothing, "checks": checks}


def build(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The op list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng, smoke)
    rng.shuffle(ops)
    return ops
