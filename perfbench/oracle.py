"""Correctness oracle: every output the benchmark times is checked here.

Exact outputs (coeffs, sum, fit, table, balance, pair) are compared with
references stored in refs/, made by make_refs.py.  The stored coefficient
digests are themselves spot-checked against a brute-force sum over
`lattice.representations`.  Float outputs (longsum, shortsum, freqsum,
expsum) are recomputed here by independent routes: brute-force lattice
enumeration with numpy, or, for freqsum, summation shell by shell of the
stored symbolic Fourier terms.  Tolerances scale with the sum of the
absolute values of the summands (for expsum: with the printed bound), so a
reordered summation passes and a wrong value fails.

References are computed in `prepare`, before the timed region; `check`
only compares.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import numpy as np

import workloads as wl
from common import BENCH_DIR

REL_FLOAT = 1e-10  # share of sum |summand| allowed for freqsum
REL_PHYSICAL = 1e-11  # same for the physical long/short sums
REL_BOUND = 1e-7  # share of the printed bound allowed for expsum
REL_FIT = 1e-9


def poly_fn(expr: str):
    """The polynomial as a Python function of x, y, z, evaluated as written."""
    code = compile(expr.replace("^", "**"), "<poly>", "eval")
    return lambda x, y, z: eval(code, {}, {"x": x, "y": y, "z": z}) + 0 * x


def _slabs(n_max: int):
    """(x, y, z, |.|^2) arrays, one x-slab at a time, for 0 < |.|^2 <= n_max."""
    k = math.isqrt(n_max)
    ax = np.arange(-k, k + 1)
    yy, zz = np.meshgrid(ax, ax, indexing="ij")
    yz = yy * yy + zz * zz
    for x in range(-k, k + 1):
        nsq = x * x + yz
        mask = (nsq <= n_max) & (nsq > 0)
        ym, zm = yy[mask], zz[mask]
        yield np.full(ym.shape, x, dtype=np.int64), ym, zm, nsq[mask]


def _argv_value(argv, flag):
    for i, arg in enumerate(argv):
        if arg == flag:
            return argv[i + 1]
        if arg.startswith(flag + "="):
            return arg[len(flag) + 1:]
    return None


def _close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


class Oracle:
    def __init__(self, refs_dir=BENCH_DIR / "refs"):
        self.exact = json.loads((refs_dir / "exact.json").read_text())
        self.fourier = json.loads((refs_dir / "fourier.json").read_text())
        self.text = json.loads((refs_dir / "text.json").read_text())
        self.fns = {name: poly_fn(expr) for name, expr in wl.POLYS.items()}
        self._refs: dict[tuple, object] = {}
        self._spot_ok: set[tuple] = set()

    # -- references ---------------------------------------------------------

    def prepare(self, op: wl.Op) -> None:
        if op.argv not in self._refs:
            self._refs[op.argv] = getattr(self, "_ref_" + op.command.replace("-", "_"))(op)

    def _ref_coeffs(self, op):
        return self.exact["coeffs"][op.params["poly"]][str(op.params["n"])]

    def _ref_sum(self, op):
        return self.exact["sum"][op.params["poly"]][str(op.params["n"])]

    def _ref_fit(self, op):
        return self.exact["fit"][op.params["poly"]][str(op.params["r"])]

    def _ref_text(self, op):
        return self.text[" ".join(op.argv)]

    _ref_table = _ref_balance = _ref_pair = _ref_text

    def _no_ref(self, op):
        return None  # checked by exit code and shape only

    _ref_theta_check = _ref_gauss = _no_ref

    def _window(self, op):
        r = float(_argv_value(op.argv, "--r"))
        h = float(_argv_value(op.argv, "--h"))
        r_sq, top_sq = Fraction(r) ** 2, Fraction(r + h) ** 2
        return r, h, r_sq, top_sq

    def _physical(self, op, short: bool):
        """Brute-force weighted sum over lattice points, and its point count."""
        fn = self.fns[op.params["poly"]]
        r, h, r_sq, top_sq = self._window(op)
        lo, hi = math.ceil(r_sq), math.floor(top_sq)
        if short and lo > hi:
            return 0.0, 0.0, 0
        first = max(lo, 1) if short else 1
        last = hi if short else max(hi, 1)
        terms, count = [], 0
        for x, y, z, nsq in _slabs(last):
            keep = nsq >= first
            x, y, z, nsq = x[keep], y[keep], z[keep], nsq[keep]
            count += nsq.size
            root = np.sqrt(nsq.astype(np.float64))
            # f(t)/t: 1 inside R, a linear ramp R(R+H-t)/(H t) up to R+H
            weight = np.where(nsq <= float(r_sq), 1.0,
                              np.clip(r * (r + h - root) / (h * root), 0.0, None))
            terms.append(fn(x, y, z).astype(np.float64) * weight)
        vals = np.concatenate(terms) if terms else np.zeros(0)
        origin = 0.0 if short else float(fn(0, 0, 0))
        value = math.fsum(vals) + origin
        scale = math.fsum(np.abs(vals)) + abs(origin)
        return value, scale, count + (0 if short else 1)

    def _ref_longsum(self, op):
        return self._physical(op, short=False)

    def _ref_shortsum(self, op):
        return self._physical(op, short=True)

    def _ref_freqsum(self, op):
        ref = self.fourier[op.params["poly"]]
        r = float(_argv_value(op.argv, "--r"))
        h = float(_argv_value(op.argv, "--h"))
        n_trunc = int(_argv_value(op.argv, "--n-trunc"))
        terms = ref["terms"]
        shell = np.zeros((len(terms), n_trunc + 1))
        shell_abs = np.zeros((len(terms), n_trunc + 1))
        for x, y, z, nsq in _slabs(n_trunc):
            xf, yf, zf = (a.astype(np.float64) for a in (x, y, z))
            for idx, t in enumerate(terms):
                q = sum(float(Fraction(c)) * xf**i * yf**j * zf**k for i, j, k, c in t["poly"])
                shell[idx] += np.bincount(nsq, weights=q, minlength=n_trunc + 1)
                shell_abs[idx] += np.bincount(nsq, weights=np.abs(q), minlength=n_trunc + 1)
        root = np.sqrt(np.arange(1, n_trunc + 1, dtype=np.float64))
        scales = {"2R": 2 * r, "H": h, "2R+H": 2 * r + h}
        parts, mags = [], []
        for idx, t in enumerate(terms):
            pref = math.pi ** t["pi"] * r ** t["r"] * h ** t["h"] * (2 * r + h) ** t["mix"]
            radial = pref / root ** t["denom"]
            for freq, shift in t["trig"]:
                radial = radial * np.sin(np.pi * (scales[freq] * root + shift / 2.0))
            parts.append(shell[idx, 1:] * radial)
            mags.append(shell_abs[idx, 1:] * np.abs(pref) / root ** t["denom"])
        tail = 0.0 if ref["imaginary"] else math.fsum(np.concatenate(parts))
        main = self._main_term(ref, Fraction(r), Fraction(h))
        return main + tail, abs(main) + math.fsum(np.concatenate(mags))

    @staticmethod
    def _main_term(ref, r: Fraction, h: Fraction) -> float:
        """pi times the integral of P(x) f(|x|)/|x| over R^3."""
        avg = Fraction(ref["sphere_average"])
        if not avg:
            return 0.0
        nu, top = ref["nu"], r + h
        inner = r ** (nu + 3) / (nu + 3)
        ramp = (r / h) * (top * (top ** (nu + 2) - r ** (nu + 2)) / (nu + 2)
                          - (top ** (nu + 3) - r ** (nu + 3)) / (nu + 3))
        return float(4 * avg * (inner + ramp)) * math.pi

    def _ref_expsum(self, op):
        """Shell sums of Q(xi) e(R|xi| + h.xi) up to the largest N, by enumeration."""
        argv = op.argv
        fn = self.fns[op.params["poly"]]
        r = float(_argv_value(argv, "--r"))
        h_text = _argv_value(argv, "--h")
        h = [float(Fraction(s)) for s in h_text.split(",")] if h_text else [0.0] * 3
        n_list = ([int(s) for s in _argv_value(argv, "--n-list").split(",")]
                  if _argv_value(argv, "--n-list") else [int(_argv_value(argv, "--n"))])
        n_top = max(n_list)
        shell = np.zeros(n_top + 1, dtype=np.complex128)
        shell[0] = float(fn(0, 0, 0))
        for x, y, z, nsq in _slabs(n_top):
            phase = r * np.sqrt(nsq.astype(np.float64)) + h[0] * x + h[1] * y + h[2] * z
            vals = fn(x, y, z).astype(np.float64) * np.exp(2j * np.pi * phase)
            shell += np.bincount(nsq, weights=vals.real, minlength=n_top + 1)
            shell += 1j * np.bincount(nsq, weights=vals.imag, minlength=n_top + 1)
        cum = np.cumsum(shell)
        nu = {"one": 0, "quartic": 4, "sextic": 6, "octic": 8}[op.params["poly"]]
        return {n: (complex(cum[n]), self.bound(n, nu, r)) for n in n_list}

    @staticmethod
    def bound(n: int, nu: int, r: float) -> float:
        return n ** (nu / 2) * min(n**1.5, n**1.25 + n ** (15 / 14) * r ** (3 / 14))

    # -- checks -------------------------------------------------------------

    def check(self, op: wl.Op, rc, out: str, exc: str | None) -> str | None:
        """None when the output is correct, else a one-line reason."""
        if exc is not None:
            return f"exception {exc}"
        if rc != 0:
            return f"exit code {rc}"
        self.prepare(op)
        try:
            return getattr(self, "_check_" + op.command.replace("-", "_"))(
                op, out, self._refs[op.argv])
        except (ValueError, KeyError, IndexError, TypeError) as e:
            return f"unparsable output ({type(e).__name__}: {e})"

    def _check_coeffs(self, op, out, ref):
        if hashlib.sha256(out.encode()).hexdigest() != ref:
            return "coefficients differ from the stored reference"
        if op.argv not in self._spot_ok:
            from latharm.lattice import representations

            fn = self.fns[op.params["poly"]]
            lines = out.split("\n")
            for n in op.params["spots"]:
                got = Fraction(lines[n].split(",")[1])
                want = sum(fn(*pt) for pt in representations(n))
                if got != want:
                    return f"a_{n} = {got}, brute force gives {want}"
            self._spot_ok.add(op.argv)
        return None

    def _check_sum(self, op, out, ref):
        rec = json.loads(out)
        if rec["value"] != ref["value"] or rec["term_count"] != ref["term_count"]:
            return f"ball sum {rec['value']} ({rec['term_count']} points) != {ref}"
        return None

    def _check_fit(self, op, out, ref):
        rec = json.loads(out)
        if rec["points_used"] != ref["points_used"]:
            return "fit used a different number of points"
        for key in ("slope", "intercept", "r_squared"):
            if not _close(rec[key], ref[key], REL_FIT * max(1.0, abs(ref[key]))):
                return f"fit {key} {rec[key]!r} != {ref[key]!r}"
        return None

    def _check_text(self, op, out, ref):
        return None if out == ref else "output text differs from the stored reference"

    _check_table = _check_balance = _check_pair = _check_text

    def _check_physical(self, op, out, ref):
        value, scale, count = ref
        rec = json.loads(out)
        if rec["term_count"] != count:
            return f"term_count {rec['term_count']} != {count}"
        if not _close(rec["value"], value, REL_PHYSICAL * scale + 1e-12):
            return f"value {rec['value']!r} != {value!r} (scale {scale:.3e})"
        return None

    _check_longsum = _check_shortsum = _check_physical

    def _check_freqsum(self, op, out, ref):
        value, scale = ref
        got = json.loads(out)["value"]
        if not _close(got, value, REL_FLOAT * scale + 1e-12):
            return f"value {got!r} != {value!r} (scale {scale:.3e})"
        return None

    def _check_expsum(self, op, out, ref):
        rec = json.loads(out)
        if "rows" in rec:
            rows = [(row["N"], row["abs_V"], row["bound"]) for row in rec["rows"]]
        else:
            rows = [(rec["N"], abs(complex(rec["value_re"], rec["value_im"])), rec["bound"])]
            value, _ = ref[rec["N"]]
            if not _close(abs(complex(rec["value_re"], rec["value_im"]) - value), 0.0,
                          REL_BOUND * rec["bound"]):
                return f"V_N {rec['value_re']!r}{rec['value_im']:+}i != {value!r}"
        if [n for n, _, _ in rows] != sorted(ref):
            return "rows cover other N than requested"
        for n, abs_v, bound in rows:
            value, want_bound = ref[n]
            if not _close(bound, want_bound, 1e-12 * want_bound):
                return f"bound at N={n} is {bound!r}, expected {want_bound!r}"
            if not _close(abs_v, abs(value), REL_BOUND * want_bound):
                return f"|V_{n}| {abs_v!r} != {abs(value)!r}"
        return None

    def _check_theta_check(self, op, out, ref):
        recs = [json.loads(line) for line in out.splitlines()]
        if len(recs) != op.params["sample"] or not all(rec["pass"] for rec in recs):
            return "theta check reported fewer passing samples than requested"
        return None

    def _check_gauss(self, op, out, ref):
        return None if out.startswith("direct=") else "gauss printed no result"
