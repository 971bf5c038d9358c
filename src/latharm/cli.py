"""Command-line front end: exact sums, sweeps, fits and check reports.

Exit codes: 0 on success, 1 when a requested check fails, 2 on usage or
parse errors, which `build_parser` maps for every command (see its `add`).
Exact quantities are printed as rationals p/q, never decimals.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import exppairs, lattice, modular, oscsum
from .poly import Polynomial3, parse_poly
from .util import FitResult

SCHEMA = 1


class CheckFailed(Exception):
    """A requested verification did not pass (exit code 1)."""


class UsageError(Exception):
    """Bad flags or unparsable input (exit code 2)."""


def _poly_arg(text: str) -> Polynomial3:
    try:
        return parse_poly(text)
    except ValueError as exc:  # PolyParseError, DegreeCapError, the int digit limit
        raise UsageError(f"bad polynomial: {exc}")


def _ascii(cast):
    """`cast` (int or float) on ASCII text only, as an argparse type and for
    split lists: both casts also read other scripts' digits as 0-9."""

    def read(text: str):
        if not text.isascii():
            raise UsageError(f"numbers take ASCII digits only, got {text!r}")
        return cast(text)

    read.__name__ = cast.__name__  # argparse names the type in its messages
    return read


_int, _float = _ascii(int), _ascii(float)


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_out(payload: dict) -> None:
    print(json.dumps({"schema": SCHEMA, **payload}))


# theta-check's report lines.  A JSON line has json.dumps's bytes for {"schema": SCHEMA,
# **report}: numbers by repr (nan, inf respelt NaN, Infinity), booleans true/false.
_REPORT_JSON = ('{"schema": %d, "gamma": [%%d, %%d, %%d, %%d], "z": [%%r, %%r], "lhs": [%%r, %%r], '
                '"rhs": [%%r, %%r], "rel_err": %%r, "pass": %%s, "inconclusive": %%s}\n' % SCHEMA)
_REPORT_TEXT = "gamma=%s z=%+.4f%+.4fi rel_err=%.3e %s\n"
_JSON_BOOL = ("false", "true")


def _report_lines(reports: list[modular.TransformReport], as_json: bool) -> str:
    """The lines `theta-check` prints for its reports, joined."""
    if not as_json:
        return "".join([_REPORT_TEXT % (gamma, z.real, z.imag, err, "pass" if ok else
                                        "inconclusive" if inc else "FAIL")
                        for gamma, z, _, _, err, ok, inc in reports])
    text = "".join([_REPORT_JSON % (a, b, c, d, z.real, z.imag, lhs.real, lhs.imag, rhs.real,
                                    rhs.imag, err, _JSON_BOOL[ok], _JSON_BOOL[inc])
                    for (a, b, c, d), z, lhs, rhs, err, ok, inc in reports])
    return text.replace("nan", "NaN").replace("inf", "Infinity")  # in no key or literal


def _domain_errors_are_usage(fn):
    """Report the library's domain errors (ValueError), float-range errors
    (OverflowError) and file errors (OSError) as usage errors."""

    @functools.wraps(fn)
    def wrapper(args) -> int:
        try:
            return fn(args)
        except (ValueError, OSError) as exc:
            raise UsageError(str(exc)) from None
        except OverflowError as exc:
            raise UsageError(f"a value is out of float range: {exc}") from None

    return wrapper


# -- subcommands -------------------------------------------------------------


def cmd_sum(args) -> int:
    p = _poly_arg(args.poly)
    if args.json:
        rep = lattice.ball_sum_report(p, args.r_sq)
        _json_out(
            {"poly": p.to_string(), "r_sq": args.r_sq,
             "value": str(rep.value), "term_count": rep.term_count}
        )
    else:
        print(lattice.ball_sum(p, args.r_sq))
    return 0


def cmd_coeffs(args) -> int:
    if args.json and args.csv is not None:
        raise UsageError("--csv and --json exclude each other")
    p = _poly_arg(args.poly)
    series = lattice.coeff_series(p, args.n_max)
    if args.json:
        _json_out(
            {
                "poly": series.poly_id,
                "nu": series.nu,
                "n_max": series.n_max,
                "values": [str(v) for v in series.values],
            }
        )
    else:
        _emit(series.to_csv(), args.csv)
    return 0


def cmd_window_sum(args) -> int:
    """`shortsum` and `longsum`: a weighted sum over the window of R, H."""
    p = _poly_arg(args.poly)
    short = args.command == "shortsum"
    if args.json:
        report = lattice.short_sum_report if short else lattice.long_sum_report
        rep = report(p, args.r, args.h)
        _json_out(
            {"poly": p.to_string(), "R": args.r, "H": args.h,
             "value": rep.value, "term_count": rep.term_count}
        )
    else:
        value = lattice.short_sum if short else lattice.long_sum_physical
        print(repr(value(p, args.r, args.h)))
    return 0


def cmd_freqsum(args) -> int:
    p = _poly_arg(args.poly)
    value = oscsum.freq_long_sum(p, args.r, args.h, args.n_trunc)
    if args.json:
        _json_out(
            {"poly": p.to_string(), "R": args.r, "H": args.h,
             "N_trunc": args.n_trunc, "value": value}
        )
    else:
        print(repr(value))
    return 0


def _parse_h(text: str) -> tuple[float, float, float]:
    """Three rationals, each reduced exactly mod 1 before it becomes a float:
    e(h . xi) has period 1 in every component of h for integer xi."""
    return tuple(float(v % 1) for v in exppairs.parse_rationals(text, 3))  # type: ignore[return-value]


def cmd_expsum(args) -> int:
    if args.n is not None and args.n_list is not None:
        raise UsageError("--n and --n-list exclude each other")
    if args.csv is not None and (args.n_list is None or args.json):
        raise UsageError("--csv writes the --n-list sweep and excludes --json")
    q = _poly_arg(args.poly)
    h = _parse_h(args.h) if args.h else (0.0, 0.0, 0.0)
    if args.n_list:
        try:
            n_list = sorted({_int(s) for s in args.n_list.split(",")})
        except ValueError:
            raise UsageError("--n-list wants comma-separated integers")
        report = oscsum.bound_check_VNQR(q, n_list, args.r, h)
        if args.json:
            _json_out(
                {
                    "poly": q.to_string(),
                    "R": args.r,
                    "rows": [
                        {"N": row.n, "abs_V": row.abs_v, "bound": row.bound,
                         "ratio": row.ratio}
                        for row in report.rows
                    ],
                    "max_ratio": report.max_ratio,
                    "slopes": {
                        k: (None if v is None else v.slope)
                        for k, v in report.slopes.items()
                    },
                }
            )
        else:
            _emit(report.to_csv(), args.csv)
        return 0
    if args.n is None:
        raise UsageError("expsum needs --n or --n-list")
    value = oscsum.exp_sum_lattice(q, args.n, h, args.r)
    if args.json:
        bound = oscsum.bound_value(args.n, q.degree, args.r)
        _json_out(
            {"poly": q.to_string(), "N": args.n, "R": args.r,
             "value_re": value.real, "value_im": value.imag,
             "bound": bound, "ratio": abs(value) / bound}
        )
    else:
        print(repr(value))
    return 0


def cmd_pair(args) -> int:
    pair = exppairs.parse_pair(args.pair, eps=args.eps)
    print(exppairs.pair_apply_word(args.word, pair) if args.word else pair)
    return 0


def cmd_balance(args) -> int:
    long_terms = exppairs.parse_terms(args.long, exppairs.LONG_SUM_MODELS)
    short_terms = exppairs.parse_terms(args.short, exppairs.SHORT_SUM_MODELS)
    # with no --alpha-range, balance's own default range
    alpha_range = (exppairs.parse_rationals(args.alpha_range, 2),) if args.alpha_range else ()
    result = exppairs.balance(long_terms, short_terms, *alpha_range)
    if args.json:
        _json_out(
            {
                "alpha": str(result.alpha),
                "theta": str(result.theta),
                "active": list(result.active_terms),
            }
        )
    else:
        print(f"alpha={result.alpha}")
        print(f"theta={result.theta}")
        print("active=" + ", ".join(result.active_terms))
    return 0


def cmd_table(args) -> int:
    rows = exppairs.exponent_table()
    _emit(exppairs.table_csv(rows) if args.csv_format else exppairs.table_text(rows),
          args.out)
    return 0


def _headline_magnitudes(p: Polynomial3, r_max: int) -> np.ndarray:
    """|headline sum| at every shell n <= r_max^2, less the volume term
    pi main_term(p, sqrt(n), 0) of a P with nonzero sphere mean."""
    n_max = r_max * r_max
    denom, totals = lattice.homogeneous_shell_totals(p, n_max, "headline sum")
    # exact running sums from the origin (p(0), nonzero only in degree 0)
    values = lattice.running_floats(denom, totals)[1:]
    if main_coeff := math.pi * float(lattice.main_term(p, 1, 0)):
        # main_term(p, R, 0) is main_term(p, 1, 0) R^(nu+3), and R^2 = n.
        # float_power calls the C library's pow, as Python's n**power does;
        # np.power differs from it in the last bit on some n
        volume = np.float_power(np.arange(1, n_max + 1, dtype=np.float64), (p.degree + 3) / 2)
        volume *= main_coeff
        values -= volume
    return np.abs(values, out=values)


def _headline_fit(mags: np.ndarray | list[float]) -> FitResult:
    """Growth fit of log |sum| against log R at R = 2, 4, 8, ...

    The windows end at n = R^2 = 4^j; the log-n slope is doubled, an exact
    power-of-two scaling of the fit.
    """
    fit = lattice.dyadic_growth_fit(mags, edge_ratio=4)
    if fit is None:
        raise CheckFailed("degenerate series: too few nonzero dyadic windows to fit")
    return dataclasses.replace(fit, slope=2 * fit.slope)


def cmd_fit(args) -> int:
    if args.from_csv and any(v is not None for v in (args.poly, args.csv, args.r_max)):
        raise UsageError("--from-csv re-fits a stored series: it takes no --poly, --csv or --r-max")
    if args.from_csv:
        mags = _read_fit_csv(args.from_csv)
    else:
        if args.poly is None:
            raise UsageError("fit needs --poly or --from-csv")
        p = _poly_arg(args.poly)
        r_max = 64 if args.r_max is None else args.r_max
        if r_max < 16:
            raise UsageError("need --r-max >= 16")
        mags = _headline_magnitudes(p, r_max)
        if args.csv:
            lines = ["n,R,abs_sum"]
            # Python floats: a numpy scalar's repr is np.float64(...)
            lines.extend(
                f"{n},{math.sqrt(n)!r},{m!r}" for n, m in enumerate(mags.tolist(), start=1)
            )
            _emit("\n".join(lines) + "\n", args.csv)
    if all(m == 0.0 for m in mags):
        raise CheckFailed("degenerate series: headline sum is identically zero")
    fit = _headline_fit(mags)
    if args.json:
        _json_out(
            {"slope": fit.slope, "intercept": fit.intercept,
             "r_squared": fit.r_squared, "points_used": fit.points_used}
        )
    else:
        print(
            f"slope={fit.slope:.6f} intercept={fit.intercept:.6f} "
            f"r_squared={fit.r_squared:.6f} points={fit.points_used}"
        )
    return 0


def _read_fit_csv(path: str) -> list[float]:
    """|sum| at n = 1, 2, 3, ... from a `fit --csv` series; any other row is
    a usage error that names its line."""
    mags: list[float] = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "n,R,abs_sum":
            raise UsageError(f"unexpected series header {header!r}")
        for line_no, line in enumerate(fh, start=2):
            n = len(mags) + 1
            lattice.check_n_max(n)
            fields = line.strip().split(",")
            try:
                ok = (line.isascii() and len(fields) == 3 and int(fields[0]) == n
                      and 0 <= float(fields[2]) < math.inf)
            except ValueError:
                ok = False
            if not ok:
                raise UsageError(f"series line {line_no}: want n,R,abs_sum with n = {n} and "
                                 f"a finite abs_sum >= 0, got {line.strip()!r}")
            mags.append(float(fields[2]))
    if not mags:
        raise UsageError("empty series file")
    return mags


@_domain_errors_are_usage
def _theta_setup(args):
    """theta-check's checked inputs and context: (ctx, (gamma, z), None)
    with --gamma, else (ctx, None, the sampled reports)."""
    if not 0 < args.tol < math.inf:
        raise UsageError(f"--tol must be positive and finite, got {args.tol!r}")
    sample = 50 if args.sample is None else args.sample
    if not 1 <= sample <= modular.SAMPLE_CAP:
        raise UsageError(f"--sample must be between 1 and {modular.SAMPLE_CAP}")
    if args.z is not None and not args.gamma:
        raise UsageError("--z needs --gamma")
    if args.gamma and (args.sample is not None or args.seed is not None):
        raise UsageError("--gamma checks one point: it takes no --sample or --seed")
    p = _poly_arg(args.poly)
    if args.gamma:
        try:
            a, b, c, d = (_int(s) for s in args.gamma.split(","))
            zr, zi = (_float(s) for s in args.z.split(","))
        except (ValueError, AttributeError):
            raise UsageError("--gamma wants a,b,c,d and --z wants re,im")
        if not (math.isfinite(zr) and math.isfinite(zi)):
            raise UsageError(f"--z must be finite, got {args.z!r}")
        point = modular.GammaElement(a, b, c, d), complex(zr, zi)
    ctx = modular.theta_context(p, modular.context_n_max(p, args.n_max, args.tol))
    if args.gamma:
        return ctx, point, None
    return ctx, None, modular.sample_checks(ctx, sample, seed=args.seed or 0, tol=args.tol)


def cmd_theta_check(args) -> int:
    ctx, point, reports = _theta_setup(args)
    if reports is None:  # a ValueError here escapes, as perfbench/selftest.py expects
        reports = [modular.transformation_check(ctx, *point, tol=args.tol)]
    sys.stdout.write(_report_lines(reports, args.json))
    if not all(rep.passed for rep in reports):
        raise CheckFailed("transformation check failed")
    return 0


def cmd_gauss(args) -> int:
    # every domain error, in the direct sum's order, before the O(|c|) sum
    modular.check_gauss_domain(args.d, args.c)
    closed = modular.gauss_sum_closed(args.d, args.c)  # 4 | c, as S(xi) needs
    xis = (0,) if args.xi is None else (0, args.xi)  # one root table for both sums
    direct, *s_val = modular.quadratic_phase_sums(args.d, args.c, xis)
    diff = abs(direct - closed)
    print(f"direct={direct:.12g} closed={closed:.12g} |diff|={diff:.3e}")
    if s_val:
        print(f"S(xi={args.xi})={s_val[0]:.12g}")
    if diff > 1e-10:
        raise CheckFailed("closed form disagrees with direct sum")
    return 0


# -- parser wiring -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusals are usage errors: one `error:` line."""

    commands: dict[str, argparse.ArgumentParser]  # the top parser's subparsers by name

    def error(self, message: str):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = _Parser(
        prog="latharm",
        description="Lattice sums of polynomials over spheres: exact series, "
        "oscillatory sums, theta modularity checks, exponent balancing.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parser.commands = sub.choices

    def add(name, fn, help_):
        """A subcommand whose domain errors exit 2 (theta-check maps its own)."""
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=_domain_errors_are_usage(fn))
        return p

    p = add("sum", cmd_sum, "exact sum of a polynomial over |x|^2 <= R^2")
    p.add_argument("--poly", required=True)
    p.add_argument("--r-sq", type=_int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("coeffs", cmd_coeffs, "exact shell coefficients a_n as CSV or JSON")
    p.add_argument("--poly", required=True)
    p.add_argument("--n-max", type=_int, required=True)
    p.add_argument("--csv", default=None, help="output path ('-' = stdout)")
    p.add_argument("--json", action="store_true")

    for name, fn, help_ in (
        ("shortsum", cmd_window_sum, "weighted boundary-shell sum"),
        ("longsum", cmd_window_sum, "smoothed lattice sum, physical side"),
        ("freqsum", cmd_freqsum, "smoothed lattice sum, frequency side"),
    ):
        p = add(name, fn, help_)
        p.add_argument("--poly", required=True)
        p.add_argument("--r", type=_float, required=True)
        p.add_argument("--h", type=_float, required=True)
        if name == "freqsum":
            p.add_argument("--n-trunc", type=_int, required=True)
        p.add_argument("--json", action="store_true")

    p = add("expsum", cmd_expsum, "oscillatory lattice exponential sum / bound sweep")
    p.add_argument("--poly", default="1")
    p.add_argument("--r", type=_float, required=True)
    p.add_argument("--h", default=None, help="offset h1,h2,h3 (rationals)")
    p.add_argument("--n", type=_int, default=None)
    p.add_argument("--n-list", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--json", action="store_true")

    p = add("pair", cmd_pair, "apply an A/B process word to an exponent pair")
    p.add_argument("--pair", required=True, help="k,l as rationals")
    p.add_argument("--word", default="", help='process word, e.g. "BA2"')
    eps = p.add_mutually_exclusive_group()
    eps.add_argument("--eps", dest="eps", action="store_true", default=None)
    eps.add_argument("--no-eps", dest="eps", action="store_false")

    p = add("balance", cmd_balance, "exact minimax balance of error terms")
    p.add_argument("--long", required=True,
                   help="'a,b;a,b;...' or a long-sum model (vdc, classic, huxley, "
                   "huxley-ba2, lindelof)")
    p.add_argument("--short", required=True,
                   help="'a,b;...' or a short-sum model (trivial, CI, HB, cusp, GLH, RC)")
    p.add_argument("--alpha-range", default=None, help="lo,hi rationals")
    p.add_argument("--json", action="store_true")

    p = add("table", cmd_table, "regenerate the exponent summary table")
    p.add_argument("--csv", dest="csv_format", action="store_true")
    p.add_argument("--out", default=None)

    p = add("fit", cmd_fit, "fit the growth exponent of the headline sum")
    p.add_argument("--poly", default=None)
    p.add_argument("--r-max", type=_int, default=None, help="default 64")
    p.add_argument("--subtract-main", action="store_true",
                   help="accepted and ignored: the volume term of a P with nonzero "
                   "sphere mean is always subtracted")
    p.add_argument("--csv", default=None, help="emit the (n, R, |sum|) series")
    p.add_argument("--from-csv", default=None, help="re-fit a previously emitted series")
    p.add_argument("--json", action="store_true")

    # theta-check maps its domain errors in `_theta_setup`; its --gamma check may raise
    p = sub.add_parser("theta-check", help="verify the theta transformation law")
    p.set_defaults(fn=cmd_theta_check)
    p.add_argument("--poly", default="5*(x^4+y^4+z^4)-3*(x^2+y^2+z^2)^2")
    p.add_argument("--gamma", default=None,
                   help="a,b,c,d; a negative a needs the = form, --gamma=-1,0,0,-1")
    p.add_argument("--z", default=None,
                   help="re,im; a negative re needs the = form, --z=-0.25,0.5")
    p.add_argument("--sample", type=_int, default=None, help="default 50")
    p.add_argument("--tol", type=_float, default=1e-6)
    p.add_argument("--n-max", type=_int, default=modular.DEFAULT_N_MAX)
    p.add_argument("--seed", type=_int, default=None, help="seed for sampled checks, default 0")
    p.add_argument("--json", action="store_true")

    p = add("gauss", cmd_gauss, "quadratic Gauss sum, direct vs closed form")
    p.add_argument("--d", type=_int, required=True)
    p.add_argument("--c", type=_int, required=True)
    p.add_argument("--xi", type=_int, default=None)

    return parser


@functools.cache
def _hold_freed_memory() -> None:
    """Keep freed arrays in glibc's heap for the next command: blocks up to
    32 MiB (the ceiling of glibc's own sliding mmap threshold) come from
    the heap, whose free top goes back only past 64 MiB.  By default a
    freed block of a few hundred KiB is unmapped or trimmed, and the next
    command faults its pages in again.  Set once per process, by the CLI
    and not the library; a no-op off Linux or without mallopt."""
    if sys.platform != "linux":
        return
    import ctypes  # here, not at module level: importing the CLI stays as cheap

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's malloc.h
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """`build_parser().parse_args(argv)` in one pass: a known command is parsed
    by its own parser alone, as the top parser would hand it over.  Only the
    top parser words the other refusals and its help, and reads sys.argv."""
    parser = build_parser()
    if argv and (command := parser.commands.get(argv[0])):
        args = command.parse_args(argv[1:])
        args.command = argv[0]
        return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    _hold_freed_memory()
    try:
        args = _parse_args(argv)  # a non-ASCII number raises UsageError
        return args.fn(args)
    except SystemExit as exc:  # --help
        return 2 if exc.code not in (0,) else 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
