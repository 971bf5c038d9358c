"""Locating the program in the checkout and calling its CLI in-process."""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no latharm sources to benchmark."""


def load_cli():
    """Import latharm.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "latharm" / "cli.py").is_file():
        raise ProgramMissing(f"no latharm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from latharm import cli

    if Path(cli.__file__).resolve().parent != SRC / "latharm":
        raise ProgramMissing(f"latharm imported from {cli.__file__}, not from {SRC}")
    return cli


def invoke(main, argv) -> tuple[int | None, str, str | None, float]:
    """Run main(argv) with stdout and stderr captured in memory.

    Returns (exit code, stdout, escaped exception type or None, seconds).
    An exception escaping main is reported, not raised: the caller counts
    it as a failed operation and moves on.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc, exc = main(list(argv)), None
        except Exception as e:  # counted as a failure of this op
            rc, exc = None, type(e).__name__
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), exc, dt
