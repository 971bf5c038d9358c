"""A fixed probe of the machine's speed, for normalising timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-40 % over seconds to minutes with the load of other tenants; the drift
moves every timing of a run together and swamps the run-to-run spread
the end-to-end bounds allow.  `probe` times a small, fixed mix of the
kinds of work the program does (interpreter loops, numpy int64 arrays, a
convolution, big-int arithmetic, text formatting).  It is built only from
the benchmark's own code, so no change to the program can move it, and it
runs between ops, with the program idle and the garbage collector off, so
the program's heap cannot slow it.

`run.py` calls it about every PROBE_EVERY_S and scales each pass's times
by REFERENCE_PROBE_S over the median probe time of that pass: the
end-to-end times read as seconds on a machine where the probe takes
REFERENCE_PROBE_S, about its median on a 2-core Intel Xeon guest.  The
raw times and the probe medians go to the run's record.

Import time (setup_s) is mostly loading and unmarshalling modules and
shared libraries, which the compute probe follows poorly, so it is scaled
the same way by IMPORT_PROBE instead: a fresh interpreter importing a
fixed set of standard-library modules, none of which the program loads.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

PROBE_EVERY_S = 0.05
REFERENCE_PROBE_S = 3.0e-3
IMPORT_PROBE = ("asyncio", "csv", "email.mime.text", "http.client", "sqlite3", "tarfile",
                "ssl", "unittest", "xml.etree.ElementTree")
REFERENCE_IMPORT_S = 0.08

_ARRAY = np.arange(1 << 14, dtype=np.int64)
_BIG = 3**4000


def probe() -> float:
    """Seconds taken by the fixed probe work (about 3 ms)."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc: dict[int, int] = {}
        for k in range(3000):
            acc[k % 97] = acc.get(k % 97, 0) + k * k
        a = _ARRAY
        for _ in range(6):
            a = np.cumsum((a * 7 + 3) % 1000003) % 65521
        np.convolve(_ARRAY[:600] % 1000, _ARRAY[:600] % 997)
        x = _BIG
        for _ in range(3):
            x = (x * _BIG) % (_BIG + 12345)
        ",".join(str(v) for v in range(1200))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scale(probes: list[float], reference: float = REFERENCE_PROBE_S) -> float:
    """Factor from raw seconds to reference seconds, given a pass's probes."""
    return reference / statistics.median(probes)
