"""The benchmark harness reaches into latharm by name; fail here, not there.

perfbench/tracer.py wraps the functions listed in WRAPPED and
perfbench/make_refs.py regenerates the stored symbolic Fourier references
from the polynomial read-out.  Both break silently when a name or a format
they depend on changes, so these tests only read perfbench/ and check it
against the program.
"""

import functools
import importlib
import inspect
import json
import re
import sys
from pathlib import Path

import pytest

import latharm.cli

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        yield importlib.import_module("tracer"), importlib.import_module("make_refs")
    finally:
        sys.path.remove(str(BENCH_DIR))


def test_every_wrapped_name_resolves(bench):
    tracer, _ = bench
    for layer, names in tracer.WRAPPED.items():
        module = getattr(latharm, layer)
        for qual in names:
            if "." in qual:  # the tracer swaps methods in the class __dict__
                cls_name, attr = qual.split(".")
                assert callable(vars(getattr(module, cls_name)).get(attr)), f"{layer}.{qual}"
            else:
                assert callable(getattr(module, qual, None)), f"{layer}.{qual}"
    assert callable(latharm.cli.main)


def test_counted_arguments_exist(bench):
    # the counter hooks read the wrapped call's arguments by name
    tracer, _ = bench
    reads = set()
    for name, hook in tracer.Tracer()._hooks().items():
        layer, qual = name.split(".", 1)
        fn = functools.reduce(getattr, qual.split("."), getattr(latharm, layer))
        params = inspect.signature(fn).parameters
        for arg in re.findall(r'arguments\["(\w+)"\]', inspect.getsource(hook)):
            assert arg in params, (name, arg)
            reads.add((name, arg))
    assert reads >= {
        ("modular.gauss_sum_direct", "c"),
        ("modular.theta_context", "n_max"),
        ("oscsum.freq_long_sum", "n_trunc"),
        ("oscsum.bound_check_VNQR", "n_list"),
        ("poly.Polynomial3.evaluate_arrays", "x"),
    }


def test_fourier_refs_match_stored(bench):
    _, make_refs = bench
    stored = json.loads((BENCH_DIR / "refs" / "fourier.json").read_text())
    assert json.loads(json.dumps(make_refs.fourier_refs())) == stored
