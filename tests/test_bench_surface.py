"""The package names the benchmark harness wraps and reads still exist.

``perfbench/tracer.py`` swaps package functions and methods for timing
wrappers, and ``perfbench/run.py`` reads the arithmetic backend.  Renaming
or deleting one of those names fails here, not only in the harness's own
self-test.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_traced_name_and_restores_it():
    tracer = load("tracer").Tracer()
    try:
        tracer.install()
        swapped = list(tracer._undo)
        assert swapped
        for owner, attr, original in swapped:
            assert vars(owner)[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in swapped:
        assert vars(owner)[attr] is original


def test_provenance_names_the_fraction_backend():
    assert load("run").provenance()["backend"] == "fractions.Fraction"
