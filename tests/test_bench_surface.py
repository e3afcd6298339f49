"""The package names the benchmark harness wraps and reads still exist.

``perfbench/tracer.py`` swaps package functions and methods for timing
wrappers, and ``perfbench/run.py`` reads the arithmetic backend.  Renaming
or deleting one of those names fails here, not only in the harness's own
self-test.
"""

import importlib.util
import random
import sys
from pathlib import Path

from credalcones.net import sample_credal_net

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


def test_the_tracer_counts_one_structured_call_per_irrelevance_check():
    # the sweep answers every observation through the one structured entry
    # that the tracer wraps; on more than one node, atoms and negatives are
    # joint gambles, which never take the structured route
    rng = random.Random(29)
    nets = [net for net in (sample_credal_net(rng) for _ in range(24)) if len(net.dag.nodes) > 1]
    tracer = load("tracer").Tracer()
    checked = 0
    try:
        tracer.install()
        for net in nets[:8]:
            report = net.build_joint().verify_requirements(random.Random(3), gambles_per_slot=2)
            checked += report.irrelevance_checked
    finally:
        tracer.uninstall()
    assert len(nets) >= 8 and checked > 0
    assert tracer.counts["net.structured_member.calls"] == checked


def test_provenance_names_the_fraction_backend():
    assert load("run").provenance()["backend"] == "fractions.Fraction"
