"""The answers the benchmark recorded still come out.

``perfbench/digests.json`` holds, per workload and seed, a digest of every
unit's answers (member flags, prevision values, verify outcomes).  Replaying
seed 1 of the chain and sweep workloads here catches a change that moves an
answer without anyone running the benchmark.
"""

import sys

import pytest

from test_bench_surface import load


@pytest.mark.parametrize("name", ["chain", "sweep"])
def test_recorded_digests_replay(tmp_path, monkeypatch, name):
    run = load("run")
    monkeypatch.setattr(sys, "path", list(sys.path))  # import_package prepends
    workload = run.import_package()[name]()
    units = run.make_inputs(workload, 1, tmp_path)
    log = run.run_fixed(workload, units)
    assert run.compare_recorded(log, name, 1, run.input_digest(units)) == "checked"
    assert log.failed == 0, log.messages
    assert len(log.unit_digests) == len(units)
