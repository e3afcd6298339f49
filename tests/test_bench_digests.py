"""The answers the benchmark recorded still come out.

``perfbench/digests.json`` holds, per workload and seed, a digest of every
unit's answers (member flags, prevision values, verify outcomes).  Replaying
seeds 1 and 2 of the chain workload, seed 1 of the sweep and seed 1 of the
mutated sweep here catches a change that moves an answer without anyone
running the benchmark.  Which basis answers a chain query's local LP (a
cached one, or one walked to) depends on the queries before it, so a
second chain seed guards the values; the mutated seed drives flipped joint
models through the local certificates and the positivity audit's failures.
"""

import contextlib
import io
import random
import sys

import pytest

from credalcones import cone, lp
from credalcones.cli import load_network, main
from test_bench_surface import load


@pytest.mark.parametrize(
    "name, seed",
    [
        pytest.param("chain", 1, id="chain"),
        pytest.param("chain", 2, id="chain-seed2"),
        pytest.param("sweep", 1, id="sweep"),
        pytest.param("mutated", 1, id="mutated"),
    ],
)
def test_recorded_digests_replay(tmp_path, monkeypatch, name, seed):
    run = load("run")
    monkeypatch.setattr(sys, "path", list(sys.path))  # import_package prepends
    workload = run.import_package()[name]()
    units = run.make_inputs(workload, seed, tmp_path)
    log = run.run_fixed(workload, units)
    assert run.compare_recorded(log, name, seed, run.input_digest(units)) == "checked"
    assert log.failed == 0, log.messages
    assert len(log.unit_digests) == len(units)


def test_chain_queries_reuse_local_bases(tmp_path, monkeypatch):
    # the first chain file of seed 1 (six binary nodes, seven queries) needs
    # 102 distinct local previsions; each is read at a cached basis or
    # walked to by pivots on B^-1, and none is a two-row tableau LP
    run = load("run")
    monkeypatch.setattr(sys, "path", list(sys.path))
    unit = run.make_inputs(run.import_package()["chain"](), 1, tmp_path)[0]
    solve, at_basis = lp._solve_standard, cone._prevision_at_basis
    cold, walks = [], []

    def spy(rows, rhs, cost):
        if len(rows) == 2 and cost[-2:] == [-1, 1]:
            cold.append(rhs)
        return solve(rows, rhs, cost)

    def walk_spy(basis, target, columns):
        walks.append(target)
        return at_basis(basis, target, columns)

    monkeypatch.setattr(lp, "_solve_standard", spy)
    monkeypatch.setattr(cone, "_prevision_at_basis", walk_spy)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["query", str(unit.path), str(unit.query_path)]) == 0
    assert cold == [] and 0 < len(walks) <= 30


def test_sweep_local_memberships_mostly_skip_the_lp(tmp_path, monkeypatch):
    # unit 6 of sweep seed 1 (18 joint configurations): its sweep asks 170
    # distinct local memberships of coherent cones, and the quick routes,
    # the atom masses and the prevision walk leave none to the membership LP
    run = load("run")
    monkeypatch.setattr(sys, "path", list(sys.path))
    unit = run.make_inputs(run.import_package()["sweep"](), 1, tmp_path)[6]
    solve = cone.conic_membership
    local_lps = []

    def spy(target, columns):
        local_lps.append(target)
        return solve(target, columns)

    monkeypatch.setattr(cone, "conic_membership", spy)

    def sweep_local_lps():
        joint = load_network(str(unit.path)).build_joint()
        local_lps.clear()
        report = joint.verify_requirements(random.Random(unit.calls[0]["seed"]))
        assert report.ok
        return len(local_lps)

    assert sweep_local_lps() == 0
    # the same sweep with every local membership left to the LP
    monkeypatch.setattr(
        cone.AssessmentCone,
        "member_with_certificate",
        lambda self, f: cone.conic_membership(
            lp._over_lcm(f.extend(self.space).table), self.columns
        ),
    )
    assert sweep_local_lps() > 40
