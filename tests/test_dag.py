"""DAG structure, certificates, and the parent/descendant partition."""

import random

import pytest

from credalcones.dag import Dag, DagError


def chain():
    return Dag("abcd", [("a", "b"), ("b", "c"), ("c", "d")])


def test_chain_relations():
    g = chain()
    assert g.parents("c") == ("b",)
    assert g.leaves() == ("d",)
    assert g.descendants("b") == ("c", "d")
    assert g.validate().order == ("a", "b", "c", "d")


def test_non_parent_non_descendants_on_chain():
    g = chain()
    assert g.non_parent_non_descendants("a") == ()
    assert g.non_parent_non_descendants("b") == ()
    assert g.non_parent_non_descendants("c") == ("a",)
    assert g.non_parent_non_descendants("d") == ("a", "b")


def test_diamond():
    g = Dag("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    assert g.parents("d") == ("b", "c")
    assert g.descendants("a") == ("b", "c", "d")
    assert g.non_parent_non_descendants("b") == ("c",)
    assert g.validate().order == ("a", "b", "c", "d")


def test_isolated_nodes_are_fine():
    g = Dag(["x", "y"])
    assert g.leaves() == ("x", "y")
    assert g.non_parent_non_descendants("x") == ("y",)


def test_cycle_certificate():
    g = Dag("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    report = g.validate()
    assert not report.acyclic
    cyc = report.cycle
    assert cyc[0] == cyc[-1] and len(cyc) >= 3
    edges = set(g.edges)
    for u, v in zip(cyc, cyc[1:]):
        assert (u, v) in edges
    assert report.order is None


def test_cycle_with_dangling_sink():
    # the leftover subgraph contains a childless node; the walk must not stall
    g = Dag(["a", "x", "y"], [("x", "y"), ("y", "x"), ("y", "a")])
    report = g.validate()
    assert not report.acyclic
    cyc = report.cycle
    edges = set(g.edges)
    for u, v in zip(cyc, cyc[1:]):
        assert (u, v) in edges


def test_bad_edges_rejected():
    with pytest.raises(DagError):
        Dag("ab", [("a", "z")])
    with pytest.raises(DagError):
        Dag("ab", [("a", "a")])


def random_dag(rng, n):
    names = [f"n{i}" for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    edges = []
    for i, u in enumerate(names):
        for v in names[i + 1:]:
            if rng.random() < 0.4:
                edges.append((u, v) if rank[u] < rank[v] else (v, u))
    return Dag(names, edges)


def test_random_dags_partition_and_order():
    rng = random.Random(4242)
    for _ in range(80):
        g = random_dag(rng, rng.randint(1, 6))
        report = g.validate()
        assert report.acyclic
        pos = {v: i for i, v in enumerate(report.order)}
        for u, v in g.edges:
            assert pos[u] < pos[v]
        assert g.leaves() != ()
        for s in g.nodes:
            parts = (
                {s},
                set(g.parents(s)),
                set(g.descendants(s)),
                set(g.non_parent_non_descendants(s)),
            )
            assert set().union(*parts) == set(g.nodes)
            total = sum(len(p) for p in parts)
            assert total == len(g.nodes)  # pairwise disjoint


def test_descendants_are_transitive():
    rng = random.Random(77)
    for _ in range(40):
        g = random_dag(rng, 6)
        for s in g.nodes:
            desc = set(g.descendants(s))
            for d in desc:
                assert set(g.descendants(d)) <= desc
