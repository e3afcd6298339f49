"""Directed acyclic graphs over named nodes.

Node ids are kept in sorted order everywhere, so every derived list
(parents, descendants, topological order) is deterministic.  Validation
produces a certificate either way: a topological order, or an explicit
directed cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


class DagError(ValueError):
    """The graph is not a DAG, or an edge refers to an unknown node."""


@dataclass(frozen=True)
class DagReport:
    """acyclic with a witnessing topological order, or a directed cycle
    (v_0, ..., v_k) with v_k == v_0 and every step an edge."""

    acyclic: bool
    order: Optional[tuple[str, ...]] = None
    cycle: Optional[tuple[str, ...]] = None


class Dag:
    """A finite digraph; acyclicity is checked by validate(), not assumed."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        self.nodes: tuple[str, ...] = tuple(sorted(set(nodes)))
        known = set(self.nodes)
        seen = set()
        for u, v in edges:
            if u not in known or v not in known:
                raise DagError(f"edge ({u!r}, {v!r}) mentions an unknown node")
            if u == v:
                raise DagError(f"self-loop on {u!r}")
            seen.add((u, v))
        self.edges: tuple[tuple[str, str], ...] = tuple(sorted(seen))
        self._parents: dict[str, tuple[str, ...]] = {n: () for n in self.nodes}
        self._children: dict[str, tuple[str, ...]] = {n: () for n in self.nodes}
        by_parent: dict[str, list[str]] = {n: [] for n in self.nodes}
        by_child: dict[str, list[str]] = {n: [] for n in self.nodes}
        for u, v in self.edges:
            by_parent[u].append(v)
            by_child[v].append(u)
        for n in self.nodes:
            self._children[n] = tuple(sorted(by_parent[n]))
            self._parents[n] = tuple(sorted(by_child[n]))
        self._report: Optional[DagReport] = None

    def __repr__(self) -> str:
        return f"Dag({len(self.nodes)} nodes, {len(self.edges)} edges)"

    def parents(self, node: str) -> tuple[str, ...]:
        self._known(node)
        return self._parents[node]

    def leaves(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if not self._children[n])

    def descendants(self, node: str) -> tuple[str, ...]:
        """All nodes reachable from `node` by directed paths, excluding it."""
        self._known(node)
        out: set[str] = set()
        stack = list(self._children[node])
        while stack:
            n = stack.pop()
            if n in out:
                continue
            out.add(n)
            stack.extend(self._children[n])
        out.discard(node)  # only possible in a cyclic graph
        return tuple(sorted(out))

    def non_parent_non_descendants(self, node: str) -> tuple[str, ...]:
        """The nodes that are neither the node itself, nor its parents, nor
        its descendants.  Under epistemic irrelevance these cannot influence
        the node's local model once the parents are fixed."""
        excluded = {node, *self._parents[node], *self.descendants(node)}
        return tuple(n for n in self.nodes if n not in excluded)

    def path(self) -> Optional[tuple[str, ...]]:
        """The nodes in order along the graph if it is one connected
        directed path v_0 -> v_1 -> ... (a single node counts), else None."""
        order = self.validate().order
        if order is None or len(self.edges) != len(order) - 1:
            return None
        if all(self._children[u] == (v,) for u, v in zip(order, order[1:])):
            return order
        return None

    def validate(self) -> DagReport:
        if self._report is None:
            self._report = self._build_report()
        return self._report

    def _build_report(self) -> DagReport:
        # Kahn's algorithm, always taking the smallest available node id
        indeg = {n: len(self._parents[n]) for n in self.nodes}
        ready = sorted(n for n in self.nodes if indeg[n] == 0)
        order: list[str] = []
        while ready:
            n = ready.pop(0)
            order.append(n)
            changed = False
            for c in self._children[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
                    changed = True
            if changed:
                ready.sort()
        if len(order) == len(self.nodes):
            return DagReport(acyclic=True, order=tuple(order))
        # every leftover node keeps a leftover parent, so a parent walk
        # must revisit a node; reversing that walk gives a directed cycle
        leftover = {n for n in self.nodes if indeg[n] > 0}
        start = min(leftover)
        path = [start]
        seen = {start: 0}
        while True:
            here = path[-1]
            nxt = min(p for p in self._parents[here] if p in leftover)
            if nxt in seen:
                back = path[seen[nxt]:] + [nxt]
                return DagReport(acyclic=False, cycle=tuple(reversed(back)))
            seen[nxt] = len(path)
            path.append(nxt)

    def _known(self, node: str) -> None:
        if node not in self._parents:
            raise DagError(f"unknown node {node!r}")
