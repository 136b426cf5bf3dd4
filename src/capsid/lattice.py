"""Subgroup lattices and their Moebius function.

The Moebius values are computed from the defining recursion over intervals,
never transcribed from anywhere, and can be exported as CSV for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .perms import PermGroup, SubgroupClass


@dataclass(frozen=True)
class HasseEdge:
    """A covering relation between two conjugacy classes of subgroups.

    ``below_per_above`` counts subgroups of order ``order_below`` inside each
    subgroup of order ``order_above``; ``above_per_below`` counts the other
    direction.
    """
    order_below: int
    order_above: int
    below_per_above: int
    above_per_below: int


class SubgroupLattice:
    """All subgroups of a group, ordered by inclusion, with Moebius values.

    ``nodes`` is canonically ordered by (order, element set); ``node_class[i]``
    is the index in ``classes`` of nodes[i]'s conjugacy class; ``leq[i][j]``
    says nodes[i] <= nodes[j]; ``mobius[i][j]`` is mu(nodes[i], nodes[j]) and
    None where the pair is incomparable.
    """

    def __init__(self, group: PermGroup, nodes: list[PermGroup],
                 classes: list[SubgroupClass]):
        self.group = group
        self.nodes = tuple(nodes)
        self.classes = tuple(classes)
        self._node_index = {sub: i for i, sub in enumerate(self.nodes)}
        node_class = [0] * len(self.nodes)
        for ci, cls in enumerate(self.classes):
            for member in cls.members:
                node_class[self.index_of(member)] = ci
        self.node_class = tuple(node_class)
        n = len(self.nodes)
        self.leq = [[nodes[i].is_subgroup_of(nodes[j]) for j in range(n)]
                    for i in range(n)]
        self.mobius: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
        # nodes are sorted by order, so every K in [H, L) precedes L
        for i in range(n):
            leq_i = self.leq[i]
            for j in range(i, n):
                if not leq_i[j]:
                    continue
                if i == j:
                    self.mobius[i][j] = 1
                else:
                    self.mobius[i][j] = -sum(
                        self.mobius[i][k]
                        for k in range(i, j) if leq_i[k] and self.leq[k][j])

    def index_of(self, sub: PermGroup) -> int:
        try:
            return self._node_index[sub]
        except KeyError:
            raise ValueError("subgroup is not a node of this lattice") from None

    def mobius_value(self, below: PermGroup, above: PermGroup) -> int:
        i, j = self.index_of(below), self.index_of(above)
        value = self.mobius[i][j]
        if value is None:
            raise ValueError("subgroups are not nested")
        return value

    def interval_above(self, sub: PermGroup) -> list[PermGroup]:
        """All nodes K with sub <= K, including sub and the full group."""
        i = self.index_of(sub)
        return [self.nodes[j] for j in range(len(self.nodes)) if self.leq[i][j]]

    def class_of(self, sub: PermGroup) -> SubgroupClass:
        return self.classes[self.node_class[self.index_of(sub)]]

    def covering_pairs(self) -> list[tuple[int, int]]:
        """Index pairs (i, j) where nodes[j] covers nodes[i]."""
        n = len(self.nodes)
        out = []
        for i in range(n):
            for j in range(n):
                if i == j or not self.leq[i][j]:
                    continue
                if any(self.leq[i][k] and self.leq[k][j]
                       for k in range(n) if k != i and k != j):
                    continue
                out.append((i, j))
        return out

    def hasse_edge_counts(self) -> list[HasseEdge]:
        """Containment multiplicities for each covering pair of conjugacy
        classes, both directions (see :class:`HasseEdge`)."""
        covering = set(self.covering_pairs())
        seen_class_pairs = sorted({(self.node_class[i], self.node_class[j])
                                   for i, j in covering})
        edges = []
        for ci, cj in seen_class_pairs:
            below, above = self.classes[ci], self.classes[cj]
            rep_above = self.index_of(above.representative)
            rep_below = self.index_of(below.representative)
            below_per_above = sum(
                1 for m in below.members if self.leq[self.index_of(m)][rep_above])
            above_per_below = sum(
                1 for m in above.members if self.leq[rep_below][self.index_of(m)])
            edges.append(HasseEdge(below.representative.order,
                                   above.representative.order,
                                   below_per_above, above_per_below))
        edges.sort(key=lambda e: (e.order_below, e.order_above))
        return edges

    def to_csv(self) -> str:
        """Moebius matrix as CSV; rows and columns labeled by subgroup index
        and order, cells blank where the pair is incomparable."""
        labels = [f"H{i}(o{sub.order})" for i, sub in enumerate(self.nodes)]
        lines = ["subgroup," + ",".join(labels)]
        for i, label in enumerate(labels):
            cells = ["" if v is None else str(v) for v in self.mobius[i]]
            lines.append(label + "," + ",".join(cells))
        return "\n".join(lines) + "\n"


def build_lattice(group: PermGroup) -> SubgroupLattice:
    """Construct the subgroup lattice of ``group`` with Moebius values filled
    in by the defining recursion."""
    nodes = group.all_subgroups()
    classes = group.conjugacy_classes_of_subgroups()
    return SubgroupLattice(group, nodes, classes)
