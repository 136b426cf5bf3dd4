"""Subgroup lattices and their Moebius function.

The Moebius values are computed from the defining recursion over intervals,
never transcribed from anywhere, and can be exported as CSV for inspection.
"""

from __future__ import annotations

from typing import Optional

from .perms import PermGroup, SubgroupClass


class SubgroupLattice:
    """All subgroups of a group, ordered by inclusion, with Moebius values.

    ``nodes`` is canonically ordered by (order, element set), so the group
    itself is last; ``node_class[i]`` is the index in ``classes`` of
    nodes[i]'s conjugacy class; ``leq[i][j]`` says nodes[i] <= nodes[j];
    ``mobius[i][j]`` is mu(nodes[i], nodes[j]) and None exactly where
    nodes[i] <= nodes[j] fails.  Readers take a whole row: ``index_of`` finds
    a subgroup's row, whose true ``leq`` entries and non-None ``mobius``
    entries both mark the interval above it, and ``class_of`` its class.
    """

    def __init__(self, nodes: list[PermGroup], classes: list[SubgroupClass]):
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

    def class_of(self, sub: PermGroup) -> SubgroupClass:
        return self.classes[self.node_class[self.index_of(sub)]]

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
    return SubgroupLattice(nodes, classes)
