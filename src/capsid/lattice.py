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
    nodes[i]'s conjugacy class; ``mobius[i][j]`` is mu(nodes[i], nodes[j])
    and None exactly where nodes[i] <= nodes[j] fails, so the matrix also
    holds the order: a row's non-None entries mark the interval above its
    node and a column's the nodes below its node.  Readers take a whole
    row or column: ``index_of`` finds a subgroup's index, and ``class_of``
    its class.
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
        self.mobius = mobius = [None] * n
        # only j > i can lie above i (nodes are sorted by order), and rows
        # are filled from the last up, so "k <= j" reads off finished row k
        for i in reversed(range(n)):
            row: list[Optional[int]] = [None] * n
            row[i], above = 1, []   # above: the k > i with nodes[i] <= nodes[k]
            for j in range(i + 1, n):
                if nodes[i].is_subgroup_of(nodes[j]):
                    row[j] = -1 - sum(row[k] for k in above
                                      if mobius[k][j] is not None)
                    above.append(j)
            mobius[i] = row

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
