"""Subgroup lattices and their Moebius function.

The Moebius values are computed from the defining recursion over intervals,
never transcribed from anywhere, and can be exported as CSV for inspection.
Each node keeps one row: the interval above it, with its Moebius values;
incomparable pairs are stored nowhere.
"""

from __future__ import annotations

from .perms import PermGroup, SubgroupClass


class SubgroupLattice:
    """All subgroups of a group, ordered by inclusion, with Moebius values.

    ``nodes`` is canonically ordered by (order, element set), so the group
    itself is last; ``mobius[i]`` is the interval above nodes[i], a dict
    from each j with nodes[i] <= nodes[j] to mu(nodes[i], nodes[j]), so the
    rows also hold the order.  ``index_of`` finds a subgroup's index, and
    ``class_of`` its class.  The rows serve the ``mobius`` command, the
    report's CSV and ``pathways.tbar``; the solver reads the census instead.
    """

    def __init__(self, nodes: list[PermGroup], classes: list[SubgroupClass]):
        self.nodes = tuple(nodes)
        self.classes = tuple(classes)
        self._node_index = {sub: i for i, sub in enumerate(self.nodes)}
        n = len(self.nodes)
        self.mobius = mobius = [{}] * n   # each row is replaced below
        # only j > i can lie above i (nodes are sorted by order), and rows
        # are filled from the last up, so "k <= j" reads off finished row k
        for i in reversed(range(n)):
            mobius[i] = row = {i: 1}
            for j in range(i + 1, n):
                if nodes[i].is_subgroup_of(nodes[j]):
                    # the -1 is mu(i, i); j is not yet in row i itself
                    row[j] = -1 - sum(mu for k, mu in row.items()
                                      if j in mobius[k])

    def index_of(self, sub: PermGroup) -> int:
        try:
            return self._node_index[sub]
        except KeyError:
            raise ValueError("subgroup is not a node of this lattice") from None

    def class_of(self, sub: PermGroup) -> SubgroupClass:
        self.index_of(sub)   # refuses a subgroup that is not a node
        return next(cls for cls in self.classes if sub in cls.members)

    def to_csv(self) -> str:
        """Moebius matrix as CSV; rows and columns labeled by subgroup index
        and order, cells blank where the pair is incomparable."""
        labels = [f"H{i}(o{sub.order})" for i, sub in enumerate(self.nodes)]
        lines = ["subgroup," + ",".join(labels)]
        for i, label in enumerate(labels):
            row = self.mobius[i]
            cells = [str(row.get(j, "")) for j in range(len(labels))]
            lines.append(label + "," + ",".join(cells))
        return "\n".join(lines) + "\n"


def build_lattice(group: PermGroup) -> SubgroupLattice:
    """Construct the subgroup lattice of ``group`` with Moebius values filled
    in by the defining recursion."""
    nodes = group.all_subgroups()
    classes = group.conjugacy_classes_of_subgroups()
    return SubgroupLattice(nodes, classes)
