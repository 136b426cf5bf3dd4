"""From fixed-tree counts to the distribution of assembly pathways.

For a group acting simply on the leaf set, t(H) counts the trees fixed by a
subgroup H and is supplied by the generating functions.  Inverting t per
conjugacy class over ``SubgroupClass.below`` (:func:`tbar` inverts at one
lattice node) gives tbar(H), the number of trees whose stabilizer is
exactly H; summing tbar over the subgroups of index m and dividing by m
gives N(m), the number of pathways (orbits) of size m, and each such
pathway has probability m / (total number of trees).
:func:`format_distribution` renders the whole distribution as the text
report that ``capsid icosa-report`` prints.

Every division here must be exact; a remainder aborts with a diagnostic
rather than rounding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional

from . import series
from .perms import PermGroup

if TYPE_CHECKING:
    from .lattice import SubgroupLattice


class SubgroupClassRow(NamedTuple):
    """Per-conjugacy-class numbers feeding the distribution."""
    representative: PermGroup
    order: int
    index: int           # (G:H), the orbit size of trees stabilized exactly here
    class_size: int
    fixed_count: int     # t(H)
    exact_count: int     # tbar(H)


class PathwayDistribution(NamedTuple):
    """The full pathway-size distribution for one simple action."""
    group: PermGroup
    leaf_count: int
    total_trees: int
    per_divisor: dict[int, int]                  # m -> N(m), all divisors of |G|
    per_subgroup_class: tuple[SubgroupClassRow, ...]

    @property
    def pathway_total(self) -> int:
        return sum(self.per_divisor.values())


def tbar(group: PermGroup, sub: PermGroup, t: dict[PermGroup, int],
         lat: SubgroupLattice) -> int:
    """Moebius inversion at one subgroup: the number of trees fixed by sub
    and by nothing larger, the sum of mu(sub, K) * t(K) over sub's row of
    ``lat.mobius``, whose keys are the supergroups K of sub in ``lat``, the
    lattice of ``group``.  ``group`` itself is not read; it stays first
    because callers, the benchmark among them, pass it by position."""
    row = lat.mobius[lat.index_of(sub)]
    return _nonnegative(sum(mu * t[lat.nodes[k]] for k, mu in row.items()), sub)


def _nonnegative(value: int, sub: PermGroup) -> int:
    if value < 0:
        raise ArithmeticError(
            f"negative inverted count {value} for a subgroup of order {sub.order}; "
            "the supplied t values are inconsistent")
    return value


def pathway_size_distribution(group: PermGroup,
                              lat: Optional[SubgroupLattice] = None
                              ) -> PathwayDistribution:
    """Compute N(m) for every divisor m of the group order, from the
    generating-function counts inverted per conjugacy class.  A supplied
    ``lat`` must be the lattice of ``group``; nothing else reads it."""
    if not group.is_simple_action():
        raise ValueError("the group action is not simple")
    if lat is not None and lat.nodes[-1] != group:
        raise ValueError("the lattice is not the given group's")
    classes = group.conjugacy_classes_of_subgroups()
    leaf_count = group.degree
    # every subgroup H of a simple action acts simply, with leaf_count / |H|
    # orbits, and |H| divides leaf_count
    orders = {c: leaf_count // cls.representative.order
              for c, cls in enumerate(classes)}
    counts = series.class_tree_counts(classes, orders)
    t = [counts[c][n] for c, n in orders.items()]
    # paired[c] = |c| tbar_c: |c| t_c is paired[c] plus below[d][c] paired[d]
    # over the classes d above c, which come later in census order
    paired = [cls.size * tc for cls, tc in zip(classes, t)]
    for d in reversed(range(len(classes))):
        for c, k in classes[d].below:
            paired[c] -= k * paired[d]

    rows = []
    for cls, fixed, value in zip(classes, t, paired):
        rep = cls.representative
        rows.append(SubgroupClassRow(
            representative=rep,
            order=rep.order,
            index=group.order // rep.order,
            class_size=cls.size,
            fixed_count=fixed,
            # exact for any t: the |c| conjugates share one node-level tbar
            exact_count=_nonnegative(value // cls.size, rep),
        ))
    rows.sort(key=lambda r: (r.order, -r.class_size))

    per_divisor: dict[int, int] = {}
    for m in _divisors(group.order):
        total = sum(r.exact_count * r.class_size for r in rows if r.index == m)
        if total % m:
            raise ArithmeticError(
                f"pathway count for size {m} is not integral ({total}/{m})")
        per_divisor[m] = total // m

    total_trees = t[0]
    weighted = sum(m * n for m, n in per_divisor.items())
    if weighted != total_trees:
        raise ArithmeticError(
            f"pathway sizes cover {weighted} trees but there are {total_trees}")
    return PathwayDistribution(group, leaf_count, total_trees,
                               per_divisor, tuple(rows))


def pathway_probabilities(dist: PathwayDistribution) -> dict[int, Fraction]:
    """For each occurring pathway size m, the exact probability m / |T_X| of
    each of the N(m) pathways of that size."""
    return {m: Fraction(m, dist.total_trees)
            for m, n in sorted(dist.per_divisor.items()) if n}


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def format_distribution(dist: PathwayDistribution) -> str:
    """The report as text: per-class counts, size distribution, probabilities
    and totals.  Obeys the caller's int-to-str digit cap; only cli.main lifts it."""
    lines = []
    lines.append(f"leaves: {dist.leaf_count}")
    lines.append(f"group order: {dist.group.order}")
    lines.append(f"total trees: {dist.total_trees}")
    lines.append("")
    lines.append("subgroup classes (order, class size, orbit size m, "
                 "fixed t, exactly-fixed tbar):")
    header = f"{'order':>6} {'#subs':>6} {'m':>6}  {'t':<60} tbar"
    lines.append(header)
    for row in dist.per_subgroup_class:
        lines.append(f"{row.order:>6} {row.class_size:>6} {row.index:>6}  "
                     f"{row.fixed_count:<60} {row.exact_count}")
    lines.append("")
    lines.append("pathway sizes (m, N(m), probability of each):")
    probs = pathway_probabilities(dist)
    for m, n in sorted(dist.per_divisor.items()):
        if n == 0:
            continue
        lines.append(f"{m:>6} {n:<60} {probs[m]}")
    lines.append("")
    lines.append(f"pathways total: {dist.pathway_total}")
    lines.append(f"sum of m * N(m): "
                 f"{sum(m * n for m, n in dist.per_divisor.items())}")
    sizes = [m for m, n in sorted(dist.per_divisor.items()) if n]
    if len(sizes) > 1:
        small, large = sizes[0], sizes[-1]
        ratio = Fraction(large, small)
        count_ratio = Fraction(dist.per_divisor[large], dist.per_divisor[small])
        magnitude = len(str(count_ratio.numerator // count_ratio.denominator)) - 1
        lines.append("")
        lines.append(
            f"each size-{large} pathway is {ratio} times more probable than a "
            f"size-{small} one, but there are about 10^{magnitude} times more of them "
            f"(N({large})/N({small}) = {count_ratio})")
    return "\n".join(lines) + "\n"
