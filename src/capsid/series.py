"""The functional equations counting fixed assembly trees, solved in
integers, and exact truncated exponential generating functions.

The counts t_n(H) are integers and are computed as integers.  A series with
coefficients c_0..c_N represents an EGF, so the count at index n is
c_n * n!; Fractions appear only in :class:`PowerSeries`, which the wrappers
build as t_n / n!, and in the residual check.  No floating point.

The base equation, with f the EGF of all assembly-tree counts, is

    1 - x + 2 f(x) = exp(f(x))

and for a group G of order > 1 acting simply, with one summand per subgroup,

    1 + 2 f_G(x) = exp( sum over H <= G of f_H((G:H) x) / (G:H) ).

Every subgroup of G is a node of G's subgroup lattice, and conjugate
subgroups have equal counts, so the whole family is solved bottom-up over
the lattice's conjugacy classes by one recurrence: the unknown enters the
right side linearly through the exponential's degree-one term, so each new
count is determined by lower-order data.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .lattice import SubgroupLattice, build_lattice
from .perms import PermGroup, trivial_group


@dataclass(frozen=True)
class PowerSeries:
    """A truncated EGF with exact rational coefficients c_0..c_order."""
    order: int
    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coefficients) != self.order + 1:
            raise ValueError("coefficient count must be order + 1")

    def __getitem__(self, n: int) -> Fraction:
        return self.coefficients[n]

    def count(self, n: int) -> int:
        """The integer count c_n * n!; raises if it is not a non-negative
        integer, which would mean a solver bug upstream."""
        value = self.coefficients[n] * math.factorial(n)
        if value.denominator != 1 or value < 0:
            raise ArithmeticError(
                f"coefficient {n} gives non-integer or negative count {value}")
        return int(value)

    def counts(self) -> list[int]:
        return [self.count(n) for n in range(self.order + 1)]


def zero_series(order: int) -> PowerSeries:
    return PowerSeries(order, (Fraction(0),) * (order + 1))


def constant_series(value, order: int) -> PowerSeries:
    return PowerSeries(order, (Fraction(value),) + (Fraction(0),) * order)


def series_add(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    _check_orders(a, b)
    return PowerSeries(a.order, tuple(x + y for x, y in
                                      zip(a.coefficients, b.coefficients)))


def series_sub(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    _check_orders(a, b)
    return PowerSeries(a.order, tuple(x - y for x, y in
                                      zip(a.coefficients, b.coefficients)))


def series_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    _check_orders(a, b)
    n = a.order
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a.coefficients):
        if not ai:
            continue
        for j in range(n + 1 - i):
            bj = b.coefficients[j]
            if bj:
                out[i + j] += ai * bj
    return PowerSeries(n, tuple(out))


def scalar_mul(a: PowerSeries, q) -> PowerSeries:
    q = Fraction(q)
    return PowerSeries(a.order, tuple(q * c for c in a.coefficients))


def scale_argument(a: PowerSeries, k: int) -> PowerSeries:
    """The series a(kx): multiplies c_n by k**n."""
    if k < 1:
        raise ValueError("argument scale must be a positive integer")
    return PowerSeries(a.order,
                       tuple(c * k ** n for n, c in enumerate(a.coefficients)))


def series_exp(a: PowerSeries) -> PowerSeries:
    """exp(a) for a series with zero constant term.

    Uses b_n = (1/n) * sum_{k=1..n} k a_k b_{n-k}, the recurrence from
    b' = a' b.
    """
    if a.coefficients[0] != 0:
        raise ValueError("series_exp needs a zero constant term")
    n = a.order
    b = [Fraction(1)] + [Fraction(0)] * n
    ac = a.coefficients
    for m in range(1, n + 1):
        b[m] = sum((k * ac[k] * b[m - k] for k in range(1, m + 1)),
                   Fraction(0)) / m
    return PowerSeries(n, tuple(b))


def _check_orders(a: PowerSeries, b: PowerSeries) -> None:
    if a.order != b.order:
        raise ValueError("truncation orders differ")


# -- the tree-count solver ---------------------------------------------------

def class_tree_counts(lat: SubgroupLattice,
                      orders: dict[int, int]) -> list[list[int]]:
    """The integer counts t_0..t_N(H) for the conjugacy classes of ``lat``.

    ``orders`` maps a class index to the order it needs.  Each class is
    solved to the largest order that it or any class above it needs; the
    result holds one count list per class, ``[0]`` for a class nothing
    needs.  Conjugate subgroups share their counts, so one solve per class
    in ``lat.classes`` order (smaller subgroups first) suffices.

    For the class of H, with w_n = sum over nodes K < H of
    t_n(K) * (H:K)**(n-1) and u = t + w, the equation for g = exp(u) read
    through g' = u' g as a binomial convolution gives

        t_n = [H = 1 and n = 1] + w_n + sum_{k=1}^{n-1} C(n-1, k-1) u_k g_{n-k}

    with g_0 = 1 and g_n = 2 t_n - [H = 1 and n = 1].
    """
    classes = lat.classes
    # below[c]: ((class of K, (H:K)), multiplicity) over the nodes K < H
    below = []
    for cls in classes:
        h = lat.index_of(cls.representative)
        below.append(list(Counter(
            (lat.node_class[k], lat.nodes[h].order // lat.nodes[k].order)
            for k in range(h) if lat.leq[k][h]).items()))
    need = [0] * len(classes)
    for c, order in orders.items():
        need[c] = order
    for c in reversed(range(len(classes))):
        for (k, _), _ in below[c]:
            need[k] = max(need[k], need[c])
    trivial = lat.node_class[0]
    t = [[0] * (n + 1) for n in need]
    u = [[0] * (n + 1) for n in need]
    g = [[1] + [0] * n for n in need]
    row = [1]   # C(n-1, k-1) for k = 1..n
    for n in range(1, max(need) + 1):
        if n > 1:
            row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
        for c in range(len(classes)):
            if need[c] < n:
                continue
            tc, uc, gc = t[c], u[c], g[c]
            w = sum(mult * t[k][n] * m ** (n - 1) for (k, m), mult in below[c])
            s = w + sum(b * uk * gk for b, uk, gk
                        in zip(row, uc[1:n], gc[n - 1:0:-1]))
            tc[n] = s + 1 if c == trivial and n == 1 else s
            uc[n] = tc[n] + w
            gc[n] = tc[n] + s   # 2 t_n - [H = 1 and n = 1]
    return t


def _group_counts(group: PermGroup, order: int) -> list[int]:
    """t_0..t_order of ``group`` itself, solved over its own lattice."""
    if order < 1:
        raise ValueError("order must be >= 1")
    lat = build_lattice(group)
    top = lat.node_class[-1]
    return class_tree_counts(lat, {top: order})[top]


def _egf(counts: list[int]) -> PowerSeries:
    return PowerSeries(len(counts) - 1,
                       tuple(Fraction(c, math.factorial(n))
                             for n, c in enumerate(counts)))


def base_tree_series(order: int) -> PowerSeries:
    """The EGF of the total assembly-tree counts 1, 1, 4, 26, 236, 2752, ...

    Solves 1 - x + 2 f = exp(f) with f(0) = 0.
    """
    return _egf(_group_counts(trivial_group(1), order))


def tree_count(n: int) -> int:
    """The number of assembly trees on n labeled leaves."""
    return _group_counts(trivial_group(1), n)[n]


def subgroup_summands(group: PermGroup) -> list[tuple[int, PermGroup]]:
    """The (index, subgroup) pairs whose scaled series sum sits inside the
    exponential of the group's functional equation; one entry per subgroup,
    the group itself included."""
    return [(group.order // sub.order, sub)
            for sub in group.all_subgroups()]


def fixed_tree_series(group: PermGroup, order: int) -> PowerSeries:
    """The EGF of t_n(G): the number of assembly trees on n*|G| leaves fixed
    by every element of G, for a group acting simply.

    For the trivial group this is :func:`base_tree_series`.
    """
    return _egf(_group_counts(group, order))


def fixed_tree_count(group: PermGroup, n: int) -> int:
    """t_n(G): the number of assembly trees on n*|G| leaves fixed by G.

    For the trivial group this is the total count of trees on n leaves.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _group_counts(group, n)[n]


def verify_functional_equation(group: PermGroup, series: PowerSeries) -> bool:
    """Substitute a solved series back into its defining equation, in
    Fraction arithmetic; the residual must vanish through the truncation
    order."""
    order = series.order
    lat = build_lattice(group)
    counts = class_tree_counts(lat, {lat.node_class[-1]: order})
    total = zero_series(order)
    for index, sub in subgroup_summands(group):
        if sub.order == group.order:
            inner = series
        else:
            inner = _egf(counts[lat.node_class[lat.index_of(sub)]])
        total = series_add(total,
                           scalar_mul(scale_argument(inner, index),
                                      Fraction(1, index)))
    lhs = series_add(constant_series(1, order), scalar_mul(series, 2))
    return series_sub(series_exp(total), lhs) == zero_series(order)
