"""The functional equations counting fixed assembly trees, solved in
integers.

The EGF of the counts t_n(H) is f_H(x) = sum over n of t_n(H) x^n / n!.

The base equation, with f the EGF of all assembly-tree counts, is

    1 - x + 2 f(x) = exp(f(x))

and for a group G of order > 1 acting simply, with one summand per subgroup,

    1 + 2 f_G(x) = exp( sum over H <= G of f_H((G:H) x) / (G:H) ).

Every subgroup of G is a node of G's subgroup lattice, and conjugate
subgroups have equal counts, so the whole family is solved bottom-up over
the lattice's conjugacy classes, each new count from lower-order data.

For H = 1, Lagrange inversion of x = 1 + 2f - exp(f) gives a closed form
with no big-by-big products,

    t_n = sum_{k=0}^{n-1} S(n-1+k, k),

where S(m, k), the associated Stirling numbers of the second kind, count
the partitions of an m-set into k blocks of size at least 2 (Comtet,
*Advanced Combinatorics*, 1974, ch. 3; OEIS A008299).  From
S(m, k) = k S(m-1, k) + (m-1) S(m-2, k-1), the diagonal D_d[k] = S(k+d, k)
follows from the one before it, D_d[k] = k D_{d-1}[k] + (k+d-1) D_{d-1}[k-1],
and t_{d+1} is the sum of D_d.

For H != 1, with u the EGF of the argument of exp, 1 + 2t = exp(u) gives
2t' = u'(1 + 2t), so

    t_n = w_n + 2 sum_{k=1}^{n-1} C(n-1,k-1) u_k t_{n-k},

where u = t + w and w_n gathers the lower classes' counts (see
:func:`class_tree_counts`).
"""

from __future__ import annotations

from collections import Counter

from .lattice import SubgroupLattice, build_lattice
from .perms import PermGroup


def class_tree_counts(lat: SubgroupLattice,
                      orders: dict[int, int]) -> list[list[int]]:
    """The integer counts t_0..t_N(H) for the conjugacy classes of ``lat``.

    ``orders`` maps a class index to the order it needs.  Each class is
    solved to the largest order that it or any class above it needs; the
    result holds one count list per class, ``[0]`` for a class nothing
    needs.  Conjugate subgroups share their counts, so one solve per class
    in ``lat.classes`` order (smaller subgroups first) suffices.

    For the class of H, w_n = sum over nodes K < H of t_n(K) * (H:K)**(n-1)
    and u = t + w; the nodes K < H are the k < h whose ``lat.mobius`` row
    has H's index h as a key.  The trivial class (w = 0) comes whole from
    :func:`base_tree_series`, the diagonal sums, before the order loop;
    every other class takes the convolution
    t_n = w_n + 2 sum C(n-1, k-1) u_k t_{n-k} of the module docstring, one
    order at a time.
    """
    classes = lat.classes
    # below[c]: ((class of K, (H:K)), multiplicity) over the nodes K < H
    below = []
    for cls in classes:
        h = lat.index_of(cls.representative)
        below.append(list(Counter(
            (lat.node_class[k], lat.nodes[h].order // lat.nodes[k].order)
            for k in range(h) if h in lat.mobius[k]).items()))
    need = [0] * len(classes)
    for c, order in orders.items():
        need[c] = order
    for c in reversed(range(len(classes))):
        for (k, _), _ in below[c]:
            need[k] = max(need[k], need[c])
    trivial = lat.node_class[0]
    t = [[0] * (n + 1) for n in need]
    if need[trivial]:
        t[trivial] = base_tree_series(need[trivial])
    u = [[0] * (n + 1) for n in need]
    row = [1]   # C(n-1, k) for k = 0..n-1
    for n in range(1, max(need) + 1):
        for c in range(len(classes)):
            if c == trivial or need[c] < n:
                continue
            tc, uc = t[c], u[c]
            w = sum(mult * t[k][n] * m ** (n - 1)
                    for (k, m), mult in below[c])
            tc[n] = w + 2 * sum(b * uk * tj for b, uk, tj
                                in zip(row, uc[1:n], tc[n - 1:0:-1]))
            uc[n] = tc[n] + w
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return t


def fixed_tree_series(group: PermGroup, order: int) -> list[int]:
    """t_0..t_order of G, with t_0 = 0: t_n is the number of assembly trees
    on n*|G| leaves fixed by every element of G, for a group acting simply.

    Solved over G's own lattice.  For the trivial group t_n is the total
    count of trees on n leaves.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not group.is_simple_action():
        raise ValueError("the group action is not simple")
    lat = build_lattice(group)
    top = lat.node_class[-1]
    return class_tree_counts(lat, {top: order})[top]


def base_tree_series(order: int) -> list[int]:
    """The total assembly-tree counts 0, 1, 1, 4, 26, 236, 2752, ..., whose
    EGF f solves 1 - x + 2 f = exp(f): t_{d+1} sums the diagonal D_d of
    associated Stirling numbers, each diagonal updated in place."""
    if order < 1:
        raise ValueError("order must be >= 1")
    t, diagonal = [0, 1], [1]   # D_0 = [S(0, 0)]
    for d in range(1, order):
        diagonal.append(0)
        for k in range(d, 0, -1):
            diagonal[k] = k * diagonal[k] + (k + d - 1) * diagonal[k - 1]
        diagonal[0] = 0   # S(d, 0) = 0 once d >= 1
        t.append(sum(diagonal))
    return t


def fixed_tree_count(group: PermGroup, n: int) -> int:
    """t_n(G): the number of assembly trees on n*|G| leaves fixed by G."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return fixed_tree_series(group, n)[n]
