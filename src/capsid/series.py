"""The functional equations counting fixed assembly trees, solved in
integers.

The EGF of the counts t_n(H) is f_H(x) = sum over n of t_n(H) x^n / n!.

The base equation, with f the EGF of all assembly-tree counts, is

    1 - x + 2 f(x) = exp(f(x))

and for a group G of order > 1 acting simply, with one summand per subgroup,

    1 + 2 f_G(x) = exp( sum over H <= G of f_H((G:H) x) / (G:H) ).

Conjugate subgroups have equal counts, so the whole family is solved
bottom-up over the census's conjugacy classes (``SubgroupClass.below``),
each new count from lower-order data; no subgroup lattice is built.

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

from typing import Sequence

from .perms import PermGroup, SubgroupClass


def class_tree_counts(classes: Sequence[SubgroupClass],
                      orders: dict[int, int]) -> list[list[int]]:
    """The integer counts t_0..t_N(H) for the conjugacy classes ``classes``
    of a group's subgroups, in the census order.

    ``orders`` maps a class index to the order it needs.  Each class is
    solved to the largest order that it or any class above it needs; the
    result holds one count list per class, ``[0]`` for a class nothing
    needs.  Conjugate subgroups share their counts, so one solve per class
    in census order (smaller subgroups first) suffices.

    For the class of H, w_n = sum over K < H of t_n(K) * (H:K)**(n-1), read
    off the class's ``below`` pairs, and u = t + w.  The trivial class 0
    (w = 0) comes whole from :func:`base_tree_series`, the diagonal sums,
    before the order loop; every other class takes the convolution
    t_n = w_n + 2 sum C(n-1, k-1) u_k t_{n-k} of the module docstring, one
    order at a time.
    """
    # below[c]: (class d, members k, index (H:K)) over the classes below H
    order = [cls.representative.order for cls in classes]
    below = [[(d, k, order[c] // order[d]) for d, k in cls.below]
             for c, cls in enumerate(classes)]
    need = [0] * len(classes)
    for c, n in orders.items():
        need[c] = n
    for c in reversed(range(len(classes))):
        for d, _, _ in below[c]:
            need[d] = max(need[d], need[c])
    t = [[0] * (n + 1) for n in need]
    if need[0]:
        t[0] = base_tree_series(need[0])
    u = [[0] * (n + 1) for n in need]
    row = [1]   # C(n-1, k) for k = 0..n-1
    for n in range(1, max(need) + 1):
        for c in range(1, len(classes)):
            if need[c] < n:
                continue
            tc, uc = t[c], u[c]
            w = sum(k * t[d][n] * m ** (n - 1) for d, k, m in below[c])
            tc[n] = w + 2 * sum(b * uk * tj for b, uk, tj
                                in zip(row, uc[1:n], tc[n - 1:0:-1]))
            uc[n] = tc[n] + w
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return t


def fixed_tree_series(group: PermGroup, order: int) -> list[int]:
    """t_0..t_order of G, with t_0 = 0: t_n is the number of assembly trees
    on n*|G| leaves fixed by every element of G, for a group acting simply.

    Solved over G's subgroup classes, the last of which is G.  For the
    trivial group t_n is the total count of trees on n leaves.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not group.is_simple_action():
        raise ValueError("the group action is not simple")
    classes = group.conjugacy_classes_of_subgroups()
    return class_tree_counts(classes, {len(classes) - 1: order})[-1]


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
