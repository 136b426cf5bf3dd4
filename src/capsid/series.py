"""The functional equations counting fixed assembly trees, solved in
integers.

The EGF of the counts t_n(H) is f_H(x) = sum over n of t_n(H) x^n / n!.

The base equation, with f the EGF of all assembly-tree counts, is

    1 - x + 2 f(x) = exp(f(x))

and for a group G of order > 1 acting simply, with one summand per subgroup,

    1 + 2 f_G(x) = exp( sum over H <= G of f_H((G:H) x) / (G:H) ).

Every subgroup of G is a node of G's subgroup lattice, and conjugate
subgroups have equal counts, so the whole family is solved bottom-up over
the lattice's conjugacy classes, each new count from lower-order data.  Two
recurrences do it, both binomial convolutions read off a derivative.

For H = 1, differentiating the base equation gives 2f' - 1 = f' exp(f),
and exp(f) = 1 - x + 2f turns that into f'(1 + x - 2f) = 1, so

    t_n = [n = 1] - (n-1) t_{n-1} + sum_{k=1}^{n-1} C(n,k) t_k t_{n-k}.

The sum is symmetric in k <-> n-k: half its terms and, for even n, one
middle square give it, so it costs about n/2 big products.

For H != 1, with u the EGF of the argument of exp, 1 + 2t = exp(u) gives
2t' = u'(1 + 2t), so

    t_n = w_n + 2 sum_{k=1}^{n-1} C(n-1,k-1) u_k t_{n-k},

where u = t + w and w_n gathers the lower classes' counts (see
:func:`class_tree_counts`).  That costs n - 1 big products per order; a
symmetric form of it, over u and t, would cost about 1.5n, so only the
trivial class, which is also the one solved to the highest order, uses the
symmetric recurrence.
"""

from __future__ import annotations

from collections import Counter

from .lattice import SubgroupLattice, build_lattice
from .perms import PermGroup, trivial_group


def class_tree_counts(lat: SubgroupLattice,
                      orders: dict[int, int]) -> list[list[int]]:
    """The integer counts t_0..t_N(H) for the conjugacy classes of ``lat``.

    ``orders`` maps a class index to the order it needs.  Each class is
    solved to the largest order that it or any class above it needs; the
    result holds one count list per class, ``[0]`` for a class nothing
    needs.  Conjugate subgroups share their counts, so one solve per class
    in ``lat.classes`` order (smaller subgroups first) suffices.

    For the class of H, w_n = sum over nodes K < H of t_n(K) * (H:K)**(n-1)
    and u = t + w.  The trivial class has w = 0 and, from
    f'(1 + x - 2f) = 1,

        t_n = [n = 1] - (n-1) t_{n-1} + sum_{k=1}^{n-1} C(n,k) t_k t_{n-k},

    whose sum is twice its terms below n/2 plus, for even n, the middle
    square.  Every other class, from 2t' = u'(1 + 2t),

        t_n = w_n + 2 sum_{k=1}^{n-1} C(n-1, k-1) u_k t_{n-k}.

    The symmetric form would cost the other classes about 1.5n big products
    against n - 1, so they keep this one.
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
    row = [1]   # C(n, k) for k = 0..n
    for n in range(1, max(need) + 1):
        prev, row = row, [1] + [a + b for a, b in zip(row, row[1:])] + [1]
        for c in range(len(classes)):
            if need[c] < n:
                continue
            tc, uc = t[c], u[c]
            if c == trivial:
                h = (n - 1) // 2
                s = 2 * sum(b * tk * tj for b, tk, tj in zip(
                    row[1:h + 1], tc[1:h + 1], tc[n - 1:n - h - 1:-1]))
                if n % 2 == 0:
                    s += row[n // 2] * tc[n // 2] ** 2
                tc[n] = s - (n - 1) * tc[n - 1] + (n == 1)
            else:
                w = sum(mult * t[k][n] * m ** (n - 1)
                        for (k, m), mult in below[c])
                tc[n] = w + 2 * sum(b * uk * tj for b, uk, tj
                                    in zip(prev, uc[1:n], tc[n - 1:0:-1]))
                uc[n] = tc[n] + w
    return t


def fixed_tree_series(group: PermGroup, order: int) -> list[int]:
    """t_0..t_order of G, with t_0 = 0: t_n is the number of assembly trees
    on n*|G| leaves fixed by every element of G, for a group acting simply.

    Solved over G's own lattice.  For the trivial group t_n is the total
    count of trees on n leaves.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    lat = build_lattice(group)
    top = lat.node_class[-1]
    return class_tree_counts(lat, {top: order})[top]


def base_tree_series(order: int) -> list[int]:
    """The total assembly-tree counts 0, 1, 1, 4, 26, 236, 2752, ...,
    whose EGF f solves 1 - x + 2 f = exp(f)."""
    return fixed_tree_series(trivial_group(1), order)


def fixed_tree_count(group: PermGroup, n: int) -> int:
    """t_n(G): the number of assembly trees on n*|G| leaves fixed by G."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return fixed_tree_series(group, n)[n]
