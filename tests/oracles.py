"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the code paths they check: stabilizers come from
acting with every element, orbit partitions from exhaustive orbits of the
enumerated tree list, the subgroup census from a plain fixpoint on image
tuples, and counts from a direct set-partition recursion or a plain integer
recurrence, neither of which touches the generating-function solver.  The
three identity checks read counts from the public solver but do their own
arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial
from operator import itemgetter

from capsid.perms import PermGroup, Permutation, close_generators
from capsid.series import fixed_tree_count, fixed_tree_series
from capsid.trees import AssemblyTree, act, enumerate_all_trees


def vertices(tau: AssemblyTree) -> list[AssemblyTree]:
    """Every vertex of tau, as a subtree, in preorder."""
    found, stack = [], [tau]
    while stack:
        v = stack.pop()
        found.append(v)
        stack.extend(reversed(v.children))
    return found


def brute_stabilizer(group: PermGroup, tau: AssemblyTree) -> list[Permutation]:
    return [g for g in group.elements if act(g, tau) == tau]


def brute_orbit_partition(group: PermGroup, labels) -> list[set[AssemblyTree]]:
    """All pathway orbits obtained by exhaustive action on the enumerated
    tree list."""
    orbits = []
    seen: set[AssemblyTree] = set()
    for tau in enumerate_all_trees(labels):
        if tau in seen:
            continue
        orbit = {act(g, tau) for g in group.elements}
        seen |= orbit
        orbits.append(orbit)
    return orbits


def brute_fixed_trees(group: PermGroup, labels) -> set[AssemblyTree]:
    gens = group.generators or (group.identity,)
    return {tau for tau in enumerate_all_trees(labels)
            if all(act(g, tau) == tau for g in gens)}


def element_order(p: Permutation) -> int:
    """The least k >= 1 with p**k the identity, composing image tuples."""
    identity = tuple(range(1, len(p.images) + 1))
    power, k = p.images, 1
    while power != identity:
        power = tuple(p.images[y - 1] for y in power)
        k += 1
    return k


def _inverse_images(images: tuple) -> tuple:
    """The images of the inverse: point y goes to the x with images[x-1] = y."""
    inverse = [0] * len(images)
    for x, y in enumerate(images, 1):
        inverse[y - 1] = x
    return tuple(inverse)


def join_images(sub: frozenset, gens, times: dict) -> frozenset:
    """The group of image tuples generated by the group ``sub`` and
    ``gens``, which must include generators of ``sub``: one right coset
    ``sub * r`` at a time, until right multiplication by each of ``gens``
    leads to no new coset (Dimino's method).  ``times[g]`` maps a to a * g."""
    elements, reps = set(sub), [min(sub)]  # the identity is the least tuple
    for r in reps:
        for g in gens:
            e = times[g](r)
            if e not in elements:
                elements.update(map(times[e], sub))
                reps.append(e)
    return frozenset(elements)


def brute_subgroups(group: PermGroup) -> list[list[frozenset]]:
    """The conjugacy classes of subgroups, each subgroup a frozenset of image
    tuples.  Members and classes are ordered by (order, sorted images), so
    the first member of each class is its least.  Needs degree 2 or more.

    Every subgroup is found by the plain fixpoint: seed with the cyclic
    subgroups, then join every new subgroup with every cyclic subgroup not
    inside it until nothing new appears.  Classes come from conjugating
    every subgroup by every element.
    """
    # (a * b)(x) = a(b(x)), so a * b reads a at the points b[x] - 1
    times = {p.images: itemgetter(*(x - 1 for x in p.images))
             for p in group.elements}
    trivial = frozenset([group.identity.images])
    cyclics = {}
    for p in group.elements:
        cyclics.setdefault(join_images(trivial, [p.images], times), p.images)
    known = {cyc: (c,) for cyc, c in cyclics.items()}
    worklist = list(known.items())
    while worklist:
        grown = []
        for sub, gens in worklist:
            for cyc, c in cyclics.items():
                if cyc <= sub:
                    continue
                join = join_images(sub, gens + (c,), times)
                if join not in known:
                    known[join] = gens + (c,)
                    grown.append((join, gens + (c,)))
        worklist = grown

    def key(sub):
        return len(sub), sorted(sub)

    pairs = [(p.images, times[_inverse_images(p.images)])
             for p in group.elements]
    classes, assigned = [], set()
    for sub in sorted(known, key=key):
        if sub in assigned:
            continue
        conjugates = {frozenset(by_g_inv(times[h](g)) for h in sub)
                      for g, by_g_inv in pairs}
        assigned |= conjugates
        classes.append(sorted(conjugates, key=key))
    return classes


def set_partitions(items: tuple):
    """Every partition of ``items`` into blocks, each a tuple."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    n_rest = len(rest)
    for mask in range(1 << n_rest):
        block = (first,) + tuple(rest[i] for i in range(n_rest) if mask >> i & 1)
        remaining = tuple(rest[i] for i in range(n_rest) if not mask >> i & 1)
        for sub in set_partitions(remaining):
            yield (block,) + sub


def brute_block_systems(group: PermGroup) -> list[frozenset]:
    """Every set partition of the points, as a frozenset of blocks, that each
    generator maps onto itself."""
    gens = group.generators or (group.identity,)
    systems = []
    for blocks in set_partitions(tuple(range(1, group.degree + 1))):
        system = frozenset(frozenset(b) for b in blocks)
        if all(frozenset(g(x) for x in b) in system
               for g in gens for b in system):
            systems.append(system)
    return systems


def count_trees_by_partition_recursion(n: int) -> int:
    """Tree count by recursing over root set-partitions, memoized by label
    subset; independent of the EGF solver."""
    memo: dict[tuple, int] = {}

    def count(labels: tuple) -> int:
        if len(labels) == 1:
            return 1
        if labels in memo:
            return memo[labels]
        total = 0
        for blocks in set_partitions(labels):
            if len(blocks) == 1:
                continue
            product = 1
            for b in blocks:
                product *= count(b)
            total += product
        memo[labels] = total
        return total

    return count(tuple(range(n)))


def tree_counts_by_recurrence(n: int, modulus: int | None = None) -> list[int]:
    """Numbers of trees on 0..n labeled leaves (OEIS A000311), by integer
    recurrences alone; independent of ``capsid.series``.  With ``modulus``,
    every count is reduced modulo it, binomials included.

    With A the tree counts and G the counts of exp(A) (forests: set
    partitions into blocks, each carrying a tree),
    G_n = sum_{k=1}^{n} C(n-1,k-1) A_k G_{n-k} with G_0 = 1, and
    A_n = sum_{k=1}^{n-1} C(n-1,k-1) A_k G_{n-k} for n >= 2: the root's
    children are a forest of at least two trees, which is G_n less its
    k = n term, the single tree.
    """
    a = [0] * (n + 1)
    g = [1] + [0] * n
    row = [1]   # C(m-1, k-1) for k = 1..m
    for m in range(1, n + 1):
        if m > 1:
            row = [1] + [x + y for x, y in zip(row, row[1:])] + [1]
            if modulus:
                row = [x % modulus for x in row]
        forests = sum(b * a[k] * g[m - k]
                      for k, b in zip(range(1, m), row))
        a[m] = 1 if m == 1 else forests
        g[m] = forests + a[m]   # the k = m term is C(m-1,m-1) A_m G_0
        if modulus:
            a[m] %= modulus
            g[m] %= modulus
    return a


def count_trees_by_recurrence(n: int) -> int:
    """Number of trees on n labeled leaves: the last entry of
    :func:`tree_counts_by_recurrence`."""
    return tree_counts_by_recurrence(n)[n]


def functional_equation_holds(group: PermGroup, counts: list[int]) -> bool:
    """Whether the counts t_0..t_N of ``group`` satisfy, through order N,

        1 - [G = 1] x + 2 f_G(x) = exp( sum over H <= G of f_H((G:H) x) / (G:H) )

    with f_H the EGF of t(H).  Proper subgroups' counts come from
    ``fixed_tree_series``; exp(a) is b with b' = a'b."""
    top = len(counts) - 1
    a = [Fraction(0)] * (top + 1)
    for sub in group.all_subgroups():
        index = group.order // sub.order
        t = counts if index == 1 else fixed_tree_series(sub, top)
        for n in range(1, top + 1):
            a[n] += Fraction(t[n] * index ** (n - 1), factorial(n))
    b = [Fraction(1)] + [Fraction(0)] * top
    for m in range(1, top + 1):
        b[m] = sum(k * a[k] * b[m - k] for k in range(1, m + 1)) / m
    lhs = [Fraction(2 * t, factorial(n)) for n, t in enumerate(counts)]
    lhs[0] += 1
    if group.order == 1:
        lhs[1] -= 1
    return b == lhs


def composition_identity_holds(lat, counts: list[list[int]]) -> bool:
    """Whether every class H != 1 of the lattice ``lat`` satisfies
    u_H = f(2 w_H) through the order of its count list ``counts[c]``.

    f is the EGF of :func:`tree_counts_by_recurrence`, w_n(H) is the sum over
    nodes K < H of t_n(K) (H:K)^(n-1), and u = t + w.  Proof: 1 + 2t = e^u
    and u = t + w give 1 - 2w + 2u = e^u, so 2w = F(u) with
    F(y) = 1 + 2y - e^y, and f inverts F by the base equation x = F(f).
    The composition is done here in Fractions, term by term."""
    for c, cls in enumerate(lat.classes):
        h = lat.index_of(cls.representative)
        if h == 0:
            continue
        top = len(counts[c]) - 1
        f = tree_counts_by_recurrence(top)
        w = [sum(counts[lat.node_class[k]][n]
                 * (lat.nodes[h].order // lat.nodes[k].order) ** (n - 1)
                 for k in range(h) if lat.leq[k][h]) if n else 0
             for n in range(top + 1)]
        u = [Fraction(t + wn, factorial(n))
             for n, (t, wn) in enumerate(zip(counts[c], w))]
        two_w = [Fraction(2 * wn, factorial(n)) for n, wn in enumerate(w)]
        composed = [Fraction(0)] * (top + 1)
        power = [Fraction(1)] + [Fraction(0)] * top   # (2w)^m, from m = 0
        for m in range(1, top + 1):
            power = [sum(power[i] * two_w[n - i] for i in range(n + 1))
                     for n in range(top + 1)]
            for n in range(top + 1):
                composed[n] += Fraction(f[m], factorial(m)) * power[n]
        if composed != u:
            return False
    return True


def burnside_total(group: PermGroup) -> int:
    """The number of pathways by Burnside's lemma: the mean over g of the
    trees g fixes, t(<g>), with <g> closed from g alone."""
    fixed: dict[PermGroup, int] = {}
    total = 0
    for g in group.elements:
        cyclic = close_generators([g], group.degree)
        if cyclic not in fixed:
            fixed[cyclic] = fixed_tree_count(cyclic, group.degree // cyclic.order)
        total += fixed[cyclic]
    assert total % group.order == 0, "Burnside mean is not integral"
    return total // group.order


def random_tree(rng: random.Random, labels) -> AssemblyTree:
    """A uniform-ish random assembly tree: random root partition into >= 2
    blocks, recurse."""
    labels = sorted(labels)
    if len(labels) == 1:
        return AssemblyTree.leaf(labels[0])
    while True:
        buckets: dict[int, list[int]] = {}
        k = rng.randint(2, len(labels))
        for x in labels:
            buckets.setdefault(rng.randrange(k), []).append(x)
        if len(buckets) >= 2:
            break
    return AssemblyTree.node(random_tree(rng, b) for b in buckets.values())


def random_permutation(rng: random.Random, degree: int) -> Permutation:
    images = list(range(1, degree + 1))
    rng.shuffle(images)
    return Permutation(images)
