"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the code paths they check: stabilizers come from
acting with every element, orbit partitions from exhaustive orbits of the
enumerated tree list, and counts from a direct set-partition recursion or a
plain integer recurrence, neither of which touches the generating-function
solver.
"""

from __future__ import annotations

import random
from math import comb

from capsid.perms import PermGroup, Permutation
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


def count_trees_by_recurrence(n: int) -> int:
    """Number of trees on n labeled leaves (OEIS A000311), by integer
    recurrences alone; independent of ``capsid.series``.

    With A the tree counts and G the counts of exp(A) (forests: set
    partitions into blocks, each carrying a tree),
    G_n = sum_{k=1}^{n} C(n-1,k-1) A_k G_{n-k} with G_0 = 1, and
    A_n = sum_{k=1}^{n-1} C(n-1,k-1) A_k G_{n-k} for n >= 2: the root's
    children are a forest of at least two trees, which is G_n less its
    k = n term, the single tree.
    """
    a = [0] * (n + 1)
    g = [1] + [0] * n
    for m in range(1, n + 1):
        a[m] = 1 if m == 1 else sum(comb(m - 1, k - 1) * a[k] * g[m - k]
                                    for k in range(1, m))
        g[m] = sum(comb(m - 1, k - 1) * a[k] * g[m - k]
                   for k in range(1, m + 1))
    return a[n]


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
