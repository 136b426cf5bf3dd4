"""Benchmark inputs, made from fixed generators and a seed, and the exact
identities the output checks use.

Nothing here imports ``capsid``: the group files, the seeded trees, the
tree-count recurrence and the brute stabilizer count are computed with
plain Python so that they stay independent of the code under test.
Permutations are tuples of 0-based images; the files written for the CLI
use 1-based cycle notation.
"""

from __future__ import annotations

import math
import random

Perm = tuple  # 0-based images


# -- permutations and groups -------------------------------------------------

def compose(a: Perm, b: Perm) -> Perm:
    """The permutation x -> a(b(x))."""
    return tuple(a[x] for x in b)


def close(gens: list[Perm]) -> list[Perm]:
    """All elements of the group generated by ``gens``, sorted."""
    degree = len(gens[0])
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = compose(a, g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return sorted(seen)


def from_cycles(cycles: list[tuple[int, ...]], degree: int) -> Perm:
    """A permutation of 0..degree-1 from 1-based cycles."""
    img = list(range(degree))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            img[x - 1] = cyc[(i + 1) % len(cyc)] - 1
    return tuple(img)


def cycle_text(p: Perm) -> str:
    """1-based cycle notation, ``()`` for the identity."""
    done = set()
    out = []
    for start in range(len(p)):
        if start in done or p[start] == start:
            continue
        cyc = []
        x = start
        while x not in done:
            done.add(x)
            cyc.append(str(x + 1))
            x = p[x]
        out.append("(" + " ".join(cyc) + ")")
    return "".join(out) or "()"


def regular_action(gens: list[Perm]) -> list[Perm]:
    """Generators of the group acting on its own sorted element list by left
    multiplication: a simple action with a single orbit."""
    elements = close(gens)
    index = {e: i for i, e in enumerate(elements)}
    return [tuple(index[compose(g, e)] for e in elements) for g in gens]


def replicate(gens: list[Perm], copies: int) -> list[Perm]:
    """The same generators acting on ``copies`` disjoint copies of the points."""
    n = len(gens[0])
    return [tuple(c * n + g[x] for c in range(copies) for x in range(n))
            for g in gens]


def group_text(gens: list[Perm]) -> str:
    """The CLI's group file format: a ``degree N`` line, then generators."""
    lines = [f"degree {len(gens[0])}"] + [cycle_text(g) for g in gens]
    return "\n".join(lines) + "\n"


SYMMETRIC5 = [from_cycles([(1, 2, 3, 4, 5)], 5), from_cycles([(1, 2)], 5)]
SYMMETRIC4 = [from_cycles([(1, 2, 3, 4)], 4), from_cycles([(1, 2)], 4)]
ALTERNATING5 = [from_cycles([(1, 2, 3, 4, 5)], 5), from_cycles([(1, 2, 3)], 5)]
KLEIN4 = [from_cycles([(1, 2), (3, 4)], 4), from_cycles([(1, 3), (2, 4)], 4)]
CYCLIC6 = [from_cycles([(1, 2, 3, 4, 5, 6)], 6)]


def group_files() -> dict[str, str]:
    """File name -> text of every group file the workloads read."""
    a5 = regular_action(ALTERNATING5)
    return {
        "s5_regular.txt": group_text(regular_action(SYMMETRIC5)),
        "s4_regular.txt": group_text(regular_action(SYMMETRIC4)),
        "klein4_x3.txt": group_text(replicate(KLEIN4, 3)),
        "cyclic6_x3.txt": group_text(replicate(CYCLIC6, 3)),
        "a5_regular.txt": group_text(a5),
        "a5_regular_x3.txt": group_text(replicate(a5, 3)),
    }


# -- trees as nested lists -----------------------------------------------------
# A tree is an int (a 1-based leaf label) or a list of at least two trees.

def tree_text(tree) -> str:
    if isinstance(tree, int):
        return str(tree)
    return "(" + ",".join(tree_text(c) for c in tree) + ")"


def parse_text(text: str):
    """Parse the nested-parenthesis format into nested lists."""
    stack: list[list] = [[]]
    number = ""
    for ch in text.strip():
        if ch.isdigit():
            number += ch
            continue
        if number:
            stack[-1].append(int(number))
            number = ""
        if ch == "(":
            stack.append([])
        elif ch == ")":
            node = stack.pop()
            if len(node) < 2 or not stack:
                raise ValueError(f"malformed tree text {text!r}")
            stack[-1].append(node)
        elif ch != ",":
            raise ValueError(f"unexpected {ch!r} in tree text")
    if number:
        stack[-1].append(int(number))
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError(f"malformed tree text {text!r}")
    return stack[0][0]


def leaves(tree) -> list[int]:
    if isinstance(tree, int):
        return [tree]
    return [x for c in tree for x in leaves(c)]


def canonical(tree, perm: Perm | None = None):
    """A hashable canonical form of the tree with leaf x relabeled perm(x):
    children sorted by their least leaf, as (least leaf, children)."""
    if isinstance(tree, int):
        label = tree if perm is None else perm[tree - 1] + 1
        return (label, ())
    kids = sorted(canonical(c, perm) for c in tree)
    return (kids[0][0], tuple(kids))


def brute_stabilizer_order(text: str, group_file_text: str) -> int:
    """The number of elements of the group in the file that map the tree
    onto itself."""
    tree = parse_text(text)
    base = canonical(tree)
    elements = close(group_generators(group_file_text))
    return sum(1 for g in elements if canonical(tree, g) == base)


def group_generators(group_file_text: str) -> list[Perm]:
    """The generators of a group file written by :func:`group_text`."""
    lines = group_file_text.split("\n")
    degree = int(lines[0].split()[1])
    return [from_cycles([tuple(int(x) for x in cyc.split())
                         for cyc in line.strip("()").split(")(") if cyc], degree)
            for line in lines[1:] if line]


# -- seeded stabilizer inputs ----------------------------------------------------

def random_tree(items: list, rng: random.Random):
    """A random assembly tree on ``items``: shuffle, then split recursively
    into two or three nonempty runs."""
    items = list(items)
    rng.shuffle(items)

    def build(lo: int, hi: int):
        if hi - lo == 1:
            return items[lo]
        parts = 2 if hi - lo == 2 or rng.random() < 0.75 else 3
        cuts = sorted(rng.sample(range(lo + 1, hi), parts - 1))
        bounds = [lo] + cuts + [hi]
        return [build(a, b) for a, b in zip(bounds, bounds[1:])]

    return build(0, len(items))


def _orbits(sub: list[Perm], degree: int) -> list[list[int]]:
    seen: set[int] = set()
    out = []
    for x in range(degree):
        if x not in seen:
            orbit = sorted({g[x] for g in sub})
            seen.update(orbit)
            out.append([y + 1 for y in orbit])
    return out


def symmetric_tree(sub: list[Perm], rng: random.Random):
    """A random tree fixed by every element of ``sub``: each orbit of the
    subgroup becomes one vertex whose children are the orbit's leaves, and a
    random tree joins the orbit vertices."""
    orbit_nodes = [o if len(o) > 1 else o[0] for o in _orbits(sub, len(sub[0]))]
    if len(orbit_nodes) == 1:
        return orbit_nodes[0]
    return random_tree(orbit_nodes, rng)


def _element_order(g: Perm) -> int:
    return len(close([g]))


def random_subgroup(elements: list[Perm], kind: int, rng: random.Random) -> list[Perm]:
    """A seeded proper subgroup: cyclic of order 2, 3 or 5 for kind 0, 1, 2,
    and for kind 3 a non-cyclic one generated by two random elements."""
    if kind < 3:
        want = (2, 3, 5)[kind]
        gen = rng.choice([g for g in elements if _element_order(g) == want])
        return close([gen])
    while True:
        sub = close(rng.sample(elements, 2))
        if len(sub) < len(elements) and not any(
                _element_order(g) == len(sub) for g in sub):
            return sub


SUBGROUP_KINDS = 4


def stabilize_inputs(seed: int, per_kind: int) -> list[dict]:
    """Seeded parse+stabilizer cases on the icosahedral group acting simply
    on 60 points (T=1) and on 180 points (T=3).

    For each T there are ``per_kind`` random trees and ``per_kind``
    symmetric trees, the latter cycling through the subgroup kinds of
    :func:`random_subgroup`.  Each case records the tree text, the group file
    it uses and the building subgroup's order (1 for random trees).
    """
    rng = random.Random(seed)
    a5 = regular_action(ALTERNATING5)
    cases = []
    for copies, group_file in ((1, "a5_regular.txt"), (3, "a5_regular_x3.txt")):
        elements = close(replicate(a5, copies))
        degree = len(elements[0])
        for i in range(per_kind):
            for symmetric in (False, True):
                if symmetric:
                    sub = random_subgroup(elements, i % SUBGROUP_KINDS, rng)
                    tree = symmetric_tree(sub, rng)
                    built_under = len(sub)
                else:
                    tree = random_tree(list(range(1, degree + 1)), rng)
                    built_under = 1
                cases.append({
                    "group": group_file,
                    "leaves": degree,
                    "kind": "symmetric" if symmetric else "random",
                    "text": tree_text(tree),
                    "built_under": built_under,
                })
    return cases


# -- exact identities ----------------------------------------------------------

def tree_count(n: int) -> int:
    """A_n, the number of assembly trees on n labeled leaves, from
    A_n = sum_{k<n} C(n-1, k-1) A_k B_{n-k}, with B_1 = 1 and B_m = 2 A_m."""
    a = [0, 1]
    b = [1, 1]
    for m in range(2, n + 1):
        a.append(sum(math.comb(m - 1, k - 1) * a[k] * b[m - k]
                     for k in range(1, m)))
        b.append(2 * a[m])
    return a[n]
