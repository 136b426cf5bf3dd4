"""Permutations of {1..N} and small finite permutation groups.

Groups are stored with their full element set; everything is exact and
deterministic.  Permutations are composed only as image tuples, inside
the multiplication table and the closure, under one convention: the product
of p and q is the map x -> p(q(x)), so the right factor acts first, and
``_mul_table[i][j]`` is the index of that product for ``elements[i]`` and
``elements[j]``.

Subgroup work (census, conjugacy classes, normalizers, coset
representatives) runs on element indices through a multiplication table
that looks each product up by its images on a base, points that tell the
elements apart (one point for a simple action), so no ``Permutation`` and
no whole image tuple is built.  The census extends one subgroup per
conjugacy class and files all its conjugates at once, as element sets,
with the class counts below each representative.
"""

from __future__ import annotations

import operator
import re
from collections import Counter
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation:
    """A bijection of the points 1..N.

    ``images[i]`` is the image of point ``i + 1`` (points are 1-based).
    Instances are immutable and hashable.  Groups keep their elements in
    the order of the image sequences; that order is what makes every group
    computation in this package reproducible.
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if not images:
            raise ValueError("a permutation needs degree >= 1")
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"images {images!r} are not a bijection of 1..{len(images)}")
        self.images = images

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(1, degree + 1))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        if not 1 <= point <= len(self.images):
            raise ValueError(f"point {point} out of range 1..{len(self.images)}")
        return self.images[point - 1]

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, len(self.images) + 1))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length >= 2, each starting at its minimum."""
        seen = set()
        out = []
        for start in range(1, len(self.images) + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self.images[start - 1]
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self.images[nxt - 1]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation[{self.cycle_string()}]"


_images = operator.attrgetter("images")


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse cycle notation like ``(1 2)(3 4)`` into a permutation of 1..degree.

    Fixed points may be omitted or written as 1-cycles; the empty string and
    ``()`` denote the identity.  Points may be separated by whitespace or
    commas.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    stripped = text.strip()
    body = _CYCLE_RE.sub("", stripped)
    if body.strip():
        raise ValueError(f"malformed cycle notation: {text!r}")
    images = list(range(1, degree + 1))
    seen: set[int] = set()
    for match in _CYCLE_RE.finditer(stripped):
        tokens = [t for t in re.split(r"[\s,]+", match.group(1).strip()) if t]
        points = []
        for tok in tokens:
            if not tok.isdecimal():
                raise ValueError(f"malformed cycle notation: {text!r}")
            points.append(int(tok))
        for p in points:
            if not 1 <= p <= degree:
                raise ValueError(f"point {p} out of range 1..{degree}")
            if p in seen:
                raise ValueError(f"point {p} repeated across cycles")
            seen.add(p)
        for i, p in enumerate(points):
            images[p - 1] = points[(i + 1) % len(points)]
    return Permutation(images)


class PermGroup:
    """A finite permutation group on {1..degree} with an explicit element set.

    Elements are kept in lexicographic order of their image sequences (so the
    identity is always first), and that canonical order is relied on for
    deterministic coset representatives, regular actions, and output.

    Instances are immutable after construction; the element index, the
    multiplication table, the inverses, the orbits, the subgroup census and
    its class tables are computed on first read and kept.  Use
    :func:`close_generators` to build one.  Every group is generated by its
    ``generators``: a subgroup the package derives (census nodes,
    normalizers, stabilizer groups) takes its sorted elements as generators.
    """

    def __init__(self, degree: int, generators: Sequence[Permutation],
                 elements: Sequence[Permutation]):
        self.degree = degree
        self.generators = tuple(generators)
        # sorting by the image tuples is the order of ``<``, compared in C
        self.elements = tuple(sorted(set(elements), key=_images))
        if not self.elements or not self.elements[0].is_identity():
            raise ValueError("element set must contain the identity")
        if any(len(p.images) != degree for p in self.generators + self.elements):
            raise ValueError("degree mismatch inside group")
        self._eset = frozenset(map(_images, self.elements))

    # -- basic queries ----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Permutation:
        return self.elements[0]

    def __eq__(self, other) -> bool:
        return (isinstance(other, PermGroup) and self.degree == other.degree
                and self._eset == other._eset)

    def __hash__(self) -> int:
        return hash((self.degree, self._eset))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and self._eset <= other._eset

    # -- index machinery (internal) ---------------------------------------

    @cached_property
    def _elem_index(self) -> dict:
        return {p.images: i for i, p in enumerate(self.elements)}

    @cached_property
    def _mul_table(self) -> list[list[int]]:
        """table[i][j] = index of elements[i] * elements[j], looked up by the
        images of a base: points whose images tell every element apart."""
        imgs = [p.images for p in self.elements]
        base, seen = [], 1
        for x in range(self.degree):
            if seen == len(imgs):
                break
            trial = base + [x]
            split = len({tuple(a[y] for y in trial) for a in imgs})
            if split > seen:
                base, seen = trial, split
        base = base or [0]  # the trivial group needs no base point
        images_on_base = operator.itemgetter(*base)
        key = {images_on_base(a): i for i, a in enumerate(imgs)}
        # (a * b) sends base point x to a[b[x] - 1]
        compose = [operator.itemgetter(*(b[x] - 1 for x in base)) for b in imgs]
        return [[key[right(a)] for right in compose] for a in imgs]

    @cached_property
    def _inv_vector(self) -> list[int]:
        return [row.index(0) for row in self._mul_table]

    def _indices(self, sub: "PermGroup") -> frozenset[int]:
        """The element indices of ``sub`` inside self."""
        if not sub.is_subgroup_of(self):
            raise ValueError("not a subgroup of the ambient group")
        idx = self._elem_index
        return frozenset(idx[p.images] for p in sub.elements)

    def _subgroup_from_indices(self, indices: Iterable[int]) -> "PermGroup":
        """The subgroup with these element indices, generated by its
        elements in sorted order."""
        els = [self.elements[i] for i in sorted(indices)]
        return PermGroup(self.degree, els, els)

    # -- orbits and action properties --------------------------------------

    @cached_property
    def _orbits(self) -> tuple[tuple[int, ...], ...]:
        seen: set[int] = set()
        orbits = []
        for x in range(self.degree):
            if x + 1 not in seen:
                orbit = {p.images[x] for p in self.elements}
                seen |= orbit
                orbits.append(tuple(sorted(orbit)))
        return tuple(orbits)

    def orbits(self) -> list[tuple[int, ...]]:
        """Partition of {1..degree} into minimal invariant subsets,
        ordered by minimum point: each orbit is the images of its least
        point under every element, whatever generators the group keeps."""
        return list(self._orbits)

    def orbits_within(self, points: Iterable[int]) -> list[tuple[int, ...]]:
        """Orbits restricted to an invariant subset of the points."""
        points = frozenset(points)
        out = [o for o in self.orbits() if o[0] in points]
        if frozenset(x for o in out for x in o) != points:
            raise ValueError("point set is not invariant under the group")
        return out

    def is_simple_action(self) -> bool:
        """True iff no non-identity element fixes any point, that is, by the
        orbit-stabilizer theorem, iff every orbit has as many points as the
        group has elements."""
        return all(len(orbit) == self.order for orbit in self.orbits())

    # -- subgroup enumeration ----------------------------------------------

    def all_subgroups(self) -> list["PermGroup"]:
        """Every subgroup exactly once, canonically ordered by (order, elements)."""
        return list(self._census[0])

    def conjugacy_classes_of_subgroups(self) -> list["SubgroupClass"]:
        """Partition of all subgroups into conjugacy classes, in the order of
        their representatives; each representative is its class's
        canonically least member."""
        return list(self._census[1])

    @cached_property
    def _census(self) -> tuple[tuple["PermGroup", ...],
                               tuple["SubgroupClass", ...]]:
        """(every subgroup, every conjugacy class of subgroups).

        Joins one member of each conjugacy class with every cyclic subgroup,
        which reaches every class as <H, C>^x = <H^x, C^x>, and files all
        conjugates of each new join at once, so the classes come out too.
        """
        table = self._mul_table
        inv = self._inv_vector
        known: set[frozenset] = set()  # every subgroup filed so far
        classes: list[set] = []  # conjugacy classes, as parts of known

        def file_class(fs: frozenset) -> None:
            conjugates = {frozenset(table[row[s]][g_inv] for s in fs)
                          for row, g_inv in zip(table, inv)}
            known.update(conjugates)
            classes.append(conjugates)

        cyclics: dict[frozenset, tuple[int, ...]] = {}
        trivial = frozenset([0])
        for i in range(self.order):
            cyclics.setdefault(_join_indices(table, trivial, (i,)), (i,))
        file_class(trivial)
        # the worklist grows while it is read, first in first out; the
        # trivial group's joins file the cyclic classes
        worklist = [(trivial, ())]
        for fs_a, gens_a in worklist:
            for fs_c, gens_c in cyclics.items():
                # a speed path no test can see: such a join is fs_a itself,
                # already filed; the skip also keeps join_gens free of repeats
                if fs_c <= fs_a:
                    continue
                join_gens = gens_a + gens_c
                fs_j = _join_indices(table, fs_a, join_gens)
                if fs_j not in known:
                    file_class(fs_j)
                    worklist.append((fs_j, join_gens))
        # element indices follow the image order, so (order, sorted indices)
        # is the canonical (order, element images) order
        nodes = sorted(known, key=lambda fs: (len(fs), sorted(fs)))
        rank = {fs: i for i, fs in enumerate(nodes)}
        subs = tuple(map(self._subgroup_from_indices, nodes))
        class_ranks = sorted(sorted(map(rank.get, cls)) for cls in classes)
        class_of = {r: c for c, ranks in enumerate(class_ranks) for r in ranks}
        filed = []
        for ranks in class_ranks:
            rep = ranks[0]  # a proper subgroup is smaller, so it ranks lower
            below = Counter(class_of[r] for r in range(rep)
                            if nodes[r] < nodes[rep])
            filed.append(SubgroupClass(subs[rep], tuple(subs[r] for r in ranks),
                                       tuple(sorted(below.items()))))
        return subs, tuple(filed)

    @cached_property
    def _class_tables(self) -> dict:
        """Each class representative, in census order, mapped to its
        normalizer's elements and its left coset representatives."""
        return {rep: (self.normalizer(rep).elements,
                      self.left_coset_representatives(rep))
                for rep, _, _ in self._census[1]}

    def normalizer(self, sub: "PermGroup") -> "PermGroup":
        """Largest subgroup of self in which ``sub`` is normal."""
        fs = self._indices(sub)
        table = self._mul_table
        inv = self._inv_vector
        keep = [g for g in range(self.order)
                if frozenset(table[table[g][s]][inv[g]] for s in fs) == fs]
        return self._subgroup_from_indices(keep)

    def left_coset_representatives(self, sub: "PermGroup") -> list[Permutation]:
        """One representative per left coset of ``sub``, each the
        lexicographically least element of its coset, in that order: the
        identity, the least element of all, comes first."""
        hs = self._indices(sub)
        table = self._mul_table
        covered: set[int] = set()
        reps = []
        for i in range(self.order):
            if i in covered:
                continue
            reps.append(self.elements[i])
            covered.update(table[i][h] for h in hs)
        return reps

    # -- derived actions ----------------------------------------------------

    def regular_action(self) -> "PermGroup":
        """The group acting on its own canonical element list by left
        translation: a permutation group on ``order`` points, isomorphic to
        self, acting simply with a single orbit."""
        table = self._mul_table
        n = self.order
        perms = {p.images: Permutation(table[i][x] + 1 for x in range(n))
                 for i, p in enumerate(self.elements)}
        return PermGroup(n, [perms[g.images] for g in self.generators],
                         list(perms.values()))


class SubgroupClass(NamedTuple):
    """A conjugacy class of subgroups with its designated representative,
    and ``below``: the pairs (d, k), sorted, where k > 0 members of class d
    (the trivial class is 0) lie properly inside the representative."""
    representative: PermGroup
    members: tuple[PermGroup, ...]
    below: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.members)


def _join_indices(table: list[list[int]], sub: frozenset[int],
                  gens: tuple[int, ...]) -> frozenset[int]:
    """The subgroup generated by ``gens``, which include generators of
    ``sub``, built one right coset of ``sub`` at a time."""
    elements, reps = set(sub), [0]
    for r in reps:
        row = table[r]
        for g in gens:
            e = row[g]
            if e not in elements:
                elements.update([table[h][e] for h in sub])
                reps.append(e)
    return frozenset(elements)


def close_generators(gens: Sequence[Permutation], degree: int) -> PermGroup:
    """Smallest permutation group on {1..degree} containing ``gens``."""
    if any(g.degree != degree for g in gens):
        raise ValueError("degree mismatch among generators")
    images = {Permutation.identity(degree).images}
    _close_images(images, gens)
    elements = [object.__new__(Permutation) for _ in images]
    for p, a in zip(elements, images):  # products of bijections: no check
        p.images = a
    return PermGroup(degree, gens, elements)


def _close_images(images: set, gens: Sequence[Permutation]) -> None:
    """Grow the image-tuple set ``images`` in place, breadth first, to its
    closure under right multiplication by ``gens``."""
    # itemgetter(*(g(x) - 1 for x)) maps a to a * g; the identity adds
    # nothing, and on one point itemgetter gives no tuple
    rights = [operator.itemgetter(*[x - 1 for x in g.images])
              for g in gens if not g.is_identity()]
    frontier = list(images)
    while frontier:
        grown = []
        for a in frontier:
            for right in rights:
                b = right(a)
                if b not in images:
                    images.add(b)
                    grown.append(b)
        frontier = grown


def replicated_action(group: PermGroup, copies: int) -> PermGroup:
    """The same abstract group acting on ``copies`` disjoint copies of its
    point set (degree grows to copies * degree); simple iff the original is."""
    if copies < 1:
        raise ValueError("copies must be >= 1")
    n = group.degree

    def widen(p: Permutation) -> Permutation:
        return Permutation([c * n + x for c in range(copies) for x in p.images])

    return PermGroup(n * copies, [widen(g) for g in group.generators],
                     [widen(p) for p in group.elements])


# -- builtin constructions --------------------------------------------------


def trivial_group(degree: int) -> PermGroup:
    return close_generators([], degree)


def cyclic_group(k: int) -> PermGroup:
    if k < 1:
        raise ValueError("cyclic group size must be >= 1")
    rho = Permutation(list(range(2, k + 1)) + [1])
    return close_generators([rho], k)


def klein_group() -> PermGroup:
    return close_generators(
        [parse_permutation("(1 2)(3 4)", 4), parse_permutation("(1 3)(2 4)", 4)], 4)


def icosahedral_group() -> PermGroup:
    """The order-60 rotation group of the icosahedron, acting simply on 60
    points via the regular action of the even permutations of five symbols."""
    a5 = close_generators(
        [parse_permutation("(1 2 3 4 5)", 5), parse_permutation("(1 2 3)", 5)], 5)
    return a5.regular_action()


def group_from_text(text: str) -> PermGroup:
    """Parse the group text format: first line ``degree N``, then one
    generator per line in cycle notation.  Blank lines and ``#`` comments
    are ignored."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != "degree" or not header[1].isdecimal():
        raise ValueError("group text must start with a 'degree N' line")
    degree = int(header[1])
    if degree < 1:
        raise ValueError(f"group text line {lines[0]!r}: degree must be >= 1")
    gens = [parse_permutation(ln, degree) for ln in lines[1:]]
    return close_generators(gens, degree)

