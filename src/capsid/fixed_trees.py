"""Compatible block systems and the recursive generator of all assembly
trees fixed by a group acting simply.

Every compatible block system arises from a triple: a partition of the
orbit set, one subgroup per part, and one subgroup-orbit picked inside each
group-orbit of the part; the blocks are the coset translates of the chosen
union.  A tree fixed by the whole group is built the same way: pick the
triple, recursively build a subtree fixed by the part's subgroup on its
seed union, and attach the coset translates of that subtree as children of
a new root.

Uniqueness is enforced by (a) drawing subgroups from conjugacy-class
representatives only and (b) keeping one seed union per orbit of the
normalizer; a final set-level deduplication is retained as belt and braces,
and the diagnostics report says whether it was ever needed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .perms import PermGroup, Permutation
from .trees import AssemblyTree, act, enumerate_all_trees, set_partitions


@dataclass(frozen=True)
class BlockOrigin:
    """How one block was produced: which part, subgroup, seed union, and
    coset representative."""
    part_index: int
    subgroup: PermGroup
    seed: frozenset
    representative: Permutation


@dataclass(frozen=True)
class BlockSystem:
    """A partition of the point set into blocks, closed under the action.

    ``origins``, when present, records the generating triple data for each
    block (parallel to ``blocks``).
    """
    blocks: tuple[frozenset, ...]
    origins: Optional[tuple[BlockOrigin, ...]] = None

    @property
    def points(self) -> frozenset:
        return frozenset(itertools.chain.from_iterable(self.blocks))

    def sort_key(self):
        return (len(self.blocks), tuple(tuple(sorted(b)) for b in self.blocks))


def _make_system(blocks, origins=None) -> BlockSystem:
    pairs = sorted(zip(blocks, origins or itertools.repeat(None)),
                   key=lambda p: min(p[0]))
    blocks = tuple(frozenset(b) for b, _ in pairs)
    total = sum(len(b) for b in blocks)
    if len(frozenset(itertools.chain.from_iterable(blocks))) != total:
        raise ValueError("blocks overlap")
    if origins is None:
        return BlockSystem(blocks)
    return BlockSystem(blocks, tuple(o for _, o in pairs))


def is_compatible(group: PermGroup, system: BlockSystem) -> bool:
    """True iff every group element maps every block onto a block."""
    block_set = set(system.blocks)
    return all(frozenset(g(x) for x in b) in block_set
               for g in group.elements for b in system.blocks)


def enumerate_block_systems(group: PermGroup) -> list[BlockSystem]:
    """All compatible block systems for a simple action, each exactly once.

    Iterates the generating triples (orbit-set partition, subgroups, seed
    unions) and deduplicates by the resulting partition of the points.
    """
    if not group.is_simple_action():
        raise ValueError("the group action is not simple")
    orbs = tuple(group.orbits())
    subs = group.all_subgroups()
    coset_cache = {sub: group.left_coset_representatives(sub) for sub in subs}
    seen: dict[frozenset, BlockSystem] = {}
    for parts in set_partitions(orbs):
        per_part_options = []
        for part in parts:
            options = []
            for sub in subs:
                korbit_lists = [sub.orbits_within(orbit) for orbit in part]
                for combo in itertools.product(*korbit_lists):
                    seed = frozenset(itertools.chain.from_iterable(combo))
                    options.append((sub, seed))
            per_part_options.append(options)
        for assignment in itertools.product(*per_part_options):
            blocks = []
            origins = []
            for part_index, (sub, seed) in enumerate(assignment):
                for rep in coset_cache[sub]:
                    blocks.append(frozenset(rep(x) for x in seed))
                    origins.append(BlockOrigin(part_index, sub, seed, rep))
            system = _make_system(blocks, origins)
            key = frozenset(system.blocks)
            if key not in seen:
                seen[key] = system
    return sorted(seen.values(), key=BlockSystem.sort_key)


def distinct_blocks(systems: list[BlockSystem]) -> set[frozenset]:
    """The set of blocks appearing across the given systems."""
    return {b for s in systems for b in s.blocks}


def children_block_system(group: PermGroup, tau: AssemblyTree) -> BlockSystem:
    """The block system formed by the root's children labels of a tree that
    is fixed by the whole group."""
    for g in group.elements:
        if act(g, tau) != tau:
            raise ValueError("tree is not fixed by the group")
    if tau.is_leaf:
        raise ValueError("a single-leaf tree has no root partition")
    system = _make_system([c.labels for c in tau.children])
    if not is_compatible(group, system):
        raise RuntimeError("root partition of a fixed tree failed the block check")
    return system


# -- the recursive generator ----------------------------------------------

@dataclass(frozen=True)
class FixedTreeRecipe:
    """One level of the recursive construction: a partition of the orbit set
    into parts, one subgroup per part, and one seed union per part (a single
    subgroup-orbit chosen inside each group-orbit of the part).

    The construction recurses on each (subgroup, seed) pair.
    """
    parts: tuple[tuple[tuple[int, ...], ...], ...]
    subgroups: tuple[PermGroup, ...]
    seeds: tuple[frozenset, ...]


@dataclass(frozen=True)
class FixedTreeDiagnostics:
    """Outcome of a full generation run."""
    produced: int
    distinct: int

    @property
    def uniqueness_filters_sufficed(self) -> bool:
        return self.produced == self.distinct


def construction_recipes(group: PermGroup, points: Optional[frozenset] = None
                         ) -> Iterator[FixedTreeRecipe]:
    """The (partition, subgroups, seeds) choices for one construction level,
    already filtered by the uniqueness restrictions."""
    if points is None:
        points = frozenset(range(1, group.degree + 1))
    orbs = tuple(group.orbits_within(points))
    classes = group.conjugacy_classes_of_subgroups()
    reps = [c.representative for c in classes]
    normalizer_cache = {rep: group.normalizer(rep).elements for rep in reps}
    for parts in set_partitions(orbs):
        per_part = []
        for part in parts:
            options = []
            for rep in reps:
                if len(parts) == 1 and rep.order == group.order:
                    continue
                korbit_lists = [rep.orbits_within(orbit) for orbit in part]
                normalizer = normalizer_cache[rep]
                for combo in itertools.product(*korbit_lists):
                    seed = frozenset(itertools.chain.from_iterable(combo))
                    if _seed_is_canonical(seed, normalizer):
                        options.append((rep, seed))
            per_part.append(options)
        for assignment in itertools.product(*per_part):
            yield FixedTreeRecipe(
                parts=parts,
                subgroups=tuple(sub for sub, _ in assignment),
                seeds=tuple(seed for _, seed in assignment))


def _seed_is_canonical(seed: frozenset, normalizer_elements) -> bool:
    """Keep the lexicographically least seed union in its normalizer orbit."""
    key = tuple(sorted(seed))
    return all(key <= tuple(sorted(n(x) for x in seed))
               for n in normalizer_elements)


def _fixed_trees_on(group: PermGroup, points: frozenset) -> Iterator[AssemblyTree]:
    if len(points) == 1:
        yield AssemblyTree.leaf(next(iter(points)))
        return
    if group.order == 1:
        # the trivial group fixes everything
        yield from enumerate_all_trees(points, max_size=len(points))
        return
    for recipe in construction_recipes(group, points):
        coset_reps = [group.left_coset_representatives(sub)
                      for sub in recipe.subgroups]
        yield from _assemble(recipe, coset_reps, 0, [])


def _assemble(recipe: FixedTreeRecipe, coset_reps, i,
              children) -> Iterator[AssemblyTree]:
    if i == len(recipe.subgroups):
        yield AssemblyTree.node(children)
        return
    sub, seed = recipe.subgroups[i], recipe.seeds[i]
    for subtree in _fixed_trees_on(sub, seed):
        translated = [act(rep, subtree) for rep in coset_reps[i]]
        yield from _assemble(recipe, coset_reps, i + 1, children + translated)


def generate_fixed_trees(group: PermGroup,
                         diagnostics: Optional[list] = None
                         ) -> Iterator[AssemblyTree]:
    """Every assembly tree on the full point set fixed by the whole group,
    each exactly once; requires a simple action.

    Pass a list as ``diagnostics`` to receive a :class:`FixedTreeDiagnostics`
    appended after the stream is exhausted.
    """
    if not group.is_simple_action():
        raise ValueError("the group action is not simple")
    points = frozenset(range(1, group.degree + 1))
    produced = 0
    seen: set[AssemblyTree] = set()
    for tree in _fixed_trees_on(group, points):
        produced += 1
        if tree not in seen:
            seen.add(tree)
            yield tree
    if diagnostics is not None:
        diagnostics.append(FixedTreeDiagnostics(produced, len(seen)))


def generation_diagnostics(group: PermGroup) -> FixedTreeDiagnostics:
    """Run a full generation and report whether the uniqueness restrictions
    alone avoided duplicates."""
    out: list = []
    for _ in generate_fixed_trees(group, diagnostics=out):
        pass
    return out[0]


def count_fixed_trees_direct(group: PermGroup) -> int:
    """Stream length of :func:`generate_fixed_trees`; cross-checks the
    generating-function counts."""
    return sum(1 for _ in generate_fixed_trees(group))
