"""Compatible block systems and the recursive generator of all assembly
trees fixed by a group acting simply.

Both come from one enumeration, :func:`construction_recipes`, of triples: a
partition of the orbit set, one subgroup per part, and one seed union per
part (one subgroup-orbit picked inside each group-orbit of the part).  The
blocks of a system are the coset translates of each part's seed.  A tree
fixed by the whole group is built the same way: pick the triple, recursively
build a subtree fixed by the part's subgroup on its seed union, and attach
the coset translates of that subtree as children of a new root.  Each
(subgroup, seed) level is built once per generation run, however many
parents it recurs under, and its translates once per parent group; both are
shared by every recipe and tree that uses them, and the top level streams.
The normalizers of a group's class representatives, which the uniqueness
filter reads, are likewise computed once per run for each group.
A run makes one leaf per point, and the trees share those leaves: each
coset representative of a level but the identity gets one table from labels
to the leaves of their images, through which every subtree of the level is
translated, and the identity's translate is the subtree itself.

Uniqueness is enforced by (a) drawing subgroups from conjugacy-class
representatives only and (b) keeping one seed union per orbit of the
normalizer.  In a simple action the setwise stabilizer of a seed is exactly
its subgroup, so each block system comes from one recipe, apart from the
single block, which no recipe gives.  The tree stream is not deduplicated,
so a fault in these filters shows as a count that disagrees with the
generating-function count; the diagnostics report counts the distinct trees
against the trees produced.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Optional

from .perms import PermGroup
from .series import fixed_tree_count
from .trees import (ENUMERATION_SIZE_BOUND, AssemblyTree, _act, _node,
                    enumerate_all_trees, set_partitions)

# generate_fixed_trees refuses a group that fixes more trees than this
LISTING_BOUND = 10 ** 6


class BlockSystem(NamedTuple):
    """A partition of the point set into blocks, closed under the action."""
    blocks: tuple[frozenset, ...]

    def sort_key(self):
        return (len(self.blocks), tuple(tuple(sorted(b)) for b in self.blocks))


def _make_system(blocks) -> BlockSystem:
    blocks = tuple(sorted((frozenset(b) for b in blocks), key=min))
    total = sum(len(b) for b in blocks)
    if len(frozenset(itertools.chain.from_iterable(blocks))) != total:
        raise ValueError("blocks overlap")
    return BlockSystem(blocks)


def enumerate_block_systems(group: PermGroup) -> list[BlockSystem]:
    """All compatible block systems for a simple action, each exactly once.

    The single block, plus for each construction recipe the left-coset
    translates of each part's seed.
    """
    if not group.is_simple_action():
        raise ValueError("the group action is not simple")
    coset_reps = {cls.representative:
                  group.left_coset_representatives(cls.representative)
                  for cls in group.conjugacy_classes_of_subgroups()}
    systems = {_make_system([range(1, group.degree + 1)])}
    for recipe in construction_recipes(group):
        system = _make_system(
            frozenset(rep(x) for x in seed)
            for sub, seed in zip(recipe.subgroups, recipe.seeds)
            for rep in coset_reps[sub])
        if system in systems:
            raise RuntimeError("two construction recipes gave one block system")
        systems.add(system)
    return sorted(systems, key=BlockSystem.sort_key)


# -- construction recipes and the recursive generator ---------------------

class FixedTreeRecipe(NamedTuple):
    """One level of the recursive construction, from a partition of the
    orbit set into parts: one subgroup per part, and one seed union per part
    (a single subgroup-orbit chosen inside each group-orbit of the part), so
    a part is the set of group-orbits its seed meets.

    The construction recurses on each (subgroup, seed) pair.
    """
    subgroups: tuple[PermGroup, ...]
    seeds: tuple[frozenset, ...]


class FixedTreeDiagnostics(NamedTuple):
    """Outcome of a full generation run: trees produced, and distinct trees
    among them."""
    produced: int
    distinct: int


def construction_recipes(group: PermGroup) -> Iterator[FixedTreeRecipe]:
    """The (partition, subgroups, seeds) choices for the top construction
    level, already filtered by the uniqueness restrictions.  The choices run
    over the set partitions of the orbits, so more orbits than the
    enumeration bound are refused."""
    return _recipes(group, frozenset(range(1, group.degree + 1)), {})


def _recipes(group: PermGroup, points: frozenset, normalizers: dict
             ) -> Iterator[FixedTreeRecipe]:
    """``construction_recipes`` on ``points``.  ``normalizers`` maps each
    group to the normalizer elements of its class representatives; a
    generation run shares one such map over all its levels, and a group's
    entry is built the first time one of its levels is read."""
    orbs = tuple(group.orbits_within(points))
    if len(orbs) > ENUMERATION_SIZE_BOUND:
        raise ValueError(f"orbit count {len(orbs)} exceeds the "
                         f"enumeration bound {ENUMERATION_SIZE_BOUND}")
    classes = group.conjugacy_classes_of_subgroups()
    reps = [c.representative for c in classes]
    if group not in normalizers:
        normalizers[group] = {rep: group.normalizer(rep).elements for rep in reps}
    normalizer_of = normalizers[group]
    for parts in set_partitions(orbs):
        per_part = []
        for part in parts:
            options = []
            for rep in reps:
                if len(parts) == 1 and rep.order == group.order:
                    continue
                korbit_lists = [rep.orbits_within(orbit) for orbit in part]
                normalizer = normalizer_of[rep]
                for combo in itertools.product(*korbit_lists):
                    seed = frozenset(itertools.chain.from_iterable(combo))
                    if _seed_is_canonical(seed, normalizer):
                        options.append((rep, seed))
            per_part.append(options)
        for assignment in itertools.product(*per_part):
            yield FixedTreeRecipe(
                subgroups=tuple(sub for sub, _ in assignment),
                seeds=tuple(seed for _, seed in assignment))


def _seed_is_canonical(seed: frozenset, normalizer_elements) -> bool:
    """Keep the lexicographically least seed union in its normalizer orbit."""
    key = tuple(sorted(seed))
    return all(key <= tuple(sorted([n.images[x - 1] for x in seed]))
               for n in normalizer_elements)


def _fixed_trees_on(group: PermGroup, points: frozenset, levels: dict,
                    translates: dict, normalizers: dict, leaves: list
                    ) -> Iterator[AssemblyTree]:
    """Every tree on ``points`` fixed by ``group``, built from the leaves
    ``leaves[x]`` and the trees the trivial group's enumeration makes.

    ``levels`` maps (subgroup, seed) to the trees of that sub-level, which
    recurs under different parents, and ``translates`` maps (group,
    subgroup, seed) to each of those trees' coset translates.  Both are
    built when a recipe first uses them and shared by every later recipe
    and tree.  The first coset representative is the identity, so each
    tree is its own first translate.  The translates of one seed are
    checked disjoint once, when first built, so the vertices are built
    unchecked.  ``normalizers`` is the run's map for ``_recipes``."""
    if len(points) == 1:
        yield leaves[next(iter(points))]
        return
    if group.order == 1:
        # the trivial group fixes everything
        yield from enumerate_all_trees(points)
        return
    for recipe in _recipes(group, points, normalizers):
        per_part = []
        for sub, seed in zip(recipe.subgroups, recipe.seeds):
            key = (group, sub, seed)
            if key not in translates:
                reps = group.left_coset_representatives(sub)
                if len({rep(x) for rep in reps for x in seed}) != \
                        len(reps) * len(seed):
                    raise RuntimeError("the coset translates of a seed overlap")
                if (sub, seed) not in levels:
                    levels[sub, seed] = list(
                        _fixed_trees_on(sub, seed, levels, translates,
                                        normalizers, leaves))
                # one leaf table per coset representative after the
                # identity, shared by the translates of every subtree
                tables = [[None, *map(leaves.__getitem__, rep.images)]
                          for rep in reps[1:]]
                translates[key] = [
                    [subtree, *(_act(leaf_of, subtree) for leaf_of in tables)]
                    for subtree in levels[sub, seed]]
            per_part.append(translates[key])
        for choice in itertools.product(*per_part):
            yield _node(itertools.chain.from_iterable(choice))


def generate_fixed_trees(group: PermGroup,
                         diagnostics: Optional[list] = None
                         ) -> Iterator[AssemblyTree]:
    """Every assembly tree on the full point set fixed by the whole group,
    each exactly once; requires a simple action.  A group that fixes more
    than LISTING_BOUND trees is refused after the first tree is built, so
    the enumeration bounds, which refuse while it is built, speak first.

    The stream is not deduplicated.  Pass a list as ``diagnostics`` to
    receive a :class:`FixedTreeDiagnostics` appended after the stream is
    exhausted: the trees produced, and how many of them are distinct, which
    takes a set of every tree; the plain stream keeps and hashes none.
    """
    if not group.is_simple_action():
        raise ValueError("the group action is not simple")
    points = frozenset(range(1, group.degree + 1))
    # one leaf object per point, shared by every tree of the run
    leaves = [None, *map(AssemblyTree.leaf, range(1, group.degree + 1))]
    trees = _fixed_trees_on(group, points, {}, {}, {}, leaves)
    first = next(trees)
    count = fixed_tree_count(group, group.degree // group.order)
    if count > LISTING_BOUND:
        raise ValueError(f"fixed-tree count {count} exceeds the listing "
                         f"bound {LISTING_BOUND}")
    yield first
    if diagnostics is None:
        yield from trees
        return
    produced, seen = 1, {first}
    for tree in trees:
        produced += 1
        seen.add(tree)
        yield tree
    diagnostics.append(FixedTreeDiagnostics(produced, len(seen)))
