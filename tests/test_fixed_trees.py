from collections import Counter

import pytest

from capsid import fixed_trees, trees
from capsid.fixed_trees import (construction_recipes, enumerate_block_systems,
                                generate_fixed_trees)
from capsid.cli import load_group
from capsid.perms import (PermGroup, close_generators, klein_group,
                          parse_permutation, replicated_action, trivial_group)
from capsid.series import fixed_tree_count
from capsid.stabilizers import fixes
from capsid.trees import act, enumerate_all_trees, parse_tree

from oracles import brute_block_systems, brute_fixed_trees, vertices


def _stream_length(group):
    return sum(1 for _ in generate_fixed_trees(group))


def _blocks_as_sets(system):
    return [set(b) for b in system.blocks]


def test_seven_block_systems(k1):
    systems = enumerate_block_systems(k1)
    assert len(systems) == 7
    expected = [
        [{1, 2, 3, 4}],
        [{1, 2}, {3, 4}],
        [{1, 3}, {2, 4}],
        [{1, 4}, {2, 3}],
        [{1}, {2}, {3, 4}],
        [{1, 2}, {3}, {4}],
        [{1}, {2}, {3}, {4}],
    ]
    found = [_blocks_as_sets(s) for s in systems]
    for want in expected:
        assert want in found
    assert len({b for s in systems for b in s.blocks}) == 11


def test_block_systems_trivial_group():
    assert len(enumerate_block_systems(trivial_group(3))) == 5


def test_block_systems_match_brute_force(k1, klein, z2_on_6, s3_regular, z6,
                                        klein_on_8, z2_on_8):
    q8 = close_generators([parse_permutation("(1 3 2 4)(5 7 6 8)", 8),
                           parse_permutation("(1 5 2 6)(3 8 4 7)", 8)], 8)
    assert q8.order == 8 and q8.is_simple_action()
    for group in (k1, klein, z2_on_6, s3_regular, z6, klein_on_8, z2_on_8,
                  trivial_group(4), q8):
        found = [frozenset(s.blocks) for s in enumerate_block_systems(group)]
        assert len(set(found)) == len(found)
        assert set(found) == set(brute_block_systems(group))


def test_block_systems_refuse_a_repeated_recipe(klein, monkeypatch):
    recipes = list(construction_recipes(klein))
    monkeypatch.setattr(fixed_trees, "construction_recipes",
                        lambda group: recipes + recipes[:1])
    with pytest.raises(RuntimeError):
        enumerate_block_systems(klein)


def test_overlapping_coset_translates_are_refused(klein, monkeypatch):
    cosets = PermGroup.left_coset_representatives

    def identity_twice(group, sub):
        reps = cosets(group, sub)
        return reps + reps[:1]

    monkeypatch.setattr(PermGroup, "left_coset_representatives", identity_twice)
    with pytest.raises(RuntimeError, match="coset translates of a seed overlap"):
        list(generate_fixed_trees(klein))


def test_enumerator_refuses_a_partition_one_block_short(monkeypatch):
    partitions = trees.set_partitions

    def one_block_short(items, min_parts=1):
        for blocks in partitions(items, min_parts):
            yield blocks[:-1]

    monkeypatch.setattr(trees, "set_partitions", one_block_short)
    with pytest.raises(RuntimeError, match="is not a set partition"):
        list(enumerate_all_trees(range(1, 5)))


def test_block_systems_reject_non_simple():
    bad = close_generators([parse_permutation("(1 2)", 3)], 3)
    with pytest.raises(ValueError):
        enumerate_block_systems(bad)
    with pytest.raises(ValueError):
        list(generate_fixed_trees(bad))


def test_root_partitions_are_block_systems(klein, z6, klein_on_8):
    # the root's children of a tree fixed by the group form a block system
    for group in (klein, z6, klein_on_8):
        systems = set(brute_block_systems(group))
        for tau in generate_fixed_trees(group):
            assert frozenset(c.labels for c in tau.children) in systems


def test_klein_fixed_trees(klein):
    trees = sorted(t.to_text() for t in generate_fixed_trees(klein))
    assert trees == ["((1,2),(3,4))", "((1,3),(2,4))", "((1,4),(2,3))",
                     "(1,2,3,4)"]


def test_k1_fixed_trees(k1):
    trees = sorted(t.to_text() for t in generate_fixed_trees(k1))
    assert trees == ["((1,2),(3,4))", "((1,2),3,4)", "((1,3),(2,4))",
                     "((1,4),(2,3))", "(1,2,(3,4))", "(1,2,3,4)"]


def test_z2_on_six_count(z2_on_6):
    assert _stream_length(z2_on_6) == 72


def test_counts_against_series(k1, z2_on_6, klein, klein_on_8):
    assert _stream_length(k1) == fixed_tree_count(k1, 2) == 6
    assert _stream_length(z2_on_6) == fixed_tree_count(z2_on_6, 3) == 72
    assert _stream_length(klein) == fixed_tree_count(klein, 1) == 4
    assert _stream_length(klein_on_8) == \
        fixed_tree_count(klein_on_8, 2) == 104


def test_count_trivial_group():
    assert _stream_length(trivial_group(4)) == 26
    assert _stream_length(trivial_group(6)) == 2752


def test_count_z2_on_eight(z2_on_8):
    assert _stream_length(z2_on_8) == fixed_tree_count(z2_on_8, 4) \
        == 1312


def test_every_generated_tree_is_fixed(klein, k1, z2_on_6, s3_regular):
    for group in (klein, k1, z2_on_6, s3_regular):
        for tau in generate_fixed_trees(group):
            assert all(fixes(g, tau) for g in group.elements)


def test_completeness_small(klein, k1, z2_on_6, s3_regular, z6):
    for group in (klein, k1):
        generated = set(generate_fixed_trees(group))
        assert generated == brute_fixed_trees(group, range(1, 5))
    for group in (z2_on_6, s3_regular, z6):
        generated = set(generate_fixed_trees(group))
        assert generated == brute_fixed_trees(group, range(1, 7))


@pytest.mark.slow
def test_completeness_eight_leaves(klein_on_8, z2_on_8):
    for group in (klein_on_8, z2_on_8):
        generated = set(generate_fixed_trees(group))
        assert generated == brute_fixed_trees(group, range(1, 9))
        assert len(generated) == fixed_tree_count(group, 8 // group.order)


@pytest.mark.slow
def test_listing_matches_the_filtered_enumeration_on_klein4_twice():
    # klein4 on two copies of its points: the (subgroup, seed) levels under
    # an order-2 subgroup recur under the whole group, and order-2
    # subgroups give index-2 translates; about 15 s
    group = replicated_action(klein_group(), 2)
    listed = sorted(t.to_text() for t in generate_fixed_trees(group))
    brute = sorted(t.to_text() for t in enumerate_all_trees(range(1, 9))
                   if all(act(g, t) == t for g in group.generators))
    assert len(listed) == 104
    assert listed == brute


def test_uniqueness_filters_suffice(klein, k1, z2_on_6, s3_regular, z6, klein_on_8):
    for group in (klein, k1, z2_on_6, s3_regular, z6, klein_on_8):
        out: list = []
        for _ in generate_fixed_trees(group, diagnostics=out):
            pass
        assert out[0].produced == out[0].distinct, out[0]
        # the plain stream is not deduplicated, so it must be free of repeats
        stream = list(generate_fixed_trees(group))
        assert len(stream) == len(set(stream)) == out[0].produced


@pytest.mark.parametrize("name, count", [("klein4", 4896), ("cyclic:6", 3440)])
def test_each_level_is_built_once_per_run(name, count, monkeypatch):
    # the three copies share (subgroup, seed) levels across many recipes;
    # building each once keeps the recipe enumerations near the number of
    # distinct levels, far below the number of recipes that use them, and
    # each group's normalizers are taken once per run, not once per level
    group = replicated_action(load_group(name), 3)
    calls = 0
    normalized: Counter = Counter()
    recipes, normalizer = fixed_trees._recipes, PermGroup.normalizer

    def counted(*args):
        nonlocal calls
        calls += 1
        return recipes(*args)

    def counted_normalizer(ambient, sub):
        normalized[ambient, sub] += 1
        return normalizer(ambient, sub)

    monkeypatch.setattr(fixed_trees, "_recipes", counted)
    monkeypatch.setattr(PermGroup, "normalizer", counted_normalizer)
    out: list = []
    assert sum(1 for _ in generate_fixed_trees(group, diagnostics=out)) \
        == count == fixed_tree_count(group, 3)
    assert out[0].produced == out[0].distinct, out[0]
    assert 0 < calls <= 100
    assert max(normalized.values()) == 1
    calls = 0
    normalized.clear()
    assert _stream_length(group) == count
    assert 0 < calls <= 100
    assert max(normalized.values()) == 1


@pytest.mark.parametrize("name, count", [("klein4", 4896), ("cyclic:6", 3440)])
def test_benchmark_listings_are_fixed_and_round_trip(name, count):
    # the trees of one run share one leaf object per point; within a tree
    # every vertex is a distinct object, since sibling leaf sets are
    # disjoint (the pointer view numbers vertices from a stack, not by id())
    group = replicated_action(load_group(name), 3)
    trees = list(generate_fixed_trees(group))
    assert len(trees) == len(set(trees)) == count
    for tau in trees:
        assert len({id(v) for v in vertices(tau)}) == len(vertices(tau))
        assert all(fixes(g, tau) for g in group.generators)
        assert parse_tree(tau.to_text()) == tau


def test_icosahedral_fixed_trees_constructed_directly(ico):
    # 60-leaf trees fixed by the full order-60 group, by explicit
    # construction; agrees with the generating-function count
    trees = list(generate_fixed_trees(ico))
    assert len(trees) == 204 == fixed_tree_count(ico, 1)
    assert len(set(trees)) == 204
    sample = trees[::40]
    for tau in sample:
        assert all(fixes(g, tau) for g in ico.elements)


def test_recipe_invariants(klein, s3_regular):
    for group in (klein, s3_regular):
        count = 0
        for recipe in construction_recipes(group):
            count += 1
            assert len(recipe.subgroups) == len(recipe.seeds)
            if len(recipe.seeds) == 1:
                assert recipe.subgroups[0].order < group.order
            # a part is the set of group-orbits its seed meets, and the
            # parts partition the orbits
            parts = [[o for o in group.orbits() if seed.intersection(o)]
                     for seed in recipe.seeds]
            assert sorted(o for part in parts for o in part) == group.orbits()
            for part, sub, seed in zip(parts, recipe.subgroups, recipe.seeds):
                # the seed is one sub-orbit inside each group-orbit of the part
                for orbit in part:
                    inside = seed & frozenset(orbit)
                    assert tuple(sorted(inside)) in sub.orbits_within(orbit)
        assert count > 0


def test_subtree_translation_consistency(klein, z2_on_6):
    # the subtree hanging below block g(Q) is the g-image of the subtree
    # below block Q
    for group in (klein, z2_on_6):
        for tau in generate_fixed_trees(group):
            by_labels = {v.labels: v for v in vertices(tau)}
            for g in group.elements:
                for child in tau.children:
                    image_labels = frozenset(g(x) for x in child.labels)
                    target = by_labels.get(image_labels)
                    assert target is not None
                    assert act(g, child) == target
