import pytest

from capsid import fixed_trees
from capsid.fixed_trees import (children_block_system, construction_recipes,
                                count_fixed_trees_direct,
                                enumerate_block_systems, distinct_blocks,
                                generate_fixed_trees, generation_diagnostics,
                                is_compatible)
from capsid.perms import close_generators, parse_permutation, trivial_group
from capsid.series import fixed_tree_count
from capsid.stabilizers import fixes
from capsid.trees import act, enumerate_all_trees, parse_tree

from oracles import brute_block_systems, brute_fixed_trees


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
    assert len(distinct_blocks(systems)) == 11


def test_block_systems_trivial_group():
    assert len(enumerate_block_systems(trivial_group(3))) == 5


def test_block_systems_all_compatible(k1, klein, z2_on_6):
    for group in (k1, klein, z2_on_6):
        for system in enumerate_block_systems(group):
            assert is_compatible(group, system)
            assert system.points == frozenset(range(1, group.degree + 1))


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


def test_block_systems_reject_non_simple():
    bad = close_generators([parse_permutation("(1 2)", 3)], 3)
    with pytest.raises(ValueError):
        enumerate_block_systems(bad)
    with pytest.raises(ValueError):
        list(generate_fixed_trees(bad))


def test_children_block_system(k1, klein):
    tau = parse_tree("((1,2),3,4)")
    system = children_block_system(k1, tau)
    assert _blocks_as_sets(system) == [{1, 2}, {3}, {4}]
    for fixed in generate_fixed_trees(klein):
        assert is_compatible(klein, children_block_system(klein, fixed))
    with pytest.raises(ValueError):
        children_block_system(klein, tau)   # not fixed by the full group


def test_klein_fixed_trees(klein):
    trees = sorted(t.to_text() for t in generate_fixed_trees(klein))
    assert trees == ["((1,2),(3,4))", "((1,3),(2,4))", "((1,4),(2,3))",
                     "(1,2,3,4)"]


def test_k1_fixed_trees(k1):
    trees = sorted(t.to_text() for t in generate_fixed_trees(k1))
    assert trees == ["((1,2),(3,4))", "((1,2),3,4)", "((1,3),(2,4))",
                     "((1,4),(2,3))", "(1,2,(3,4))", "(1,2,3,4)"]


def test_z2_on_six_count(z2_on_6):
    assert count_fixed_trees_direct(z2_on_6) == 72


def test_counts_against_series(k1, z2_on_6, klein, klein_on_8):
    assert count_fixed_trees_direct(k1) == fixed_tree_count(k1, 2) == 6
    assert count_fixed_trees_direct(z2_on_6) == fixed_tree_count(z2_on_6, 3) == 72
    assert count_fixed_trees_direct(klein) == fixed_tree_count(klein, 1) == 4
    assert count_fixed_trees_direct(klein_on_8) == \
        fixed_tree_count(klein_on_8, 2) == 104


def test_count_trivial_group():
    assert count_fixed_trees_direct(trivial_group(4)) == 26
    assert count_fixed_trees_direct(trivial_group(6)) == 2752


def test_count_z2_on_eight(z2_on_8):
    assert count_fixed_trees_direct(z2_on_8) == fixed_tree_count(z2_on_8, 4) \
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


def test_uniqueness_filters_suffice(klein, k1, z2_on_6, s3_regular, z6, klein_on_8):
    for group in (klein, k1, z2_on_6, s3_regular, z6, klein_on_8):
        diag = generation_diagnostics(group)
        assert diag.uniqueness_filters_sufficed, diag


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
        points = frozenset(range(1, group.degree + 1))
        count = 0
        for recipe in construction_recipes(group, points):
            count += 1
            assert len(recipe.parts) == len(recipe.subgroups) == len(recipe.seeds)
            if len(recipe.parts) == 1:
                assert recipe.subgroups[0].order < group.order
            for part, sub, seed in zip(recipe.parts, recipe.subgroups,
                                       recipe.seeds):
                # the seed is one sub-orbit inside each group-orbit of the part
                for orbit in part:
                    inside = seed & frozenset(orbit)
                    assert tuple(sorted(inside)) in sub.orbits_within(orbit)
                assert seed == frozenset().union(
                    *(seed & frozenset(o) for o in part))
        assert count > 0


def test_subtree_translation_consistency(klein, z2_on_6):
    # the subtree hanging below block g(Q) is the g-image of the subtree
    # below block Q
    for group in (klein, z2_on_6):
        for tau in generate_fixed_trees(group):
            for g in group.elements:
                for child in tau.children:
                    image_labels = frozenset(g(x) for x in child.labels)
                    target = tau.subtree_with_labels(image_labels)
                    assert target is not None
                    assert act(g, child) == target
