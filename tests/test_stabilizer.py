import itertools
import random

import pytest

from capsid.perms import (Permutation, close_generators, parse_permutation,
                          trivial_group)
from capsid.stabilizers import (fixes, locate_image, pointer_traversal_audit,
                               stabilizer)
from capsid.trees import act, enumerate_all_trees, parse_tree, pointer_view

from oracles import brute_stabilizer, random_permutation, random_tree


@pytest.fixture
def example_tree():
    return parse_tree("((1,2),3,4)")


def test_fixes_examples(example_tree):
    assert fixes(parse_permutation("(1 2)(3 4)", 4), example_tree)
    assert fixes(Permutation.identity(4), example_tree)
    assert not fixes(parse_permutation("(1 4)(2 3)", 4), example_tree)


def test_locate_image_on_vertices(example_tree):
    g = parse_permutation("(1 2)(3 4)", 4)
    view = pointer_view(example_tree, g)
    assert locate_image(view, view.leaves[1]) is view.leaves[2]
    assert locate_image(view, view.root) is view.root
    h = parse_permutation("(1 4)(2 3)", 4)
    view_h = pointer_view(example_tree, h)
    assert locate_image(view_h, view_h.root) is None


def test_locate_image_internal_vertex():
    tau = parse_tree("((1,2),(3,4))")
    g = parse_permutation("(1 3)(2 4)", 4)
    view = pointer_view(tau, g)
    cherry12 = view.root.children[0]
    located = locate_image(view, cherry12)
    assert located is view.root.children[1]


def test_fixes_agrees_with_action_randomized():
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randint(1, 8)
        labels = range(1, n + 1)
        tau = random_tree(rng, labels)
        g = random_permutation(rng, n)
        assert fixes(g, tau) == (act(g, tau) == tau)


def test_fixes_equivalence_exhaustive_small(klein, k1, z2_on_6, s3_regular, z6):
    groups = [trivial_group(4), k1, klein]
    for group in groups:
        for tau in enumerate_all_trees(range(1, 5)):
            for g in group.elements:
                assert fixes(g, tau) == (act(g, tau) == tau)
    for group in (z2_on_6, s3_regular, z6):
        sample = itertools.islice(enumerate_all_trees(range(1, 7)), 0, 2752, 7)
        for tau in sample:
            for g in group.elements:
                assert fixes(g, tau) == (act(g, tau) == tau)


@pytest.mark.slow
def test_fixes_equivalence_exhaustive_eight_leaves(z2_on_8):
    rng = random.Random(59)
    involution = next(g for g in z2_on_8.elements if not g.is_identity())
    for tau in enumerate_all_trees(range(1, 9)):
        assert fixes(involution, tau) == (act(involution, tau) == tau)
        g = random_permutation(rng, 8)
        assert fixes(g, tau) == (act(g, tau) == tau)


def test_children_image_characterization():
    # g fixes tau iff for every internal vertex the children images are
    # vertex labels sharing one parent, and that parent is the vertex image
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randint(2, 7)
        tau = random_tree(rng, range(1, n + 1))
        g = random_permutation(rng, n)
        label_to_parent = {}
        for v in tau.vertices():
            for c in v.children:
                label_to_parent[c.labels] = v.labels
        ok = True
        for v in tau.internal_vertices():
            images = [frozenset(g(x) for x in c.labels) for c in v.children]
            parents = {label_to_parent.get(img) for img in images}
            if None in parents or len(parents) != 1:
                ok = False
                break
            if parents.pop() != frozenset(g(x) for x in v.labels):
                ok = False
                break
        assert ok == fixes(g, tau)


def test_stabilizer_examples(klein, example_tree):
    result = stabilizer(klein, example_tree)
    assert result.order == 2
    assert {p.images for p in result.group.elements} == {
        (1, 2, 3, 4), (2, 1, 4, 3)}
    assert stabilizer(trivial_group(4), example_tree).order == 1
    star = parse_tree("(1,2,3,4)")
    full = stabilizer(klein, star)
    assert full.group == klein
    assert klein.order // full.order == 1


def test_stabilizer_output_is_subgroup(klein, s3_regular):
    rng = random.Random(43)
    trees = rng.sample(list(enumerate_all_trees(range(1, 7))), 25)
    for tau in trees:
        result = stabilizer(s3_regular, tau)
        group = result.group
        assert group.identity.is_identity()
        for a in group.elements:
            for b in group.elements:
                assert (a * b) in group
        for gen in result.generators:
            assert gen in group
            assert fixes(gen, tau)


def test_stabilizer_matches_brute_force(klein, k1, z2_on_6, z6, s3_regular):
    for group in (klein, k1):
        for tau in enumerate_all_trees(range(1, 5)):
            assert set(stabilizer(group, tau).group.elements) == \
                set(brute_stabilizer(group, tau))
    rng = random.Random(47)
    trees6 = rng.sample(list(enumerate_all_trees(range(1, 7))), 60)
    for group in (z2_on_6, z6, s3_regular):
        for tau in trees6:
            assert set(stabilizer(group, tau).group.elements) == \
                set(brute_stabilizer(group, tau))


def _greedy_generators(group, tau):
    """The identity, then each element of the brute-force stabilizer, in
    increasing order, that the earlier ones do not already generate."""
    gens = [group.identity]
    for g in sorted(brute_stabilizer(group, tau)):
        if g not in close_generators(gens, group.degree):
            gens.append(g)
    return tuple(gens)


def test_stabilizer_generators_are_greedy(s3_regular, z6):
    for group in (s3_regular, z6):
        sample = itertools.islice(enumerate_all_trees(range(1, 7)), 0, 2752, 11)
        for tau in sample:
            assert stabilizer(group, tau).generators == \
                _greedy_generators(group, tau)


def test_stabilizer_leaf_set_mismatch(klein):
    with pytest.raises(ValueError):
        stabilizer(klein, parse_tree("(1,2,3,4,5)"))
    with pytest.raises(ValueError):
        stabilizer(close_generators([parse_permutation("(1 2)(3 4)", 4)], 4),
                   parse_tree("(1,2,3)"))


def test_audit_each_pointer_once(example_tree):
    g = parse_permutation("(1 2)(3 4)", 4)
    view = pointer_view(example_tree, g)
    locate_image(view, view.root)
    audit = pointer_traversal_audit(view)
    assert audit.ok
    assert audit.each_pointer_at_most_once
    assert audit.leaf_count == 4
    assert audit.g_traversals == 4


def test_audit_unsuccessful_run(example_tree):
    h = parse_permutation("(1 4)(2 3)", 4)
    view = pointer_view(example_tree, h)
    locate_image(view, view.root)
    audit = pointer_traversal_audit(view)
    assert audit.ok


def test_audit_single_leaf():
    view = pointer_view(parse_tree("1"), Permutation.identity(1))
    locate_image(view, view.root)
    audit = pointer_traversal_audit(view)
    assert audit.g_traversals == 1
    assert audit.ok


def test_audit_randomized():
    rng = random.Random(53)
    for _ in range(100):
        n = rng.randint(1, 20)
        tau = random_tree(rng, range(1, n + 1))
        g = random_permutation(rng, n)
        view = pointer_view(tau, g)
        locate_image(view, view.root)
        assert pointer_traversal_audit(view).ok
