import itertools
import random

import pytest

from capsid.perms import (Permutation, close_generators, parse_permutation,
                          trivial_group)
from capsid.stabilizers import (TreePointerView, fixes, locate_image,
                                pointer_traversal_audit, pointer_view,
                                stabilizer)
from capsid.trees import act, enumerate_all_trees, parse_tree

from oracles import (brute_stabilizer, closure_by_products, compose,
                     random_permutation, random_tree, size_path_leaves,
                     vertices)


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
    assert locate_image(view, view.leaves[1]) == view.leaves[2]
    assert locate_image(view, view.root) == view.root
    h = parse_permutation("(1 4)(2 3)", 4)
    view_h = pointer_view(example_tree, h)
    assert locate_image(view_h, view_h.root) is None


def test_locate_image_internal_vertex():
    tau = parse_tree("((1,2),(3,4))")
    g = parse_permutation("(1 3)(2 4)", 4)
    view = pointer_view(tau, g)
    cherry12, cherry34 = view.children[view.root]
    assert locate_image(view, cherry12) == cherry34


def test_locate_image_is_the_isomorphic_image_at_every_vertex():
    # the image of the subtree at v is the vertex carrying the g-image of its
    # leaf set, and only when g maps the subtree onto that vertex's subtree
    rng = random.Random(61)
    for _ in range(150):
        n = rng.randint(1, 9)
        tau = random_tree(rng, range(1, n + 1))
        g = random_permutation(rng, n)
        subtree = {v.labels: v for v in vertices(tau)}
        probe = pointer_view(tau, g)
        label = {u: x for x, u in probe.leaves.items()}
        vertex = {}
        for v in range(len(probe.parent)):
            leaves = {label[u] for u in range(probe.first[v], v + 1) if u in label}
            vertex[frozenset(leaves)] = v
        assert vertex.keys() == subtree.keys()
        for labels, v in vertex.items():
            image = frozenset(g(x) for x in labels)
            expected = None
            if image in subtree and act(g, subtree[labels]) == subtree[image]:
                expected = vertex[image]
            view = pointer_view(tau, g)
            assert locate_image(view, v) == expected
            assert pointer_traversal_audit(view).each_pointer_at_most_once


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
        for v in vertices(tau):
            for c in v.children:
                label_to_parent[c.labels] = v.labels
        ok = True
        for v in vertices(tau):
            if not v.children:
                continue
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
        images = {p.images for p in group.elements}
        for a in images:
            for b in images:
                assert compose(a, b) in images
        for gen in result.generators:
            assert gen.images in images
            assert fixes(gen, tau)
        # the result group, like every subgroup the package derives, keeps
        # generators of its own that close to it
        assert close_generators(group.generators, group.degree) == group


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


def _greedy_generators(group, fixers):
    """The identity, then each element of the brute-force stabilizer
    ``fixers``, in increasing order (the group's, which ``fixers`` keeps),
    that the earlier ones do not already generate."""
    gens = [group.identity]
    closure = set(closure_by_products(gens, group.degree))
    for g in fixers:
        if g.images not in closure:
            gens.append(g)
            closure = set(closure_by_products(gens, group.degree))
    return tuple(gens)


def test_stabilizer_generators_are_greedy(s3_regular, z6):
    for group in (s3_regular, z6):
        sample = itertools.islice(enumerate_all_trees(range(1, 7)), 0, 2752, 11)
        for tau in sample:
            assert stabilizer(group, tau).generators == \
                _greedy_generators(group, brute_stabilizer(group, tau))


def test_stabilizer_leaf_set_mismatch(klein):
    # the degree message comes first, not the pointer view's own check
    with pytest.raises(ValueError) as err:
        stabilizer(klein, parse_tree("(1,2,3,4,5)"))
    assert str(err.value) == "leaf set mismatch: labels exceed the group degree"
    with pytest.raises(ValueError) as err:
        stabilizer(close_generators([parse_permutation("(1 2)(3 4)", 4)], 4),
                   parse_tree("(1,2,3)"))
    assert str(err.value) == \
        "leaf set mismatch: the group does not act on the leaf set"


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


def test_fixes_on_a_deep_caterpillar():
    # 2,000 leaves nested 1,999 deep, far past the interpreter's recursion
    # limit
    tau = parse_tree("(" * 1999 + "1" +
                     "".join(f",{label})" for label in range(2, 2001)))
    assert fixes(Permutation.identity(2000), tau)
    assert fixes(parse_permutation("(1 2)", 2000), tau)
    assert not fixes(parse_permutation("(1 3)", 2000), tau)
    group = close_generators([parse_permutation("(1 2)", 2000)], 2000)
    assert stabilizer(group, tau).order == 2


def test_reaimed_view_matches_a_fresh_view():
    rng = random.Random(67)
    for _ in range(120):
        n = rng.randint(1, 9)
        tau = random_tree(rng, range(1, n + 1))
        g = random_permutation(rng, n)
        view = pointer_view(tau, Permutation.identity(n))
        for v in range(len(view.parent)):
            # each run leaves counters set, which the next aim must zero
            assert view.aim(g) is view
            assert view.child_count == view.parent_count == view.g_count \
                == [0] * len(view.parent)
            assert locate_image(view, v) == locate_image(pointer_view(tau, g), v)
        fresh = pointer_view(tau, g)
        locate_image(view.aim(g), view.root)
        locate_image(fresh, fresh.root)
        assert pointer_traversal_audit(view) == pointer_traversal_audit(fresh)


def _recursive_postorder(tau):
    """children, parent, first, leaves and root of tau's vertices numbered
    in postorder by plain recursion."""
    children, parent, first, leaf_label = [], [], [], []

    def number(v):
        kids = [number(c) for c in v.children]
        u = len(children)
        children.append(kids)
        parent.append(None)
        for c in kids:
            parent[c] = u
        first.append(first[kids[0]] if kids else u)
        leaf_label.append(None if kids else v.min_label)
        return u

    root = number(tau)
    leaves = {x: u for u, x in enumerate(leaf_label) if x is not None}
    return children, parent, first, leaves, root


def test_pointer_view_matches_a_recursive_numbering():
    rng = random.Random(79)
    trees = [tau for n in range(1, 7) for tau in enumerate_all_trees(range(1, n + 1))]
    trees += [random_tree(rng, range(1, 61)) for _ in range(20)]
    for tau in trees:
        view = pointer_view(tau, Permutation.identity(len(tau.labels)))
        assert (view.children, view.parent, view.first, view.leaves,
                view.root) == _recursive_postorder(tau)


def test_reaimed_view_checks_the_degree():
    view = pointer_view(parse_tree("((1,2),3,4)"), Permutation.identity(4))
    with pytest.raises(ValueError, match="does not cover the leaf labels"):
        view.aim(Permutation.identity(3))


def _symmetric_tree(group, rng):
    """A tree fixed by <a> for a random element a: the root's children are
    the <a>-orbits of the points, each a star (or a leaf)."""
    sub = close_generators([rng.choice(group.elements)], group.degree)
    return parse_tree("(" + ",".join(
        "(" + ",".join(map(str, orbit)) + ")" if len(orbit) > 1 else str(orbit[0])
        for orbit in sub.orbits()) + ")")


def _check_against_oracles(group, tau):
    result, fixers = stabilizer(group, tau), brute_stabilizer(group, tau)
    assert set(result.group.elements) == set(fixers)
    assert result.generators == _greedy_generators(group, fixers)


def test_candidate_test_on_the_natural_action_of_s4():
    s4 = close_generators([parse_permutation("(1 2 3 4)", 4),
                           parse_permutation("(1 2)", 4)], 4)
    trees = list(enumerate_all_trees(range(1, 5)))
    assert len(trees) == 26
    for tau in trees:
        _check_against_oracles(s4, tau)


@pytest.mark.slow
def test_candidate_test_on_eight_points(klein_on_8, z2_on_8):
    for tau in itertools.islice(enumerate_all_trees(range(1, 9)), 0, None, 7):
        _check_against_oracles(klein_on_8, tau)
        _check_against_oracles(z2_on_8, tau)


def test_stabilizer_on_the_natural_action_of_s7():
    # stabilizers up to the whole group of 5,040, closed without a table
    s7 = close_generators([parse_permutation("(1 2 3 4 5 6 7)", 7),
                           parse_permutation("(1 2)", 7)], 7)
    assert s7.order == 5040
    for tau in itertools.islice(enumerate_all_trees(range(1, 8)), 0, None, 997):
        _check_against_oracles(s7, tau)
    assert "_mul_table" not in vars(s7)


def test_candidate_test_on_icosahedral_trees(ico):
    rng = random.Random(71)
    for _ in range(20):
        _check_against_oracles(ico, random_tree(rng, range(1, 61)))
        _check_against_oracles(ico, _symmetric_tree(ico, rng))


def test_candidate_test_skips_non_fixers(ico, monkeypatch):
    calls = []
    aim = TreePointerView.aim

    def counting(view, g):
        calls.append(g)
        return aim(view, g)

    monkeypatch.setattr(TreePointerView, "aim", counting)
    tau = random_tree(random.Random(73), range(1, 61))
    result = stabilizer(ico, tau)
    # the first aim is the constructor's, at the identity
    assert calls[0] == ico.identity
    assert len(calls) - 1 < ico.order - result.order


def _expected_reaims(group, tau):
    """In increasing order, each g that maps the least label to a leaf of
    ``size_path_leaves(tau)`` and lies outside the group that the fixers
    among the earlier such g generate."""
    candidates, least = size_path_leaves(tau), tau.min_label
    gens, closure, expected = [group.identity], {group.identity.images}, []
    for g in group.elements:
        if g(least) in candidates and g.images not in closure:
            expected.append(g)
            if act(g, tau) == tau:
                gens.append(g)
                closure = set(closure_by_products(gens, group.degree))
    return expected


def test_reaims_are_exactly_the_size_path_candidates(ico, monkeypatch):
    # a weaker candidate filter re-aims at more elements and a stronger one
    # at fewer, so either changes the list
    calls = []
    aim = TreePointerView.aim

    def counting(view, g):
        calls.append(g)
        return aim(view, g)

    monkeypatch.setattr(TreePointerView, "aim", counting)
    rng = random.Random(83)
    cases = [(ico, random_tree(rng, range(1, 61))) for _ in range(20)]
    cases += [(ico, _symmetric_tree(ico, rng)) for _ in range(20)]
    s4 = close_generators([parse_permutation("(1 2 3 4)", 4),
                           parse_permutation("(1 2)", 4)], 4)
    cases += [(s4, tau) for tau in enumerate_all_trees(range(1, 5))]
    cases.append((trivial_group(1), parse_tree("1")))
    for group, tau in cases:
        calls.clear()
        stabilizer(group, tau)
        # the constructor aims the view at the identity first
        assert calls == [group.identity, *_expected_reaims(group, tau)], \
            tau.to_text()
