import itertools
import random
import sys
import tracemalloc

import pytest

from capsid.perms import Permutation, parse_permutation, trivial_group
from capsid.series import fixed_tree_count
from capsid.stabilizers import fixes, pointer_view
from capsid.trees import (AssemblyTree, _parse_nested, _parse_tokens, act,
                          enumerate_all_trees, parse_tree, set_partitions)

from oracles import (_random_tree_text, brute_stabilizer, compose,
                     count_trees_by_partition_recursion,
                     count_trees_by_recurrence, random_permutation,
                     random_tree, tree_texts_in_documented_order, vertices)

TOTAL_COUNTS = {1: 1, 2: 1, 3: 4, 4: 26, 5: 236, 6: 2752, 7: 39208,
                8: 660032, 9: 12818912}


def test_parse_examples():
    tau = parse_tree("((1,2),3,4)")
    assert tau.labels == frozenset({1, 2, 3, 4})
    assert [sorted(c.labels) for c in tau.children] == [[1, 2], [3], [4]]
    assert parse_tree("(1,2)").to_text() == "(1,2)"
    assert not parse_tree("9").children


PARSE_ERRORS = {
    "((1),2)": "internal vertex with a single child",
    "(1)": "internal vertex with a single child",
    "(1,1)": "invalid tree: children leaf sets overlap",
    "": "empty tree text",
    "()": "expected a leaf label at position 1 of '()'",
    "(1,2))": "trailing characters after tree: ')'",
    "((1,2)": "unbalanced parentheses in tree text",
    "(1,2),3": "trailing characters after tree: ',3'",
    "(0,1)": "leaf labels must be positive integers, got 0",
    "(1,x)": "expected a leaf label at position 3 of '(1,x)'",
    "((1,2),(3,(4,1)))": "invalid tree: children leaf sets overlap",
    "12x": "trailing characters after tree: 'x'",
    "1(": "trailing characters after tree: '('",
    "(,1)": "expected a leaf label at position 1 of '(,1)'",
    "(1, 2)": "expected a leaf label at position 3 of '(1, 2)'",
    "(1,2x)": "unexpected character 'x' in tree text",
    "(1,": "unexpected end of tree text",
    "(1,2)x": "trailing characters after tree: 'x'",
    "((1,2)x,3)": "unexpected character 'x' in tree text",
    "(1,2,)": "expected a leaf label at position 5 of '(1,2,)'",
    "0x": "leaf labels must be positive integers, got 0",
    "(1,\u00b2)": "expected a leaf label at position 3 of '(1,\u00b2)'",
    # over the interpreter's default 4,300-digit limit on int()
    "(" + "1" * 5000 + ",2)": "leaf label at position 1 is too long to read: "
                              "5000 digits",
}


@pytest.mark.parametrize(  # the text is the id, but a long one is cut short
    "text", PARSE_ERRORS, ids=lambda t: f"{t[:12]}...{len(t)}" if len(t) > 60 else None)
def test_parse_errors(text):
    with pytest.raises(ValueError) as err:
        parse_tree(text)
    assert str(err.value) == PARSE_ERRORS[text]


def _outcome(parse, text: str) -> str:
    """The canonical text that ``parse`` reads from ``text``, or its error."""
    try:
        return parse(text).to_text()
    except ValueError as err:
        return f"ValueError: {err}"


def _one_character_edits(text: str, alphabet="(),0123456789 x\u00b2"):
    """Every deletion, insertion and substitution of one character."""
    for i in range(len(text) + 1):
        if i < len(text):
            yield text[:i] + text[i + 1:]
        for c in alphabet:
            yield text[:i] + c + text[i:]
            if i < len(text):
                yield text[:i] + c + text[i + 1:]


def test_parse_tree_agrees_with_the_token_loop():
    # the JSON pass only ever declines; the token loop is the reference
    rng = random.Random(37)
    wellformed = [_random_tree_text(rng, rng.sample(range(1, 400), n))
                  for n in range(1, 201)]
    for text in wellformed:
        assert _parse_nested(text) is not None
    texts = [*PARSE_ERRORS, *wellformed]
    for small in ("((1,2),3,4)", "(1,(2,3))", "(10,(2,3),4)"):
        texts += _one_character_edits(small)
    n = 3_000
    texts.append("".join(f"({leaf}," for leaf in range(1, n)) + str(n) +
                 ")" * (n - 1))
    for text in texts:
        assert _outcome(parse_tree, text) == _outcome(_parse_tokens, text), text


def test_a_long_label_is_read_once_the_digit_cap_is_lifted():
    # with the cap on, the label is a PARSE_ERRORS case
    text = "(" + "1" * 5000 + ",2)"
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as the CLI does
    try:
        assert _parse_nested(text) is not None
        assert (_outcome(parse_tree, text) == _outcome(_parse_tokens, text)
                == "(2," + "1" * 5000 + ")")
    finally:
        sys.set_int_max_str_digits(cap)


def test_canonical_child_order():
    assert parse_tree("(4,3,(2,1))").to_text() == "((1,2),3,4)"
    assert parse_tree("((3,4),1,2)").to_text() == "(1,2,(3,4))"


def test_node_validation():
    # internal vertices are checked where tree text is read (PARSE_ERRORS)
    with pytest.raises(ValueError):
        AssemblyTree.leaf(0)


def test_act_examples():
    tau = parse_tree("((1,2),3,4)")
    g = parse_permutation("(1 2)(3 4)", 4)
    assert act(g, tau) == tau
    assert act(Permutation.identity(4), tau) == tau
    h = parse_permutation("(1 4)(2 3)", 4)
    assert act(h, tau) == parse_tree("((3,4),1,2)")
    assert act(h, tau) != tau


def test_act_degree_check():
    with pytest.raises(ValueError):
        act(parse_permutation("(1 2)", 2), parse_tree("(1,2,3)"))


def test_act_is_group_action(klein, s3_regular):
    rng = random.Random(19)
    trees4 = list(enumerate_all_trees(range(1, 5)))
    trees6 = rng.sample(list(enumerate_all_trees(range(1, 7))), 40)
    for group, sample in ((klein, trees4), (s3_regular, trees6)):
        for tau in sample:
            for g in group.elements:
                for h in group.elements:
                    gh = Permutation(compose(g.images, h.images))
                    assert act(gh, tau) == act(g, act(h, tau))


def test_act_vertex_label_definition():
    # g(tau) is the tree whose vertex labels are exactly the g-images
    rng = random.Random(23)
    for _ in range(30):
        tau = random_tree(rng, range(1, rng.randint(2, 9)))
        g = random_permutation(rng, max(tau.labels))
        image = act(g, tau)
        expected = {frozenset(g(x) for x in v.labels) for v in vertices(tau)}
        assert {v.labels for v in vertices(image)} == expected


def test_serialization_round_trip():
    rng = random.Random(29)
    for tau in enumerate_all_trees(range(1, 6)):
        assert parse_tree(tau.to_text()) == tau
    for _ in range(50):
        tau = random_tree(rng, rng.sample(range(1, 40), rng.randint(1, 10)))
        assert parse_tree(tau.to_text()) == tau


def test_canonical_equality():
    seen = {}
    for tau in enumerate_all_trees(range(1, 6)):
        text = tau.to_text()
        assert text not in seen
        seen[text] = tau
    # equality iff identical canonical text
    trees = list(seen.values())
    sample = random.Random(31).sample(trees, 20)
    for a in sample:
        for b in sample:
            assert (a == b) == (a.to_text() == b.to_text())


def test_hundred_thousand_leaf_caterpillar():
    # trees store no label sets and no tree path recurses, equality and
    # hashing included, so a caterpillar this deep costs memory linear in
    # its leaves
    n = 100_000
    head, tail = "".join(f"({leaf}," for leaf in range(1, n)), ")" * (n - 1)
    text = head + str(n) + tail
    tracemalloc.start()
    try:
        tau = parse_tree(text)
        assert fixes(Permutation.identity(n), tau)
        assert tau.to_text() == text
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tau.labels) == n and tau.labels == frozenset(range(1, n + 1))
    again = parse_tree(text)
    assert hash(tau) == hash(again)
    assert len({tau, again}) == 1
    assert peak < 200 * 2 ** 20
    # the same caterpillar but for its deepest vertex, (n-1, n+1)
    other = parse_tree(head + str(n + 1) + tail)
    assert tau != other and again != other
    assert len({tau, again, other}) == 2


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 4), (4, 26),
                                     (5, 236), (6, 2752)])
def test_enumerate_counts(n, count):
    trees = list(enumerate_all_trees(range(1, n + 1)))
    assert len(trees) == count
    assert len(set(trees)) == count


def test_enumerate_count_seven():
    assert sum(1 for _ in enumerate_all_trees(range(1, 8))) == TOTAL_COUNTS[7]


def test_enumerate_arbitrary_labels():
    trees = list(enumerate_all_trees([7, 2, 9, 4]))
    assert len(trees) == 26
    assert all(t.labels == frozenset({2, 4, 7, 9}) for t in trees)


def _same_stream(labels):
    # streamed pair by pair: at 8 leaves the two lists would hold 1.3
    # million trees
    count = 0
    for ours, oracle in itertools.zip_longest(
            enumerate_all_trees(labels), tree_texts_in_documented_order(labels)):
        assert ours is not None and oracle is not None
        assert ours.to_text() == oracle
        count += 1
    return count


@pytest.mark.parametrize("labels", [range(1, n + 1) for n in range(1, 8)]
                         + [[7, 2, 9, 4]])
def test_enumeration_order_matches_the_documented_order(labels):
    assert _same_stream(labels) == TOTAL_COUNTS[len(labels)]


@pytest.mark.slow
def test_enumeration_order_at_eight_leaves():
    # the size at which a root partition has a block too large for the memo
    assert _same_stream(range(1, 9)) == TOTAL_COUNTS[8]


def test_enumerate_size_bound():
    with pytest.raises(ValueError):
        list(enumerate_all_trees(range(1, 11)))
    with pytest.raises(ValueError):
        list(enumerate_all_trees([]))


def test_count_trees_matches_series_and_recursion():
    for n in range(1, 10):
        assert fixed_tree_count(trivial_group(1), n) == TOTAL_COUNTS[n]
    for n in range(1, 11):
        assert fixed_tree_count(trivial_group(1), n) == \
            count_trees_by_partition_recursion(n)


def test_tree_count_oracles_agree():
    for n in range(1, 10):
        assert count_trees_by_recurrence(n) == TOTAL_COUNTS[n]
    for n in range(1, 9):
        assert count_trees_by_recurrence(n) == \
            count_trees_by_partition_recursion(n)


@pytest.mark.slow
def test_enumerator_matches_counts_at_oracle_scale():
    assert sum(1 for _ in enumerate_all_trees(range(1, 9))) == TOTAL_COUNTS[8]
    assert sum(1 for _ in enumerate_all_trees(range(1, 10))) == TOTAL_COUNTS[9]


@pytest.mark.slow
def test_enumerator_distinct_at_eight():
    trees = set(enumerate_all_trees(range(1, 9)))
    assert len(trees) == TOTAL_COUNTS[8]


def test_set_partitions():
    parts = list(set_partitions((1, 2, 3)))
    assert len(parts) == 5
    assert all(min(min(b) for b in p) == 1 for p in parts)
    assert list(set_partitions((1, 2, 3), min_parts=2)) == [
        ((1,), (2,), (3,)), ((1,), (2, 3)), ((1, 2), (3,)), ((1, 3), (2,))]


def test_orbit_of_tree(klein):
    tau = parse_tree("((1,2),(3,4))")
    orbit = {act(g, tau) for g in klein.elements}
    stab = brute_stabilizer(klein, tau)
    assert len(orbit) * len(stab) == klein.order
    assert {act(g, tau) for g in trivial_group(4).elements} == {tau}


def test_orbit_stabilizer_for_all_26(klein):
    for tau in enumerate_all_trees(range(1, 5)):
        orbit = {act(g, tau) for g in klein.elements}
        stab = brute_stabilizer(klein, tau)
        assert len(orbit) * len(stab) == 4


def test_klein_pathway_count(klein):
    seen = set()
    orbits = 0
    for tau in enumerate_all_trees(range(1, 5)):
        if tau not in seen:
            seen |= {act(g, tau) for g in klein.elements}
            orbits += 1
    assert orbits == 11


def test_burnside_consistency(klein):
    # average number of fixed trees equals the orbit count: (26 + 3*6)/4 = 11
    trees = list(enumerate_all_trees(range(1, 5)))
    fixed_counts = [sum(1 for t in trees if act(g, t) == t)
                    for g in klein.elements]
    assert sorted(fixed_counts) == [6, 6, 6, 26]
    assert sum(fixed_counts) // klein.order == 11


def test_pointer_view_structure():
    tau = parse_tree("((1,2),3,4)")
    g = parse_permutation("(1 2)(3 4)", 4)
    view = pointer_view(tau, g)
    # postorder: the cherry's leaves, the cherry, the other leaves, the root;
    # labels are not stored except in the leaf map
    assert view.children == [[], [], [0, 1], [], [], [2, 3, 4]]
    assert view.parent == [2, 2, 5, 5, 5, None]
    assert view.first == [0, 1, 0, 3, 4, 0]
    assert view.root == 5
    assert view.leaves == {1: 0, 2: 1, 3: 3, 4: 4}
    assert view.g_target == [1, 0, None, 4, 3, None]
    assert view.child_count == view.parent_count == view.g_count == [0] * 6


def test_pointer_view_non_invariant_leaf_set():
    tau = parse_tree("(1,2,3)")
    g = parse_permutation("(3 4)", 4)
    view = pointer_view(tau, g)
    assert view.g_target[view.leaves[3]] is None
