"""Property tests on random groups: each group is built with
``group_from_text`` from one or two random permutations of degree at most 7,
and each tree is a random tree on a union of its orbits."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from capsid.perms import Permutation, close_generators, group_from_text  # noqa: E402
from capsid.stabilizers import fixes, stabilizer  # noqa: E402
from capsid.trees import act, parse_tree  # noqa: E402

from oracles import brute_stabilizer, compose, random_tree, vertices  # noqa: E402


@st.composite
def groups_and_trees(draw):
    degree = draw(st.integers(1, 7))
    perms = draw(st.lists(st.permutations(range(1, degree + 1)),
                          min_size=1, max_size=2))
    group = group_from_text(f"degree {degree}\n" + "\n".join(
        Permutation(p).cycle_string() for p in perms))
    orbits = draw(st.lists(st.sampled_from(group.orbits()), min_size=1,
                           unique=True))
    labels = [x for orbit in orbits for x in orbit]
    return group, random_tree(draw(st.randoms(use_true_random=False)), labels)


PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)


@PROPERTY
@given(groups_and_trees())
def test_fixes_is_the_action_fixing_the_tree(case):
    group, tau = case
    for g in group.elements:
        assert fixes(g, tau) == (act(g, tau) == tau)


@PROPERTY
@given(groups_and_trees())
def test_stabilizer_is_the_brute_stabilizer(case):
    group, tau = case
    assert stabilizer(group, tau).group == \
        close_generators(brute_stabilizer(group, tau), group.degree)


@PROPERTY
@given(groups_and_trees(), st.data())
def test_act_is_a_group_action(case, data):
    group, tau = case
    g, h = (data.draw(st.sampled_from(group.elements)) for _ in range(2))
    assert act(group.identity, tau) == tau
    gh = Permutation(compose(g.images, h.images))
    assert act(gh, tau) == act(g, act(h, tau))


@PROPERTY
@given(groups_and_trees())
def test_text_form_round_trips(case):
    _, tau = case
    text = tau.to_text()
    assert parse_tree(text) == tau
    assert hash(parse_tree(text)) == hash(tau)
    assert parse_tree(text).to_text() == text


@PROPERTY
@given(groups_and_trees())
def test_stored_fields_match_the_label_set(case):
    _, tau = case
    labels = tau.labels
    assert len(labels) == sum(1 for v in vertices(tau) if not v.children)
    assert tau.min_label == min(labels)
    assert labels == {v.min_label for v in vertices(parse_tree(tau.to_text()))
                      if not v.children}
