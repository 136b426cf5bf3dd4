import functools
import random
from collections import Counter

import pytest

from capsid.perms import (PermGroup, Permutation, builtin_group, close_generators,
                          group_from_text, parse_permutation,
                          replicated_action, trivial_group)
from oracles import (brute_subgroups, closure_by_products, compose,
                     element_order)


def test_parse_permutation_examples():
    assert parse_permutation("(1 2)(3 4)", 4).images == (2, 1, 4, 3)
    assert parse_permutation("", 4).images == (1, 2, 3, 4)
    assert parse_permutation("(1 2 3 4)", 4).images == (2, 3, 4, 1)
    assert parse_permutation("()", 4).images == (1, 2, 3, 4)
    assert parse_permutation("(1,2)(3,4)", 4).images == (2, 1, 4, 3)
    assert parse_permutation(" ( 1 2 ) ", 3).images == (2, 1, 3)


PERMUTATION_ERRORS = {
    "((1 2)": "malformed cycle notation: '((1 2)'",
    "(a b)": "malformed cycle notation: '(a b)'",
    "1 2": "malformed cycle notation: '1 2'",
    "(1 \u00b2)": "malformed cycle notation: '(1 \u00b2)'",
    "(1 x)": "malformed cycle notation: '(1 x)'",
    "(1 5)": "point 5 out of range 1..4",
    "(1 2)(2 3)": "point 2 repeated across cycles",
}


@pytest.mark.parametrize("text", PERMUTATION_ERRORS)
def test_parse_permutation_errors(text):
    with pytest.raises(ValueError) as err:
        parse_permutation(text, 4)
    assert str(err.value) == PERMUTATION_ERRORS[text]


def test_composition_convention(s3):
    # right factor acts first: the table's product of a transposition and a
    # 3-cycle, which do not commute
    a = parse_permutation("(1 2)", 3)
    b = parse_permutation("(1 2 3)", 3)
    index = s3.elements.index
    product = s3.elements[s3._mul_table()[index(a)][index(b)]]
    assert product == parse_permutation("(2 3)", 3)
    assert [product(x) for x in (1, 2, 3)] == [a(b(x)) for x in (1, 2, 3)]
    assert product.images == compose(a.images, b.images)


def test_cycle_string_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        degree = rng.randint(1, 9)
        images = list(range(1, degree + 1))
        rng.shuffle(images)
        p = Permutation(images)
        assert parse_permutation(p.cycle_string(), degree) == p


def test_close_generators_klein(klein):
    assert klein.order == 4
    expected = {(1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)}
    assert {p.images for p in klein.elements} == expected


def test_close_generators_trivial_and_cyclic():
    assert close_generators([], 3).order == 1
    assert close_generators([parse_permutation("(1 2 3 4 5)", 5)], 5).order == 5


def test_closure_idempotence(klein, s3):
    for g in (klein, s3):
        again = close_generators(list(g.elements), g.degree)
        assert set(again.elements) == set(g.elements)


def test_close_generators_matches_closure_by_products(klein, ico):
    s5 = close_generators([parse_permutation("(1 2 3 4 5)", 5),
                           parse_permutation("(1 2)", 5)], 5)
    cases = [klein.generators, (Permutation.identity(4), *klein.generators),
             ico.generators, s5.regular_action().generators,
             replicated_action(ico, 3).generators,
             builtin_group("trivial:1").generators,
             # on one point, itemgetter gives a bare int, not a tuple
             (Permutation.identity(1),)]
    for gens in cases:
        degree = gens[0].degree if gens else 1
        group = close_generators(gens, degree)
        assert [p.images for p in group.elements] == \
            closure_by_products(gens, degree)
        assert group.generators == tuple(gens)


def test_orbits(klein):
    assert klein.orbits() == [(1, 2, 3, 4)]
    assert trivial_group(3).orbits() == [(1,), (2,), (3,)]
    g = close_generators([parse_permutation("(1 2)(3 4)(5 6)", 6)], 6)
    assert g.orbits() == [(1, 2), (3, 4), (5, 6)]
    # orbits come from the element set, not from the generators a group keeps
    bare = PermGroup(4, [], klein.elements)
    assert bare.orbits() == [(1, 2, 3, 4)]
    assert bare.is_simple_action()


def test_is_simple_action(klein, s3, s3_regular):
    assert klein.is_simple_action()
    assert not close_generators([parse_permutation("(1 2)", 3)], 3).is_simple_action()
    assert not s3.is_simple_action()
    assert s3_regular.is_simple_action()


def test_point_orbit_stabilizer_identity(klein, s3, z6):
    for group in (klein, s3, z6):
        orbit_of = {}
        for orbit in group.orbits():
            for x in orbit:
                orbit_of[x] = len(orbit)
        for x in range(1, group.degree + 1):
            stab = sum(1 for g in group.elements if g(x) == x)
            assert orbit_of[x] * stab == group.order


def test_simple_action_iff_free_orbits(klein, z2_on_6, s3):
    # census subgroups: orbits() reads each subgroup's own element set
    for group in (klein, z2_on_6, trivial_group(4), *s3.all_subgroups()):
        free = all(g(x) != x for g in group.elements[1:]
                   for x in range(1, group.degree + 1))
        assert group.is_simple_action() == free


def test_all_subgroups_klein(klein):
    subs = klein.all_subgroups()
    assert [s.order for s in subs] == [1, 2, 2, 2, 4]
    assert len(trivial_group(2).all_subgroups()) == 1


def test_all_subgroups_lagrange(klein, s3, z6):
    for group in (klein, s3, z6):
        for sub in group.all_subgroups():
            assert group.order % sub.order == 0
            assert sub.is_subgroup_of(group)


def test_all_subgroups_exactly_once(s3):
    subs = s3.all_subgroups()
    assert len(set(subs)) == len(subs) == 6


def test_icosahedral_census(ico):
    subs = ico.all_subgroups()
    histogram = {}
    for s in subs:
        histogram[s.order] = histogram.get(s.order, 0) + 1
    assert histogram == {1: 1, 2: 15, 3: 10, 4: 5, 5: 6, 6: 10, 10: 6, 12: 5, 60: 1}
    assert len(subs) == 59


def test_conjugacy_classes(klein, ico):
    assert len(klein.conjugacy_classes_of_subgroups()) == 5
    classes = ico.conjugacy_classes_of_subgroups()
    assert sorted(c.representative.order for c in classes) == [1, 2, 3, 4, 5, 6, 10, 12, 60]
    assert len(trivial_group(1).conjugacy_classes_of_subgroups()) == 1
    # classes partition the subgroups
    members = [m for c in classes for m in c.members]
    assert len(members) == 59 == len(set(members))


def test_census_when_the_first_point_does_not_separate_elements():
    s4 = close_generators([parse_permutation("(1 2 3 4)", 4),
                           parse_permutation("(1 2)", 4)], 4)
    assert len(s4.all_subgroups()) == 30
    assert len(s4.conjugacy_classes_of_subgroups()) == 11
    v4 = close_generators([parse_permutation("(1 2)(3 4)", 4),
                           parse_permutation("(1 3)(2 4)", 4)], 4)
    assert s4.normalizer(v4) == s4
    assert len(s4.left_coset_representatives(v4)) == 6
    # the square's symmetries on its 4 vertices and 4 edges
    d4 = close_generators([parse_permutation("(1 2 3 4)(5 6 7 8)", 8),
                           parse_permutation("(2 4)(5 8)(6 7)", 8)], 8)
    assert d4.order == 8
    assert len(d4.all_subgroups()) == 10
    assert len(d4.conjugacy_classes_of_subgroups()) == 8
    c3 = close_generators([parse_permutation("(3 4 5)", 5)], 5)
    assert len(c3.all_subgroups()) == 2


def _generated(degree: int, *cycles: str):
    return close_generators([parse_permutation(c, degree) for c in cycles],
                            degree)


CENSUS_GROUPS = {
    "klein4": lambda: builtin_group("klein4"),
    "s4": lambda: _generated(4, "(1 2 3 4)", "(1 2)"),
    "d4_on_8": lambda: _generated(8, "(1 2 3 4)(5 6 7 8)", "(2 4)(5 8)(6 7)"),
    "s4_regular": lambda: _generated(4, "(1 2 3 4)", "(1 2)").regular_action(),
    "s5": lambda: _generated(5, "(1 2 3 4 5)", "(1 2)"),
    "s5_regular": lambda: _generated(5, "(1 2 3 4 5)", "(1 2)").regular_action(),
    "icosahedral": lambda: builtin_group("icosahedral"),
}


@functools.cache
def census_group(name: str):
    return CENSUS_GROUPS[name]()


@pytest.mark.parametrize("name", sorted(CENSUS_GROUPS))
def test_census_matches_the_brute_force_oracle(name):
    group = census_group(name)

    def images(sub):
        return frozenset(p.images for p in sub.elements)

    expected = brute_subgroups(group)
    classes = group.conjugacy_classes_of_subgroups()
    assert [[images(m) for m in cls.members] for cls in classes] == expected
    assert [cls.representative for cls in classes] == \
        [cls.members[0] for cls in classes]
    nodes = group.all_subgroups()
    assert [images(sub) for sub in nodes] == sorted(
        (sub for cls in expected for sub in cls),
        key=lambda sub: (len(sub), sorted(sub)))
    # each subgroup and each normalizer keeps generators of its own, which
    # close to it
    for sub in nodes:
        assert close_generators(sub.generators, group.degree) == sub
    for cls in classes:
        norm = group.normalizer(cls.representative)
        assert close_generators(norm.generators, group.degree) == norm


@pytest.mark.parametrize("name", sorted(CENSUS_GROUPS))
def test_mul_table_matches_composed_images(name):
    group = census_group(name)
    index = {p.images: i for i, p in enumerate(group.elements)}
    assert group._mul_table() == [
        [index[compose(a.images, b.images)] for b in group.elements]
        for a in group.elements]


@pytest.mark.slow
def test_s6_census_has_the_published_counts():
    s6 = _generated(6, "(1 2 3 4 5 6)", "(1 2)")
    assert len(s6.all_subgroups()) == 1455
    assert len(s6.conjugacy_classes_of_subgroups()) == 56


def test_conjugate_subgroups_same_order(ico):
    for cls in ico.conjugacy_classes_of_subgroups():
        orders = {m.order for m in cls.members}
        assert len(orders) == 1


def test_conjugate_subgroups_same_subgroup_count(ico):
    for cls in ico.conjugacy_classes_of_subgroups():
        if cls.representative.order == ico.order:
            continue
        counts = {len(m.all_subgroups()) for m in cls.members}
        assert len(counts) == 1


def test_normalizer(klein, ico):
    k1 = klein.all_subgroups()[1]
    assert klein.normalizer(k1) == klein
    assert klein.normalizer(klein) == klein
    h5 = next(s for s in ico.all_subgroups() if s.order == 5)
    assert ico.normalizer(h5).order == 10


def test_normalizer_requires_subgroup(klein, s3):
    with pytest.raises(ValueError):
        klein.normalizer(s3)
    transposition = close_generators([parse_permutation("(1 2)", 4)], 4)
    with pytest.raises(ValueError):
        klein.normalizer(transposition)
    with pytest.raises(ValueError):
        klein.left_coset_representatives(transposition)


def test_left_coset_representatives(klein, ico):
    k1 = klein.all_subgroups()[1]
    reps = klein.left_coset_representatives(k1)
    assert len(reps) == 2
    assert len(klein.left_coset_representatives(klein)) == 1
    h12 = next(s for s in ico.all_subgroups() if s.order == 12)
    assert len(ico.left_coset_representatives(h12)) == 5


def test_orbits_within_rejects_non_invariant_sets(k1):
    assert k1.orbits_within({1, 2}) == [(1, 2)]
    assert k1.orbits_within({1, 2, 3, 4}) == [(1, 2), (3, 4)]
    with pytest.raises(ValueError):
        k1.orbits_within({2, 3})
    with pytest.raises(ValueError):
        k1.orbits_within({1, 3})


def test_cosets_partition_group(klein, s3, z6):
    for group in (klein, s3, z6):
        for sub in group.all_subgroups():
            reps = group.left_coset_representatives(sub)
            cosets = [frozenset(compose(r.images, h.images) for h in sub.elements)
                      for r in reps]
            assert len(reps) * sub.order == group.order
            union = set().union(*cosets)
            assert union == {p.images for p in group.elements}
            # each representative is minimal in its coset
            for r, coset in zip(reps, cosets):
                assert r.images == min(coset)


def test_regular_action(klein, s3):
    reg = klein.regular_action()
    assert reg.degree == 4 and reg.order == 4
    assert reg.is_simple_action() and len(reg.orbits()) == 1
    assert trivial_group(5).regular_action().degree == 1
    s3reg = s3.regular_action()
    assert s3reg.degree == 6 and s3reg.is_simple_action()
    # g maps to left translation x -> g * x on the canonical element list,
    # and products map to products
    els = [p.images for p in s3.elements]

    def translate(g):
        return tuple(els.index(compose(g, x)) + 1 for x in els)

    image = {g: translate(g) for g in els}
    assert sorted(image.values()) == [p.images for p in s3reg.elements]
    assert all(image[compose(g, h)] == compose(image[g], image[h])
               for g in els for h in els)


def test_icosahedral_element_orders(ico):
    assert ico.order == 60
    assert Counter(element_order(p) for p in ico.elements) == {1: 1, 2: 15, 3: 20, 5: 24}
    assert ico.is_simple_action() and len(ico.orbits()) == 1


def test_replicated_action(klein):
    doubled = replicated_action(klein, 2)
    assert doubled.degree == 8 and doubled.order == 4
    assert doubled.is_simple_action()
    assert len(doubled.orbits()) == 2
    # each element is the matching klein element's image tuple, shifted by
    # 4 on each further copy
    tripled = replicated_action(klein, 3)
    assert [p.images for p in tripled.elements] == \
        [tuple(c * 4 + x for c in range(3) for x in p.images)
         for p in klein.elements]


def test_builtin_groups():
    assert builtin_group("klein4").order == 4
    assert builtin_group("cyclic:5").order == 5
    assert builtin_group("trivial:7").degree == 7
    assert builtin_group("icosahedral").order == 60
    with pytest.raises(ValueError):
        builtin_group("dihedral:4")
    # sizes are decimal digits only, as in group files and tree text
    for name in ("cyclic:x", "cyclic:1_0", "cyclic:+3", "cyclic: 3",
                 "trivial:1_0", "cyclic:" + "1" * 5000):
        with pytest.raises(ValueError, match="malformed builtin group name"):
            builtin_group(name)


def test_group_from_text(klein):
    text = "degree 4\n(1 2)(3 4)\n(1 3)(2 4)\n"
    assert group_from_text(text) == klein
    assert group_from_text("degree 3\n# comment\n\n").order == 1


@pytest.mark.parametrize("header", ["", "(1 2)(3 4)", "degree", "degree x",
                                    "degreefoo 4", "degree 4 junk",
                                    "degree +4"])
def test_group_from_text_needs_a_degree_line(header):
    with pytest.raises(ValueError) as err:
        group_from_text(f"{header}\n(1 2)(3 4)\n")
    assert str(err.value) == "group text must start with a 'degree N' line"
