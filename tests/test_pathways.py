from fractions import Fraction

import pytest

from capsid import series
from capsid.lattice import build_lattice
from capsid.pathways import (format_distribution, pathway_probabilities,
                             pathway_size_distribution, tbar)
from capsid.perms import (PermGroup, close_generators, cyclic_group,
                          icosahedral_group, parse_permutation,
                          replicated_action, trivial_group)

from oracles import (brute_orbit_partition, brute_pathway_counts,
                     burnside_total, count_trees_by_recurrence)


def icosahedral_distribution(t_number):
    return pathway_size_distribution(
        replicated_action(icosahedral_group(), t_number))


@pytest.fixture(scope="module")
def klein_dist(klein):
    return pathway_size_distribution(klein)


def test_tbar_examples(klein):
    lat = build_lattice(klein)
    trivial, top = lat.nodes[0], lat.nodes[-1]
    k1 = lat.nodes[1]
    t = {sub: {1: 26, 2: 6, 4: 4}[sub.order] for sub in lat.nodes}
    assert tbar(klein, k1, t, lat) == 2
    assert tbar(klein, top, t, lat) == 4
    assert tbar(klein, trivial, t, lat) == 16


def test_tbar_rejects_inconsistent_input(klein):
    lat = build_lattice(klein)
    bad = {sub: {1: 0, 2: 6, 4: 4}[sub.order] for sub in lat.nodes}
    with pytest.raises(ArithmeticError):
        tbar(klein, lat.nodes[0], bad, lat)


def test_klein_distribution(klein_dist):
    d = klein_dist
    assert d.total_trees == 26
    assert d.leaf_count == 4
    assert d.per_divisor == {1: 4, 2: 3, 4: 4}
    assert d.pathway_total == 11
    by_order = {(r.order, r.class_size): r.exact_count
                for r in d.per_subgroup_class}
    assert by_order == {(1, 1): 16, (2, 1): 2, (4, 1): 4}
    # three order-2 classes, one row each
    assert sum(1 for r in d.per_subgroup_class if r.order == 2) == 3


def test_klein_probabilities(klein_dist):
    probs = pathway_probabilities(klein_dist)
    assert probs == {1: Fraction(1, 26), 2: Fraction(1, 13), 4: Fraction(2, 13)}


def test_probabilities_sum_to_one(klein_dist, z2_on_6):
    for dist in (klein_dist, pathway_size_distribution(z2_on_6)):
        probs = pathway_probabilities(dist)
        total = sum(dist.per_divisor[m] * p for m, p in probs.items())
        assert total == 1


def test_klein_matches_brute_force_orbits(klein, klein_dist):
    orbits = brute_orbit_partition(klein, range(1, 5))
    sizes = {}
    for orbit in orbits:
        sizes[len(orbit)] = sizes.get(len(orbit), 0) + 1
    assert sizes == {m: n for m, n in klein_dist.per_divisor.items() if n}


def _generated(degree, *cycles):
    return close_generators([parse_permutation(c, degree) for c in cycles],
                            degree)


PATHWAY_GROUPS = {
    "c3_on_6": lambda: _generated(6, "(1 2 3)(4 5 6)"),
    "c6_regular": lambda: _generated(6, "(1 2 3 4 5 6)"),
    "s3_regular": lambda: _generated(3, "(1 2 3)", "(1 2)").regular_action(),
    "c7_regular": lambda: _generated(7, "(1 2 3 4 5 6 7)"),
}

SLOW_PATHWAY_GROUPS = {
    "c4_on_8": lambda: _generated(8, "(1 2 3 4)(5 6 7 8)"),
    "c8_regular": lambda: _generated(8, "(1 2 3 4 5 6 7 8)"),
    "d4_regular": lambda: _generated(4, "(1 2 3 4)", "(1 3)").regular_action(),
    "q8": lambda: _generated(8, "(1 2 4 7)(3 6 8 5)", "(1 3 4 8)(2 5 7 6)"),
}


@pytest.mark.parametrize("name", [
    *PATHWAY_GROUPS,
    *(pytest.param(name, marks=pytest.mark.slow) for name in SLOW_PATHWAY_GROUPS),
])
def test_distribution_matches_brute_force_fixers(name):
    group = {**PATHWAY_GROUPS, **SLOW_PATHWAY_GROUPS}[name]()
    assert group.is_simple_action()
    assert brute_pathway_counts(group) == \
        pathway_size_distribution(group).per_divisor


def test_trivial_group_distribution():
    d = pathway_size_distribution(trivial_group(4))
    assert d.per_divisor == {1: 26}
    assert pathway_probabilities(d) == {1: Fraction(1, 26)}


def test_z2_on_6_distribution(z2_on_6):
    d = pathway_size_distribution(z2_on_6)
    assert d.total_trees == 2752
    assert d.per_divisor == {1: 72, 2: 1340}
    assert d.pathway_total == 1412
    assert sum(m * n for m, n in d.per_divisor.items()) == 2752


def test_burnside(klein, z2_on_6, klein_dist, ico):
    assert burnside_total(klein) == 11 == klein_dist.pathway_total
    assert burnside_total(z2_on_6) == \
        pathway_size_distribution(z2_on_6).pathway_total
    # regular S4 has two classes of order-2 subgroups and two of Klein groups
    s4_regular = close_generators([parse_permutation("(1 2 3 4)", 4),
                                   parse_permutation("(1 2)", 4)],
                                  4).regular_action()
    assert burnside_total(s4_regular) == \
        pathway_size_distribution(s4_regular).pathway_total
    assert burnside_total(ico) == pathway_size_distribution(ico).pathway_total


def test_orbit_sizes_divide_group_order(klein_dist):
    for m in klein_dist.per_divisor:
        assert klein_dist.group.order % m == 0


def test_restriction_consistency(klein, ico):
    # every subgroup of a simply-acting group acts simply with |X|/|K| orbits
    for group in (klein, ico):
        for sub in group.all_subgroups():
            assert sub.is_simple_action()
            assert len(sub.orbits()) == group.degree // sub.order


def test_rejects_non_simple_action():
    bad = close_generators([parse_permutation("(1 2)", 3)], 3)
    with pytest.raises(ValueError):
        pathway_size_distribution(bad)


@pytest.mark.parametrize("other", [
    lambda klein: cyclic_group(4),                 # same degree and order
    lambda klein: replicated_action(klein, 2),     # same abstract group, 8 points
], ids=["c4", "klein_on_8"])
def test_rejects_another_groups_lattice(klein, other):
    lat = build_lattice(other(klein))
    with pytest.raises(ValueError, match="the lattice is not the given group's"):
        pathway_size_distribution(klein, lat)


CLASS_INVERSION_GROUPS = {
    "klein": lambda: _generated(4, "(1 2)(3 4)", "(1 3)(2 4)"),
    "s4_regular": lambda: _generated(4, "(1 2 3 4)", "(1 2)").regular_action(),
    "ico": icosahedral_group,
    "ico_t2": lambda: replicated_action(icosahedral_group(), 2),
}


@pytest.mark.parametrize("name", sorted(CLASS_INVERSION_GROUPS))
def test_class_inversion_matches_node_level_tbar(name):
    # the distribution inverts per class over the census's below counts;
    # tbar inverts per node over the Moebius rows
    group = CLASS_INVERSION_GROUPS[name]()
    dist = pathway_size_distribution(group)
    lat = build_lattice(group)
    fixed = {row.representative: row.fixed_count
             for row in dist.per_subgroup_class}
    t = {sub: fixed[cls.representative]
         for cls in lat.classes for sub in cls.members}
    assert len(t) == len(lat.nodes)
    for row in dist.per_subgroup_class:
        assert row.exact_count == tbar(group, row.representative, t, lat)


def test_distribution_guards_fire_on_corrupted_counts(klein, monkeypatch):
    solve = series.class_tree_counts
    classes = klein.conjugacy_classes_of_subgroups()
    order_two = next(c for c, cls in enumerate(classes)
                     if cls.representative.order == 2)

    def corrupted(c, n, delta):
        def class_tree_counts(classes, orders):
            counts = solve(classes, orders)
            counts[c][n] += delta
            return counts
        return class_tree_counts

    # one more tree on 4 leaves: tbar(1) = 17 trees in orbits of size 4
    monkeypatch.setattr(series, "class_tree_counts", corrupted(0, 4, 1))
    with pytest.raises(ArithmeticError, match="not integral"):
        pathway_size_distribution(klein)
    # an order-2 subgroup fixing none of the 4 trees the whole group fixes
    monkeypatch.setattr(series, "class_tree_counts", corrupted(order_two, 2, -6))
    with pytest.raises(ArithmeticError, match="negative inverted count"):
        pathway_size_distribution(klein)


def test_coverage_guard_fires_on_a_corrupted_class_table(ico, monkeypatch):
    # count two trivial subgroups below each order-2 subgroup instead of one:
    # every inverted count stays integral and nonnegative, and only the
    # partition identity sees that the sizes no longer cover the trees
    classes = ico.conjugacy_classes_of_subgroups()
    c = next(c for c, cls in enumerate(classes) if cls.representative.order == 2)
    assert classes[c].below == ((0, 1),)
    corrupted = list(classes)
    corrupted[c] = classes[c]._replace(below=((0, 2),))
    monkeypatch.setattr(PermGroup, "conjugacy_classes_of_subgroups",
                        lambda group: list(corrupted))
    with pytest.raises(ArithmeticError, match="pathway sizes cover"):
        pathway_size_distribution(ico)


def test_format_distribution_deterministic(klein_dist):
    text = format_distribution(klein_dist)
    assert text == format_distribution(klein_dist)
    assert "pathways total: 11" in text
    assert "1/26" in text


def test_icosahedral_report_tbar_column():
    dist = icosahedral_distribution(1)
    column = {r.order: r.exact_count for r in dist.per_subgroup_class}
    assert column[60] == 204
    assert column[12] == 16865654580
    assert column[10] == 223503950260
    assert column[6] == 61346927354448105268
    assert column[5] == 20540071766413107840
    assert column[4] == 10041342673530270014535171213312
    assert column[3] == 10087157294451731428720995944759704


def test_icosahedral_global_identity():
    dist = icosahedral_distribution(1)
    assert sum(m * n for m, n in dist.per_divisor.items()) == dist.total_trees
    assert dist.per_divisor[2] == dist.per_divisor[3] == dist.per_divisor[4] == 0


def test_nontrivial_t_number():
    dist = icosahedral_distribution(2)
    assert dist.leaf_count == 120
    assert sum(m * n for m, n in dist.per_divisor.items()) == dist.total_trees


def test_t7_total_matches_integer_oracle():
    dist = icosahedral_distribution(7)
    expected = count_trees_by_recurrence(420)
    assert dist.total_trees == expected
    assert sum(row.class_size * row.exact_count
               for row in dist.per_subgroup_class) == expected
