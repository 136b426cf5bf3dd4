import pytest

from capsid.lattice import build_lattice
from capsid.perms import (close_generators, cyclic_group, parse_permutation,
                          trivial_group)
from capsid.series import (base_tree_series, class_tree_counts,
                           fixed_tree_count, fixed_tree_series)

from oracles import (composition_identity_holds,
                     count_trees_by_partition_recursion, element_order,
                     functional_equation_holds, tree_counts_by_recurrence)


def test_base_series_counts():
    assert base_tree_series(9) == [0, 1, 1, 4, 26, 236, 2752, 39208, 660032,
                                   12818912]
    assert base_tree_series(1) == [0, 1]
    assert fixed_tree_count(trivial_group(1), 2) == 1


def test_base_series_satisfies_equation():
    assert functional_equation_holds(trivial_group(1),
                                     base_tree_series(12))


def test_base_matches_partition_recursion():
    counts = base_tree_series(10)
    for n in range(1, 11):
        assert counts[n] == count_trees_by_partition_recursion(n)


def test_order_two_sequence(k1):
    counts = fixed_tree_series(k1, 6)
    assert counts == [0, 1, 6, 72, 1312, 32128, 989696]
    assert functional_equation_holds(k1, counts)


def test_klein_sequence(klein):
    counts = fixed_tree_series(klein, 6)
    assert counts == [0, 4, 104, 4896, 341120, 31945728, 3790876672]
    assert functional_equation_holds(klein, counts)


def test_residual_oracle_rejects_a_count_off_by_one(klein):
    counts = fixed_tree_series(klein, 6)
    for n in range(1, 7):
        wrong = list(counts)
        wrong[n] += 1
        assert not functional_equation_holds(klein, wrong)


def test_klein_first_coefficient_identity(klein):
    # at order one the equation reads 2 t_1 = (1 + 3) + t_1, so t_1 = 4
    assert fixed_tree_count(klein, 1) == 4


def test_fixed_tree_count_examples(klein, k1, z2_on_6):
    assert fixed_tree_count(klein, 2) == 104
    assert fixed_tree_count(k1, 1) == 1
    assert fixed_tree_count(z2_on_6, 3) == 72


def test_trivial_group_routed_to_base():
    assert fixed_tree_count(trivial_group(1), 6) == 2752
    for n in (1, 4, 9):
        assert fixed_tree_series(trivial_group(1), n) == base_tree_series(n)


def test_counts_shared_between_isomorphic_groups(k1, z2_on_6, z2_on_8):
    a = fixed_tree_series(k1, 5)
    b = fixed_tree_series(z2_on_6, 5)
    c = fixed_tree_series(z2_on_8, 5)
    assert a == b == c


def test_s4_classes_of_isomorphic_subgroups_share_counts():
    s4 = close_generators([parse_permutation("(1 2 3 4)", 4),
                           parse_permutation("(1 2)", 4)], 4).regular_action()
    lat = build_lattice(s4)
    counts = class_tree_counts(lat.classes, {c: 6 for c in range(len(lat.classes))})
    involutions, fours = [], []
    for cls, t in zip(lat.classes, counts):
        rep = cls.representative
        if rep.order == 2:
            involutions.append(t[1:])
        elif rep.order == 4 and all(element_order(p) <= 2 for p in rep.elements):
            fours.append(t[1:])
    assert involutions == [[1, 6, 72, 1312, 32128, 989696]] * 2
    assert fours == [[4, 104, 4896, 341120, 31945728, 3790876672]] * 2


def test_every_class_meets_the_composition_identity(klein, ico):
    s4 = close_generators([parse_permutation("(1 2 3 4)", 4),
                           parse_permutation("(1 2)", 4)], 4).regular_action()
    for group in (klein, s4, ico):
        lat = build_lattice(group)
        counts = class_tree_counts(lat.classes, {c: 8 for c in range(len(lat.classes))})
        assert composition_identity_holds(lat, counts)


def test_composition_oracle_rejects_a_count_off_by_one(klein):
    lat = build_lattice(klein)
    counts = class_tree_counts(lat.classes, {c: 6 for c in range(len(lat.classes))})
    for c in range(1, len(lat.classes)):
        for n in range(1, 7):
            wrong = [list(t) for t in counts]
            wrong[c][n] += 1
            assert not composition_identity_holds(lat, wrong)


def test_integrality_through_order_twelve():
    groups = [cyclic_group(2), cyclic_group(3), cyclic_group(4),
              close_generators([parse_permutation("(1 2 3)", 3),
                                parse_permutation("(1 2)", 3)], 3).regular_action()]
    for group in groups:
        counts = fixed_tree_series(group, 8)
        assert len(counts) == 9 and counts[0] == 0
        assert all(c >= 0 for c in counts)


def test_residuals_vanish_for_sample_groups(s3_regular, z6):
    for group in (s3_regular, z6):
        assert functional_equation_holds(group, fixed_tree_series(group, 5))


def test_count_rejects_bad_input(klein):
    # fixed_tree_count names its own argument, not the solver's order
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        fixed_tree_count(klein, 0)
    with pytest.raises(ValueError, match="^order must be >= 1$"):
        base_tree_series(0)


def test_icosahedral_order_one_count(ico):
    assert fixed_tree_count(ico, 1) == 204


def test_tree_count_sixty_digits():
    value = fixed_tree_count(trivial_group(1), 60)
    assert len(str(value)) == 104
    assert str(value).startswith("19244655101324373947")


def test_every_trivial_count_matches_integer_oracle():
    # every diagonal sum to order 420, against the forest recurrence
    counts = fixed_tree_series(trivial_group(1), 420)
    expected = tree_counts_by_recurrence(420)
    assert len(counts) == len(expected) == 421
    for n, (got, want) in enumerate(zip(counts, expected)):
        assert got == want, n
