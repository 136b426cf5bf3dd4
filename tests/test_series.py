import math
import random
from fractions import Fraction

import pytest

from capsid.lattice import build_lattice
from capsid.perms import (close_generators, cyclic_group, parse_permutation,
                          trivial_group)
from capsid.series import (PowerSeries, base_tree_series, class_tree_counts,
                           constant_series, fixed_tree_count,
                           fixed_tree_series, scalar_mul, scale_argument,
                           series_add, series_exp, series_mul, series_sub,
                           subgroup_summands, tree_count,
                           verify_functional_equation, zero_series)

from oracles import count_trees_by_partition_recursion


def _random_series(rng, order, zero_constant=False):
    coeffs = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
              for _ in range(order + 1)]
    if zero_constant:
        coeffs[0] = Fraction(0)
    return PowerSeries(order, tuple(coeffs))


def test_exp_of_zero_is_one():
    assert series_exp(zero_series(5)) == constant_series(1, 5)


def test_exp_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        series_exp(constant_series(1, 3))


def test_exp_matches_direct_power_sum():
    # oracle: exp(a) = sum a^k / k! truncated
    rng = random.Random(61)
    for _ in range(20):
        order = rng.randint(1, 7)
        a = _random_series(rng, order, zero_constant=True)
        expected = constant_series(1, order)
        power = constant_series(1, order)
        for k in range(1, order + 1):
            power = series_mul(power, a)
            expected = series_add(expected,
                                  scalar_mul(power, Fraction(1, math.factorial(k))))
        assert series_exp(a) == expected


def test_mul_is_cauchy_convolution():
    a = PowerSeries(3, (Fraction(1), Fraction(2), Fraction(0), Fraction(1, 3)))
    b = PowerSeries(3, (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(0)))
    product = series_mul(a, b)
    assert product.coefficients == (Fraction(0), Fraction(1), Fraction(5, 2),
                                    Fraction(1))


def test_scale_argument_law():
    rng = random.Random(67)
    a = _random_series(rng, 6)
    scaled = scale_argument(a, 3)
    for n in range(7):
        assert scaled[n] == a[n] * 3 ** n
    with pytest.raises(ValueError):
        scale_argument(a, 0)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        series_add(zero_series(3), zero_series(4))


def test_base_series_counts():
    series = base_tree_series(9)
    assert series.counts()[1:] == [1, 1, 4, 26, 236, 2752, 39208, 660032,
                                   12818912]
    assert tree_count(2) == 1


def test_base_series_satisfies_equation():
    f = base_tree_series(12)
    lhs = series_add(series_sub(constant_series(1, 12),
                                PowerSeries(12, tuple(Fraction(1) if n == 1
                                                      else Fraction(0)
                                                      for n in range(13)))),
                     scalar_mul(f, 2))
    assert series_exp(f) == lhs


def test_base_matches_partition_recursion():
    f = base_tree_series(10)
    for n in range(1, 11):
        assert f.count(n) == count_trees_by_partition_recursion(n)


def test_order_two_sequence(k1):
    series = fixed_tree_series(k1, 6)
    assert series.counts()[1:] == [1, 6, 72, 1312, 32128, 989696]
    assert verify_functional_equation(k1, series)


def test_klein_sequence(klein):
    series = fixed_tree_series(klein, 6)
    assert series.counts()[1:] == [4, 104, 4896, 341120, 31945728, 3790876672]
    assert verify_functional_equation(klein, series)


def test_klein_summand_structure(klein, k1):
    assert sorted((m, sub.order) for m, sub in subgroup_summands(klein)) == [
        (1, 4), (2, 2), (2, 2), (2, 2), (4, 1)]
    assert sorted((m, sub.order) for m, sub in subgroup_summands(k1)) == [
        (1, 2), (2, 1)]


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
    counts = class_tree_counts(lat, {c: 6 for c in range(len(lat.classes))})
    involutions, fours = [], []
    for cls, t in zip(lat.classes, counts):
        rep = cls.representative
        if rep.order == 2:
            involutions.append(t[1:])
        elif rep.order == 4 and all(p.order() <= 2 for p in rep.elements):
            fours.append(t[1:])
    assert involutions == [[1, 6, 72, 1312, 32128, 989696]] * 2
    assert fours == [[4, 104, 4896, 341120, 31945728, 3790876672]] * 2


def test_integrality_through_order_twelve():
    groups = [cyclic_group(2), cyclic_group(3), cyclic_group(4),
              close_generators([parse_permutation("(1 2 3)", 3),
                                parse_permutation("(1 2)", 3)], 3).regular_action()]
    for group in groups:
        series = fixed_tree_series(group, 8)
        counts = series.counts()
        assert all(c >= 0 for c in counts)


def test_residuals_vanish_for_sample_groups(s3_regular, z6):
    for group in (s3_regular, z6):
        series = fixed_tree_series(group, 5)
        assert verify_functional_equation(group, series)


def test_count_rejects_bad_input(klein):
    with pytest.raises(ValueError):
        fixed_tree_count(klein, 0)


def test_nonrational_count_detected():
    broken = PowerSeries(2, (Fraction(0), Fraction(1, 3), Fraction(0)))
    with pytest.raises(ArithmeticError):
        broken.count(1)
    negative = PowerSeries(1, (Fraction(0), Fraction(-1)))
    with pytest.raises(ArithmeticError):
        negative.count(1)


def test_icosahedral_order_one_count(ico):
    assert fixed_tree_count(ico, 1) == 204


def test_tree_count_sixty_digits():
    value = tree_count(60)
    assert len(str(value)) == 104
    assert str(value).startswith("19244655101324373947")
