import random

import pytest

from capsid.lattice import build_lattice
from capsid.pathways import tbar
from capsid.perms import trivial_group


@pytest.fixture(scope="module")
def klein_lattice(klein):
    return build_lattice(klein)


@pytest.fixture(scope="module")
def ico_lattice(ico):
    return build_lattice(ico)


def mu(lat, below, above):
    """mu(below, above): the entry at ``above``'s index in ``below``'s row
    of ``lat.mobius``, which holds only the interval above ``below``."""
    return lat.mobius[lat.index_of(below)][lat.index_of(above)]


def above(lat, sub):
    """The nodes K >= sub, by testing containment directly."""
    return [k for k in lat.nodes if sub.is_subgroup_of(k)]


def leq(lat, i, j):
    """nodes[i] <= nodes[j], tested directly, not read off the matrix."""
    return lat.nodes[i].is_subgroup_of(lat.nodes[j])


def test_klein_mobius_values(klein_lattice):
    lat = klein_lattice
    trivial, top = lat.nodes[0], lat.nodes[-1]
    assert mu(lat, trivial, trivial) == 1
    for sub in lat.nodes[1:4]:
        assert sub.order == 2
        assert mu(lat, trivial, sub) == -1
        assert mu(lat, sub, top) == -1
        assert mu(lat, sub, sub) == 1
    assert mu(lat, trivial, top) == 2
    assert mu(lat, top, top) == 1


def test_interval_above(klein_lattice, ico_lattice):
    k1 = klein_lattice.nodes[1]
    assert [s.order for s in above(klein_lattice, k1)] == [2, 4]
    top = klein_lattice.nodes[-1]
    assert above(klein_lattice, top) == [top]
    h5 = next(n for n in ico_lattice.nodes if n.order == 5)
    assert [s.order for s in above(ico_lattice, h5)] == [5, 10, 60]


def test_interval_above_rejects_foreign_subgroup(klein, klein_lattice, s3):
    t = {node: 1 for node in klein_lattice.nodes}
    with pytest.raises(ValueError, match="subgroup is not a node of this lattice"):
        klein_lattice.index_of(s3)
    with pytest.raises(ValueError, match="subgroup is not a node of this lattice"):
        tbar(klein, s3, t, klein_lattice)


@pytest.mark.parametrize("group", ["klein", "ico", "s3_regular", "s3"])
def test_mobius_rows_are_the_intervals_above(group, request):
    # tbar sums a whole mobius row and the CSV reads cells off rows: the
    # keys of row i must be exactly the j with nodes[i] <= nodes[j],
    # none below the diagonal, where the lattice tests no pair, with mu 1 on
    # the diagonal; natural s3 is not a simple action, and the lattice takes
    # it all the same
    lat = build_lattice(request.getfixturevalue(group))
    n = len(lat.nodes)
    for i in range(n):
        assert lat.mobius[i][i] == 1
        assert set(lat.mobius[i]) == {j for j in range(n) if leq(lat, i, j)}


def test_defining_recursion_rows(ico_lattice):
    # sum of mu over every interval [H, L] vanishes for H < L
    lat = ico_lattice
    n = len(lat.nodes)
    for i in range(n):
        for j in range(n):
            if i != j and leq(lat, i, j):
                total = sum(lat.mobius[i][k] for k in range(n)
                            if leq(lat, i, k) and leq(lat, k, j))
                assert total == 0


def test_dual_recursion_columns(klein_lattice, ico_lattice):
    for lat in (klein_lattice, ico_lattice):
        n = len(lat.nodes)
        for i in range(n):
            for j in range(n):
                if i != j and leq(lat, i, j):
                    total = sum(lat.mobius[k][j] for k in range(n)
                                if leq(lat, i, k) and leq(lat, k, j))
                    assert total == 0


def test_mobius_round_trip(ico_lattice):
    lat = ico_lattice
    rng = random.Random(11)
    t = {node: rng.randrange(-100, 100) for node in lat.nodes}
    tbar = {node: sum(mu(lat, node, k) * t[k] for k in above(lat, node))
            for node in lat.nodes}
    for node in lat.nodes:
        assert sum(tbar[k] for k in above(lat, node)) == t[node]


def test_conjugates_share_mobius_to_top(ico_lattice):
    lat = ico_lattice
    top = lat.nodes[-1]
    for cls in lat.classes:
        values = {mu(lat, m, top) for m in cls.members}
        assert len(values) == 1


def test_icosahedral_mobius_top_column(ico_lattice):
    # forced by small intervals: maximal classes get -1, and the recursion
    # gives the rest
    lat = ico_lattice
    top = lat.nodes[-1]
    by_order = {}
    for cls in lat.classes:
        by_order[cls.representative.order] = mu(lat, cls.representative, top)
    assert by_order == {1: -60, 2: 4, 3: 2, 4: 0, 5: 0, 6: -1, 10: -1,
                        12: -1, 60: 1}


def test_hasse_edge_counts(ico_lattice):
    # containment numbers between subgroup classes of A5, tested directly
    lat = ico_lattice
    n = len(lat.nodes)

    def below_per_above(low, high):
        return {sum(leq(lat, i, j) for i in range(n) if lat.nodes[i].order == low)
                for j in range(n) if lat.nodes[j].order == high}

    assert below_per_above(3, 12) == {4}
    assert below_per_above(2, 6) == {3}
    assert below_per_above(2, 4) == {3}
    assert below_per_above(5, 10) == {1}
    assert below_per_above(2, 10) == {5}
    assert lat.nodes[0].order == 1
    assert sum(leq(lat, 0, j) for j in range(n) if lat.nodes[j].order == 2) == 15


def test_trivial_lattice():
    lat = build_lattice(trivial_group(3))
    assert len(lat.nodes) == 1
    assert mu(lat, lat.nodes[0], lat.nodes[0]) == 1


def test_csv_export(klein_lattice):
    csv = klein_lattice.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "subgroup,H0(o1),H1(o2),H2(o2),H3(o2),H4(o4)"
    assert lines[1] == "H0(o1),1,-1,-1,-1,2"
    assert lines[2] == "H1(o2),,1,,,-1"
    assert lines[-1] == "H4(o4),,,,,1"
    assert csv == klein_lattice.to_csv()
