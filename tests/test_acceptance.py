"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line and asserting at its stated tolerance (all checks are exact; the stated
runtime budgets are asserted too).

Criterion 4 checks the icosahedral tbar table of `capsid icosa-report`
against nine reference constants, kept verbatim in PUBLISHED_TBAR.  Two of
them, the order-2 and order-1 rows, carry a known erratum: they were
Moebius-inverted with mu(C2, A5) = 0 and mu(1, A5) = +60 in place of the
correct 4 and -60 (P. Hall, "The Eulerian functions of a group", 1936).
The test asserts the seven clean rows byte-exactly and the other two through
that erratum.  It also shows the erratum is needed: the published set misses
the partition identity sum(class_size * tbar) = total trees by exactly
60 * 204, and the corrected set meets it.  The identity alone is one
equation in the two rows and cannot settle them; the Moebius reconstruction
does, row by row.  The companion test below pins the table as recomputed.
"""

import time
from fractions import Fraction

import pytest

from capsid.cli import main
from capsid.fixed_trees import enumerate_block_systems, generate_fixed_trees
from capsid.pathways import pathway_probabilities, pathway_size_distribution
from capsid.perms import (close_generators, icosahedral_group,
                          parse_permutation, replicated_action, trivial_group)
from capsid.series import fixed_tree_count, fixed_tree_series
from capsid.stabilizers import fixes, locate_image, pointer_traversal_audit, \
    pointer_view, stabilizer
from capsid.trees import act, enumerate_all_trees

from oracles import (brute_orbit_partition, brute_stabilizer, burnside_total,
                     count_trees_by_recurrence, random_permutation,
                     random_tree)

# pinned by running the brute-force enumerator once (and re-verified by the
# slow-marked enumeration tests)
ENUMERATOR_COUNTS = {7: 39208, 8: 660032, 9: 12818912}

# the nine reference tbar constants, keyed by subgroup order
PUBLISHED_TBAR = {
    60: 204,
    12: 16865654580,
    10: 223503950260,
    6: 61346927354448105268,
    5: 20540071766413107840,
    4: 10041342673530270014535171213312,
    3: 10087157294451731428720995944759704,
    2: 1670856367100496379411587456529324583988755126499875584,
    1: 19244655101324373947201847309221875711203467545322366329965115755432139023628289410324670840066578537680,
}

# the identity-consistent table this package computes (differs from the
# published constants in exactly the order-2 and order-1 rows)
RECOMPUTED_TBAR = dict(PUBLISHED_TBAR)
RECOMPUTED_TBAR[2] = 1670856367100496379411587456529324583988755126499876400
RECOMPUTED_TBAR[1] = 19244655101324373947201847309221875711203467545322366329965115755432139023628289410324670840066578513200

TOTAL_TREES_60 = 19244655101324373947201847309221875711203467545347429175471623201123413757255887164786849155167691997184

# the erratum in PUBLISHED_TBAR, keyed by subgroup order: (mu(H, A5) the
# published row was inverted with, the correct mu(H, A5)).  Hall gives
# mu(1, A5) = -60; the defining recursion over [C2, A5], where C2 lies in one
# V4, one A4, two S3 and two D10, gives mu(C2, A5) = 4.  The inversion's A5
# term is mu(H, A5) * t(A5), and t(A5) = tbar(A5) = PUBLISHED_TBAR[60].
PUBLISHED_TBAR_MOBIUS_ERRATUM = {2: (0, 4), 1: (60, -60)}

# number of subgroups in each conjugacy class, keyed by subgroup order
CLASS_SIZES = {60: 1, 12: 5, 10: 6, 6: 10, 5: 6, 4: 5, 3: 10, 2: 15, 1: 1}


def _report(number, ok, elapsed, message):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status} ({elapsed:.2f}s): {message}")


def test_acceptance_01_base_sequence(capsys):
    start = time.perf_counter()
    assert main(["series", "--group", "trivial:1", "--order", "9"]) == 0
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    rows = [line.split() for line in out.strip().split("\n")[1:]]
    counts = [int(r[2]) for r in rows]
    ok = counts == [1, 1, 4, 26, 236, 2752, 39208, 660032, 12818912]
    ok = ok and all(counts[n - 1] == ENUMERATOR_COUNTS[n] for n in (7, 8, 9))
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        _report(1, ok, elapsed,
                "base counts 1..9 match the enumerator-pinned sequence")
    assert ok
    assert elapsed < 1.0


def test_acceptance_02_order_two_and_klein_sequences(klein, k1, capsys):
    start = time.perf_counter()
    z2 = fixed_tree_series(k1, 6)[1:]
    v4 = fixed_tree_series(klein, 6)[1:]
    elapsed = time.perf_counter() - start
    ok = (z2 == [1, 6, 72, 1312, 32128, 989696]
          and v4 == [4, 104, 4896, 341120, 31945728, 3790876672]
          and elapsed < 5.0)
    with capsys.disabled():
        _report(2, ok, elapsed, "order-2 and Klein fixed-tree sequences exact")
    assert z2 == [1, 6, 72, 1312, 32128, 989696]
    assert v4 == [4, 104, 4896, 341120, 31945728, 3790876672]
    assert elapsed < 5.0


def test_acceptance_03_klein_end_to_end(klein, capsys):
    start = time.perf_counter()
    dist = pathway_size_distribution(klein)
    tbar = {(r.order, i): r.exact_count
            for i, r in enumerate(dist.per_subgroup_class)}
    probs = pathway_probabilities(dist)
    orbit_sizes = {}
    for orbit in brute_orbit_partition(klein, range(1, 5)):
        orbit_sizes[len(orbit)] = orbit_sizes.get(len(orbit), 0) + 1
    elapsed = time.perf_counter() - start
    by_order = {}
    for r in dist.per_subgroup_class:
        by_order.setdefault(r.order, []).append(r.exact_count)
    ok = (by_order == {1: [16], 2: [2, 2, 2], 4: [4]}
          and dist.per_divisor == {1: 4, 2: 3, 4: 4}
          and probs == {1: Fraction(1, 26), 2: Fraction(1, 13),
                        4: Fraction(2, 13)}
          and dist.pathway_total == 11
          and orbit_sizes == {1: 4, 2: 3, 4: 4}
          and elapsed < 1.0)
    with capsys.disabled():
        _report(3, ok, elapsed,
                "Klein tbar/N/probability table equals the brute-force orbits")
    assert ok


def _icosa_report_tbar_strings(capsys):
    assert main(["icosa-report"]) == 0
    out = capsys.readouterr().out
    values = {}
    in_table = False
    for line in out.split("\n"):
        if line.startswith("subgroup classes"):
            in_table = True
            continue
        if in_table:
            fields = line.split()
            if not fields or fields[0] == "order":
                continue
            if len(fields) == 5:
                values[int(fields[0])] = fields[4]
            else:
                break
    return values, out


def test_acceptance_04_reference_values(capsys):
    start = time.perf_counter()
    printed, _ = _icosa_report_tbar_strings(capsys)
    elapsed = time.perf_counter() - start
    corrected = dict(PUBLISHED_TBAR)
    for order, (used, correct) in PUBLISHED_TBAR_MOBIUS_ERRATUM.items():
        corrected[order] += (correct - used) * PUBLISHED_TBAR[60]
    clean = [o for o in PUBLISHED_TBAR if o not in PUBLISHED_TBAR_MOBIUS_ERRATUM]
    total = count_trees_by_recurrence(60)
    published_miss = sum(CLASS_SIZES[o] * v
                         for o, v in PUBLISHED_TBAR.items()) - total
    corrected_miss = sum(CLASS_SIZES[o] * v for o, v in corrected.items()) - total
    clean_matches = sum(printed.get(o) == str(PUBLISHED_TBAR[o]) for o in clean)
    erratum_matches = sum(printed.get(o) == str(corrected[o])
                          for o in PUBLISHED_TBAR_MOBIUS_ERRATUM)
    ok = (printed.keys() == PUBLISHED_TBAR.keys()
          and clean_matches == len(clean)
          and erratum_matches == len(PUBLISHED_TBAR_MOBIUS_ERRATUM)
          and total == TOTAL_TREES_60
          and published_miss == 60 * 204 and corrected_miss == 0
          and elapsed < 300.0)
    with capsys.disabled():
        _report(4, ok, elapsed,
                f"{clean_matches}/{len(clean)} clean reference tbar values "
                f"reproduced byte-exactly, {erratum_matches}/"
                f"{len(PUBLISHED_TBAR_MOBIUS_ERRATUM)} order-2/order-1 values "
                "equal the reference constants with Hall's Moebius values "
                "mu(C2,A5) = 4, mu(1,A5) = -60 in the A5 term; only the "
                "corrected set meets sum(class_size*tbar) = total trees")
    assert elapsed < 300.0
    assert total == TOTAL_TREES_60, (
        "the integer-recurrence tree count on 60 leaves differs from the "
        "pinned total")
    assert published_miss == 60 * 204 and corrected_miss == 0, (
        "the published rows must miss the partition identity by exactly "
        f"60*204 and the erratum-corrected rows meet it; misses are "
        f"{published_miss} and {corrected_miss}")
    assert printed.keys() == PUBLISHED_TBAR.keys()
    assert {o: printed[o] for o in clean} == \
        {o: str(PUBLISHED_TBAR[o]) for o in clean}, (
        "a reference row outside the erratum is not reproduced byte-exactly")
    for order, (used, correct) in PUBLISHED_TBAR_MOBIUS_ERRATUM.items():
        assert printed[order] == str(corrected[order]), (
            f"the order-{order} row must equal the reference constant "
            f"rebuilt with mu(H, A5) = {correct} in place of {used}")


def test_acceptance_04_recomputed_table(capsys):
    start = time.perf_counter()
    printed, out = _icosa_report_tbar_strings(capsys)
    dist = pathway_size_distribution(replicated_action(icosahedral_group(), 1))
    elapsed = time.perf_counter() - start
    identity_total = sum(CLASS_SIZES[o] * RECOMPUTED_TBAR[o]
                         for o in RECOMPUTED_TBAR)
    ok = (printed == {order: str(v) for order, v in RECOMPUTED_TBAR.items()}
          and identity_total == TOTAL_TREES_60 == dist.total_trees
          and all((CLASS_SIZES[o] * RECOMPUTED_TBAR[o]) % (60 // o) == 0
                  for o in RECOMPUTED_TBAR)
          and elapsed < 300.0)
    with capsys.disabled():
        _report("4r", ok, elapsed,
                "recomputed icosahedral tbar table satisfies every exact "
                "identity (7/9 rows equal the reference constants)")
    assert ok


def test_acceptance_05_subgroup_census(ico, capsys):
    start = time.perf_counter()
    subs = ico.all_subgroups()
    histogram = {}
    for sub in subs:
        histogram[sub.order] = histogram.get(sub.order, 0) + 1
    classes = ico.conjugacy_classes_of_subgroups()
    elapsed = time.perf_counter() - start
    ok = (len(subs) == 59
          and histogram == {1: 1, 2: 15, 3: 10, 4: 5, 5: 6, 6: 10, 10: 6,
                            12: 5, 60: 1}
          and len(classes) == 9
          and elapsed < 30.0)
    with capsys.disabled():
        _report(5, ok, elapsed, "59 subgroups with the exact order histogram "
                                "and 9 conjugacy classes")
    assert ok


def test_acceptance_06_stabilizer_oracle(klein, k1, z2_on_6, z6, s3_regular,
                                         capsys):
    start = time.perf_counter()
    groups = [trivial_group(n) for n in range(1, 7)]
    groups += [k1, klein, z2_on_6, z6, s3_regular]
    checked = 0
    for group in groups:
        for tau in enumerate_all_trees(range(1, group.degree + 1)):
            brute = set(brute_stabilizer(group, tau))
            for g in group.elements:
                assert fixes(g, tau) == (g in brute)
            assert set(stabilizer(group, tau).group.elements) == brute
            checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    with capsys.disabled():
        _report(6, ok, elapsed,
                f"stabilizer and fixes match brute force on {checked} "
                "(tree, group) pairs, exhaustively")
    assert ok


def test_acceptance_07_generator_vs_series(klein, k1, z2_on_6, klein_on_8,
                                           capsys):
    start = time.perf_counter()
    cases = [(k1, 2, 6), (z2_on_6, 3, 72), (klein, 1, 4), (klein_on_8, 2, 104)]
    for group, n, expected in cases:
        assert sum(1 for _ in generate_fixed_trees(group)) == expected
        assert fixed_tree_count(group, n) == expected
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    with capsys.disabled():
        _report(7, ok, elapsed,
                "direct fixed-tree generation equals the series counts "
                "(6, 72, 4, 104)")
    assert ok


def test_acceptance_08_block_systems(k1, capsys):
    start = time.perf_counter()
    systems = enumerate_block_systems(k1)
    blocks = {b for s in systems for b in s.blocks}
    elapsed = time.perf_counter() - start
    ok = len(systems) == 7 and len(blocks) == 11 and elapsed < 1.0
    with capsys.disabled():
        _report(8, ok, elapsed, "7 compatible block systems, 11 distinct blocks")
    assert ok


def test_acceptance_09_complexity_audit(capsys):
    import random
    rng = random.Random(2024)
    start = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(1, 64)
        tau = random_tree(rng, range(1, n + 1))
        g = random_permutation(rng, n)
        view = pointer_view(tau, g)
        locate_image(view, view.root)
        audit = pointer_traversal_audit(view)
        assert audit.each_pointer_at_most_once
        assert audit.total_traversals <= audit.linear_bound
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    with capsys.disabled():
        _report(9, ok, elapsed,
                "1000 random image-location runs never traverse a pointer twice")
    assert ok


def test_acceptance_10_global_consistency(klein, ico, capsys):
    start = time.perf_counter()
    klein_dist = pathway_size_distribution(klein)
    ico_dist = pathway_size_distribution(ico)
    ok = True
    ok &= sum(m * n for m, n in klein_dist.per_divisor.items()) == 26 == \
        count_trees_by_recurrence(4)
    ok &= sum(m * n for m, n in ico_dist.per_divisor.items()) == \
        count_trees_by_recurrence(60) == ico_dist.total_trees
    ok &= burnside_total(klein) == klein_dist.pathway_total == 11
    ok &= burnside_total(ico) == ico_dist.pathway_total
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(10, bool(ok), elapsed,
                "partition identity and Burnside totals agree for the Klein "
                "and icosahedral cases")
    assert ok
