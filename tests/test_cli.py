import hashlib
import importlib
import os
import pkgutil
import subprocess
import sys
import time
import types
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import capsid
from capsid.cli import load_group, main
from capsid.perms import close_generators, parse_permutation, replicated_action

from oracles import tree_counts_by_recurrence


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pathways_klein_golden(capsys):
    code, out, err = run_cli(capsys, "pathways", "--group", "klein4")
    assert code == 0 and err == ""
    assert out == ("m  pathways  probability\n"
                   "1         4         1/26\n"
                   "2         3         1/13\n"
                   "4         4         2/13\n")


def test_pathways_csv(capsys):
    code, out, _ = run_cli(capsys, "pathways", "--group", "klein4",
                           "--format", "csv")
    assert code == 0
    assert out == ("m,pathways,probability\n"
                   "1,4,1/26\n"
                   "2,3,1/13\n"
                   "4,4,2/13\n")


def test_fixes_golden(capsys):
    code, out, _ = run_cli(capsys, "fixes", "--group", "klein4",
                           "--perm", "(1 2)(3 4)", "--tree", "((1,2),3,4)")
    assert (code, out) == (0, "true\n")
    code, out, _ = run_cli(capsys, "fixes", "--group", "klein4",
                           "--perm", "(1 4)(2 3)", "--tree", "((1,2),3,4)")
    assert (code, out) == (0, "false\n")


def test_enumerate_trees_count(capsys):
    code, out, _ = run_cli(capsys, "enumerate-trees", "--n", "4",
                           "--count-only")
    assert (code, out) == (0, "26\n")


def test_enumerate_trees_stream(capsys):
    code, out, _ = run_cli(capsys, "enumerate-trees", "--labels", "1,2,3")
    lines = out.strip().split("\n")
    assert code == 0 and len(lines) == 4
    assert sorted(lines) == ["((1,2),3)", "((1,3),2)", "(1,(2,3))", "(1,2,3)"]


def test_enumerate_trees_argument_validation(capsys):
    code, _, err = run_cli(capsys, "enumerate-trees", "--n", "3",
                           "--labels", "1,2")
    assert code == 1 and "exactly one" in err
    code, _, err = run_cli(capsys, "enumerate-trees", "--labels", "1,a")
    assert code == 1 and "malformed label list" in err
    # labels are decimal digits only, as everywhere else: no sign, no
    # underscore, no surrounding space
    for labels in ("+1,1_0", " 1,2", "1, 2,3 "):
        code, out, err = run_cli(capsys, "enumerate-trees", "--labels", labels)
        assert (code, out) == (1, "")
        assert err == f"error: malformed label list {labels!r}\n"
    code, out, err = run_cli(capsys, "enumerate-trees", "--labels", "1,1,2")
    assert (code, out) == (1, "")
    assert err == "error: repeated label in label list '1,1,2'\n"
    # the enumerator refuses a label below 1 before any leaf is built
    code, out, err = run_cli(capsys, "enumerate-trees", "--labels", "0,1")
    assert (code, out) == (1, "")
    assert err == "error: leaf labels must be positive integers\n"


def test_series_golden(capsys):
    code, out, _ = run_cli(capsys, "series", "--group", "trivial:1",
                           "--order", "6")
    assert code == 0
    assert out == ("n  leaves  count\n"
                   "1       1      1\n"
                   "2       2      1\n"
                   "3       3      4\n"
                   "4       4     26\n"
                   "5       5    236\n"
                   "6       6   2752\n")
    code, out, _ = run_cli(capsys, "series", "--group", "trivial:1",
                           "--order", "4", "--egf")
    assert code == 0
    assert out == ("n  leaves  count    egf\n"
                   "1       1      1      1\n"
                   "2       2      1    1/2\n"
                   "3       3      4    2/3\n"
                   "4       4     26  13/12\n")


def test_series_klein_csv_with_egf(capsys):
    code, out, _ = run_cli(capsys, "series", "--group", "klein4",
                           "--order", "3", "--format", "csv", "--egf")
    assert code == 0
    assert out == ("n,leaves,count,egf\n"
                   "1,4,4,4\n"
                   "2,8,104,52\n"
                   "3,12,4896,816\n")


def test_series_trivial_csv_egf_matches_the_integer_recurrence(capsys):
    code, out, err = run_cli(capsys, "series", "--group", "trivial:1",
                             "--order", "12", "--format", "csv", "--egf")
    assert (code, err) == (0, "")
    counts = tree_counts_by_recurrence(12)
    assert out == "n,leaves,count,egf\n" + "".join(
        f"{n},{n},{counts[n]},{Fraction(counts[n], factorial(n))}\n"
        for n in range(1, 13))


def test_stabilizer_golden(capsys):
    code, out, _ = run_cli(capsys, "stabilizer", "--group", "klein4",
                           "--tree", "((1,2),3,4)")
    assert code == 0
    assert out == ("generators: () (1 2)(3 4)\n"
                   "order: 2\n"
                   "orbit-size: 2\n")


def test_fixed_trees_golden(capsys):
    code, out, _ = run_cli(capsys, "fixed-trees", "--group", "klein4")
    assert code == 0
    assert out == "((1,2),(3,4))\n((1,3),(2,4))\n((1,4),(2,3))\n(1,2,3,4)\n"
    code, out, _ = run_cli(capsys, "fixed-trees", "--group", "klein4",
                           "--count-only")
    assert (code, out) == (0, "4\n")


def test_fixed_trees_of_a_large_trivial_group_is_one_line_error(capsys):
    # the trivial group fixes every tree, so its listing is the enumerator's
    # and stops at the enumerator's bound
    for extra in ((), ("--count-only",)):
        code, out, err = run_cli(capsys, "fixed-trees", "--group",
                                 "trivial:12", *extra)
        assert (code, out) == (1, "")
        assert err == ("error: label set of size 12 exceeds the enumeration "
                       "bound 9\n")
    code, out, _ = run_cli(capsys, "fixed-trees", "--group", "trivial:6")
    assert code == 0 and len(out.splitlines()) == 2752


def test_fixed_trees_refuses_a_listing_past_the_listing_bound(capsys):
    # trivial:9 fixes all 12,818,912 trees on 9 leaves, which is inside the
    # enumeration bound but past the listing bound
    for extra in ((), ("--count-only",)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "fixed-trees", "--group", "trivial:9",
                                 *extra)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == ("error: fixed-tree count 12818912 exceeds the listing "
                       "bound 1000000\n")


def test_blocks_refuses_more_orbits_than_the_enumeration_bound(capsys):
    # one block system per set partition of the orbits: Bell(12) - 1 of
    # them here, so the refusal must come before any enumeration
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "blocks", "--group", "trivial:12")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == "error: orbit count 12 exceeds the enumeration bound 9\n"
    code, out, _ = run_cli(capsys, "blocks", "--group", "trivial:4")
    assert code == 0 and len(out.splitlines()) == 15


def test_fixed_trees_refuses_more_orbits_than_the_enumeration_bound(
        capsys, tmp_path):
    # an involution on 12 orbits: the recipes would walk the Bell(12) set
    # partitions of the orbits, so the refusal must come before any of them
    path = tmp_path / "z2_on_24.group"
    pairs = "".join(f"({2 * i - 1} {2 * i})" for i in range(1, 13))
    path.write_text(f"degree 24\n{pairs}\n")
    for extra in ((), ("--count-only",)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "fixed-trees", "--group", str(path),
                                 *extra)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == "error: orbit count 12 exceeds the enumeration bound 9\n"


def test_blocks_golden(capsys, tmp_path):
    path = tmp_path / "z2.group"
    path.write_text("degree 4\n(1 2)(3 4)\n")
    code, out, _ = run_cli(capsys, "blocks", "--group", str(path))
    assert code == 0
    assert out == ("{1,2,3,4}\n"
                   "{1,2} {3,4}\n"
                   "{1,3} {2,4}\n"
                   "{1,4} {2,3}\n"
                   "{1} {2} {3,4}\n"
                   "{1,2} {3} {4}\n"
                   "{1} {2} {3} {4}\n")


def test_mobius_golden(capsys):
    code, out, _ = run_cli(capsys, "mobius", "--group", "klein4")
    assert code == 0
    assert out == ("subgroup,H0(o1),H1(o2),H2(o2),H3(o2),H4(o4)\n"
                   "H0(o1),1,-1,-1,-1,2\n"
                   "H1(o2),,1,,,-1\n"
                   "H2(o2),,,1,,-1\n"
                   "H3(o2),,,,1,-1\n"
                   "H4(o4),,,,,1\n")


def test_unknown_group_error(capsys):
    code, out, err = run_cli(capsys, "pathways", "--group", "nonsense")
    assert code == 1 and out == ""
    assert err.startswith("error: unknown group")


def test_bad_permutation_error(capsys):
    code, _, err = run_cli(capsys, "fixes", "--group", "klein4",
                           "--perm", "(1 9)", "--tree", "(1,2)")
    assert code == 1 and "out of range" in err


def test_bad_tree_error(capsys):
    code, _, err = run_cli(capsys, "stabilizer", "--group", "klein4",
                           "--tree", "((1),2)")
    assert code == 1 and "single child" in err


def test_repeated_label_error_line(capsys):
    # the repeat sits in distant subtrees; the parser's one label set finds it
    code, out, err = run_cli(capsys, "fixes", "--group", "klein4", "--perm",
                             "()", "--tree", "((1,2),(3,(4,1)))")
    assert (code, out) == (1, "")
    assert err == "error: invalid tree: children leaf sets overlap\n"


CENSUS_COMMANDS = [
    ("fixed-trees", "--group", "icosahedral", "--count-only"),
    ("series", "--group", "icosahedral", "--order", "2"),
    ("pathways", "--group", "icosahedral"),
    ("icosa-report",),
    ("blocks", "--group", "icosahedral"),
    ("mobius", "--group", "icosahedral"),
]


def test_group_order_bound_env(capsys, monkeypatch, ico):
    # the builtin icosahedral group shares this cache: a warm cache must not
    # let any census command past the bound
    ico.conjugacy_classes_of_subgroups()
    monkeypatch.setenv("CAPSID_MAX_GROUP_ORDER", "30")
    for argv in CENSUS_COMMANDS:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == "error: group order 60 exceeds subgroup-enumeration " \
                      "bound 30\n", argv
    code, _, err = run_cli(capsys, "icosa-report", "--T", "0")
    assert (code, err) == (1, "error: T must be >= 1\n")
    code, out, _ = run_cli(capsys, "fixes", "--group", "icosahedral",
                           "--perm", "(1 2)", "--tree", "(1,2)")
    assert (code, out) == (0, "true\n")
    star = "(" + ",".join(str(x) for x in range(1, 61)) + ")"
    code, out, _ = run_cli(capsys, "stabilizer", "--group", "icosahedral",
                           "--tree", star)
    assert code == 0 and out.endswith("order: 60\norbit-size: 1\n")
    monkeypatch.setenv("CAPSID_MAX_GROUP_ORDER", "potato")
    code, _, err = run_cli(capsys, "mobius", "--group", "klein4")
    assert code == 1 and "must be an integer" in err


def test_series_of_the_trivial_group_ignores_the_bound(capsys, monkeypatch):
    monkeypatch.setenv("CAPSID_MAX_GROUP_ORDER", "0")
    code, out, err = run_cli(capsys, "series", "--group", "trivial:1",
                             "--order", "4")
    assert (code, err) == (0, "")
    assert out == ("n  leaves  count\n"
                   "1       1      1\n"
                   "2       2      1\n"
                   "3       3      4\n"
                   "4       4     26\n")
    code, out, err = run_cli(capsys, "series", "--group", "cyclic:2",
                             "--order", "2")
    assert (code, out) == (1, "")
    assert err == "error: group order 2 exceeds subgroup-enumeration bound 0\n"


def test_series_refuses_a_non_simple_action(capsys, tmp_path):
    path = tmp_path / "fixes_3_and_4.group"
    path.write_text("degree 4\n(1 2)\n")
    code, out, err = run_cli(capsys, "series", "--group", str(path),
                             "--order", "3")
    assert (code, out) == (1, "")
    assert err == "error: the group action is not simple\n"


@pytest.mark.parametrize("text", ["degree 0\n", "degree 0\n(1 2)\n"])
def test_a_degree_0_group_file_is_refused_at_its_header(capsys, tmp_path, text):
    path = tmp_path / "degree_0.group"
    path.write_text(text)
    code, out, err = run_cli(capsys, "series", "--group", str(path),
                             "--order", "2")
    assert (code, out) == (1, "")
    assert err == "error: group text line 'degree 0': degree must be >= 1\n"


def test_deep_tree_succeeds(capsys):
    caterpillar = "1500"
    for leaf in range(1499, 0, -1):
        caterpillar = f"({leaf},{caterpillar})"
    code, out, err = run_cli(capsys, "stabilizer", "--group", "trivial:1500",
                             "--tree", caterpillar)
    assert (code, err) == (0, "")
    assert "\norder: 1\n" in out


def test_ten_thousand_leaf_caterpillar_in_a_fresh_process():
    # about 69 KB of argv, under the kernel's 128 KiB limit on one argument
    n = 10_000
    caterpillar = "".join(f"({leaf}," for leaf in range(1, n)) + str(n) + \
        ")" * (n - 1)
    src = str(Path(capsid.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "capsid.cli", "stabilizer", "--group",
         f"trivial:{n}", "--tree", caterpillar],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.endswith(b"\norder: 1\norbit-size: 1\n")


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_output_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "pathways", "--group", "klein4")
    _, second, _ = run_cli(capsys, "pathways", "--group", "klein4")
    assert first == second
    _, first, _ = run_cli(capsys, "mobius", "--group", "icosahedral")
    _, second, _ = run_cli(capsys, "mobius", "--group", "icosahedral")
    assert first == second


def _group_file(tmp_path, group) -> str:
    path = tmp_path / "group.txt"
    path.write_text(f"degree {group.degree}\n" + "".join(
        g.cycle_string() + "\n" for g in group.generators))
    return str(path)


# sha256 of the stdout of each listing the tree-building commands print;
# taken from the code these pins were written against, so any change to a
# listing's trees, text or order fails here
LISTING_DIGESTS = [
    (("fixed-trees", "--group", "klein4"), 3,
     "94d0644a5c49bdc59ab22c9ec3015f6a3e9acff90a5e45b25b7037b6f1b74015"),
    (("fixed-trees", "--group", "cyclic:6"), 3,
     "e3f189cb771d4128e57c02f8206e5aa0f4d44a153f4631b1a5593517f8b3c165"),
    (("fixed-trees", "--group", "icosahedral"), 1,
     "1db057abfa083fbc570d58031ef36946a97449d29dd8182cce898927dbeddf89"),
    (("enumerate-trees", "--n", "7"), 1,
     "51aa907809b6f22344ee1848b059a25ed8989fbc83beddfea9755da8e8b5b111"),
]


@pytest.mark.parametrize("argv, copies, digest", LISTING_DIGESTS)
def test_tree_listings_are_pinned(capsys, tmp_path, argv, copies, digest):
    argv = list(argv)
    if copies > 1:
        # the group acting on disjoint copies of its points, as a group file
        argv[-1] = _group_file(tmp_path, replicated_action(
            load_group(argv[-1]), copies))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of each census command: the subgroup census feeds the
# lattice, the Moebius values, the series, the block systems and N(m), so a
# change to any of them, or to their order, fails here
CENSUS_DIGESTS = [
    (("icosa-report", "--T", "7"),
     "876d101022ee555dc6ab7ebc8c011496d5d23c9148d40ec58a816c250ebbaa68"),
    (("pathways", "--group", "S5_REGULAR"),
     "c519ee3bfd63cf75ea8dab4943b6869659fb208787d99094a23b67a195a10a1b"),
    (("mobius", "--group", "icosahedral"),
     "f3a375fa7b86fe1c2ea51c1a0749928b064190d1247e51d04ae019396c28e946"),
    (("blocks", "--group", "icosahedral"),
     "f0f59ef71b7568acf2f24b5853fe7a85de13be1943e25fcdfae4f15207f63d08"),
    (("blocks", "--group", "icosahedral", "--format", "csv"),
     "fd44635c1faafc95d6096cb7bf9817ce21110753f014a8bcaab248334b1985cf"),
    (("series", "--group", "icosahedral", "--order", "6", "--egf"),
     "e3e60e819486a1606a9ae4628abb161a7e04476f18af5e184ff4e919d96c9809"),
]


@pytest.mark.parametrize("argv, digest", CENSUS_DIGESTS)
def test_census_outputs_are_pinned(capsys, tmp_path, argv, digest):
    argv = list(argv)
    if "S5_REGULAR" in argv:
        # the regular action of S5, as a group file
        s5 = close_generators([parse_permutation("(1 2 3 4 5)", 5),
                               parse_permutation("(1 2)", 5)], 5)
        argv[argv.index("S5_REGULAR")] = _group_file(tmp_path,
                                                     s5.regular_action())
    code, out, err = run_cli(capsys, *argv)
    warning = ("warning: no published reference values exist for T != 1\n"
               if argv[0] == "icosa-report" else "")
    assert (code, err) == (0, warning)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_load_group_from_file(tmp_path, klein):
    path = tmp_path / "klein.group"
    path.write_text("degree 4\n(1 2)(3 4)\n(1 3)(2 4)\n")
    assert load_group(str(path)) == klein


def test_builtin_groups():
    assert load_group("klein4").order == 4
    assert load_group("cyclic:5").order == 5
    assert load_group("trivial:7").degree == 7
    assert load_group("icosahedral").order == 60
    with pytest.raises(ValueError):
        load_group("dihedral:4")
    # sizes are decimal digits only, as in group files and tree text
    for name in ("cyclic:x", "cyclic:1_0", "cyclic:+3", "cyclic: 3",
                 "trivial:1_0"):
        with pytest.raises(ValueError, match="malformed builtin group name"):
            load_group(name)
    # leading zeros are not digits of the size, wherever the digit cap stands
    assert load_group("cyclic:" + "0" * 5000 + "3").order == 3


@pytest.mark.parametrize("family", ["cyclic", "trivial"])
def test_a_size_too_large_to_build_has_one_diagnostic(capsys, family):
    # refused before int(), so the library, under the interpreter's digit
    # cap, and main, which lifts it, report the same error
    name = f"{family}:" + "1" * 5000
    message = (f"group size in '{family}:<5000 digits>' must be "
               f"<= {sys.maxsize}")
    with pytest.raises(ValueError) as raised:
        load_group(name)
    assert str(raised.value) == message
    assert run_cli(capsys, "mobius", "--group", name) == (
        1, "", f"error: {message}\n")
    assert "must be <=" in run_cli(capsys, "mobius", "--group",
                                   f"{family}:{sys.maxsize + 1}")[2]


def test_a_builtin_name_wins_over_a_file_of_that_name(tmp_path, monkeypatch,
                                                      klein):
    monkeypatch.chdir(tmp_path)
    Path("klein4").write_text("degree 4\n(1 2 3 4)\n")
    assert load_group("klein4") == klein


def test_a_colon_name_outside_the_builtin_families_is_a_file(tmp_path,
                                                             monkeypatch, klein):
    monkeypatch.chdir(tmp_path)
    Path("dihedral:4").write_text("degree 4\n(1 2)(3 4)\n(1 3)(2 4)\n")
    assert load_group("dihedral:4") == klein


def test_icosa_report_smoke(capsys):
    code, out, err = run_cli(capsys, "icosa-report")
    assert code == 0
    assert "total trees: 1924465510132437394720184730922187571120346754534" \
        in out
    assert "mobius matrix (CSV):" in out
    assert out.count("\n") > 80
    _, again, _ = run_cli(capsys, "icosa-report")
    assert out == again


def test_icosa_report_warns_off_t1(capsys):
    code, _, err = run_cli(capsys, "icosa-report", "--T", "2")
    assert code == 0
    assert err == "warning: no published reference values exist for T != 1\n"
    code, _, err = run_cli(capsys, "icosa-report", "--T", "1")
    assert code == 0 and err == ""


@pytest.mark.slow
def test_t30_total_matches_modular_oracle():
    # 1,800 leaves: the 5,818-digit total, checked modulo two primes
    src = str(Path(capsid.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "capsid.cli", "icosa-report", "--T", "30"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0
    line, = (s for s in proc.stdout.decode().splitlines()
             if s.startswith("total trees: "))
    digits = line.removeprefix("total trees: ")
    for p in (2 ** 61 - 1, 10 ** 9 + 7):
        # by 100-digit chunks, under the int-from-str digit cap
        residue = 0
        for i in range(0, len(digits), 100):
            chunk = digits[i:i + 100]
            residue = (residue * 10 ** len(chunk) + int(chunk)) % p
        assert residue == tree_counts_by_recurrence(1800, p)[1800]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit cap before Python 3.11")
def test_counts_print_past_the_digit_cap(capsys):
    # the T = 7 counts have about 1,090 digits; 640 is the lowest cap allowed
    code, uncapped, _ = run_cli(capsys, "icosa-report", "--T", "7")
    assert code == 0
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, capped, _ = run_cli(capsys, "icosa-report", "--T", "7")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(cap)
    assert code == 0 and capped == uncapped


def test_submodules_are_not_shadowed():
    for info in pkgutil.iter_modules(capsid.__path__):
        importlib.import_module(f"capsid.{info.name}")
        assert isinstance(getattr(capsid, info.name), types.ModuleType), \
            info.name
    assert capsid.stabilizer is capsid.stabilizers.stabilizer


def test_closed_stdout_is_quiet():
    src = str(Path(capsid.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "capsid.cli", "enumerate-trees", "--n", "7"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert first.startswith(b"(")
    assert err == b""


@pytest.mark.parametrize("argv", [
    ("series", "--group", "klein4", "--order", "1000000000000"),
    ("fixed-trees", "--group", "cyclic:1000000000000"),
    ("blocks", "--group", "trivial:1000000000000"),
])
def test_an_allocation_failure_is_one_line_error(argv):
    # each input asks for a list of about 10^12 entries, whose allocation
    # fails at once
    src = str(Path(capsid.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "capsid.cli", *argv],
                          capture_output=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.startswith(b"error: out of memory")
    assert proc.stderr.count(b"\n") == 1
    assert b"Traceback" not in proc.stderr
