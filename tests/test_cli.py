import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import capsid
from capsid.cli import load_group, main


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


def test_deep_tree_is_one_line_error(capsys):
    caterpillar = "1500"
    for leaf in range(1499, 0, -1):
        caterpillar = f"({leaf},{caterpillar})"
    code, out, err = run_cli(capsys, "stabilizer", "--group", "trivial:1500",
                             "--tree", caterpillar)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "nests too deeply" in err


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


def test_load_group_from_file(tmp_path, klein):
    path = tmp_path / "klein.group"
    path.write_text("degree 4\n(1 2)(3 4)\n(1 3)(2 4)\n")
    assert load_group(str(path)) == klein


def test_icosa_report_smoke(capsys):
    code, out, err = run_cli(capsys, "icosa-report")
    assert code == 0
    assert "total trees: 1924465510132437394720184730922187571120346754534" \
        in out
    assert "mobius matrix (CSV):" in out
    assert out.count("\n") > 80
    _, again, _ = run_cli(capsys, "icosa-report")
    assert out == again


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit cap before Python 3.11")
@pytest.mark.filterwarnings("ignore:no published reference values")
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
