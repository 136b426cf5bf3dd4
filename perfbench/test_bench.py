"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/test_bench.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import hostspeed
import inputs
import run

ROOT = Path(__file__).resolve().parent.parent


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_smoke_runs_every_workload_with_checks():
    proc = _run(["--smoke"], ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "generate", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tree_count_recurrence():
    assert [inputs.tree_count(n) for n in range(1, 8)] == [1, 1, 4, 26, 236, 2752, 39208]


def test_stabilize_inputs_follow_the_seed():
    first = inputs.stabilize_inputs(3, 2)
    assert first == inputs.stabilize_inputs(3, 2)
    assert first != inputs.stabilize_inputs(4, 2)
    assert {(c["leaves"], c["kind"]) for c in first} == {
        (60, "random"), (60, "symmetric"), (180, "random"), (180, "symmetric")}


def test_symmetric_trees_are_fixed_by_their_subgroup():
    rng = random.Random(0)
    elements = inputs.close(inputs.regular_action(inputs.ALTERNATING5))
    for kind in range(inputs.SUBGROUP_KINDS):
        sub = inputs.random_subgroup(elements, kind, rng)
        tree = inputs.symmetric_tree(sub, rng)
        assert inputs.brute_stabilizer_order(
            inputs.tree_text(tree), inputs.group_files()["a5_regular.txt"]) >= len(sub)


def test_reference_time_runs_the_loop_at_least_once():
    assert hostspeed.reference_time(0.0) > 0


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    pct, value = run.tail([float(x) for x in range(1, 101)])
    assert (pct, value) == (90, 90.0)


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]
    assert run.verdict(base, [x * 1.5 for x in base], "lower", 0.1) == "worse"
    assert run.verdict(base, [x * 0.5 for x in base], "lower", 0.1) == "better"
    assert run.verdict(base, list(base), "lower", 0.1) == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert run.verdict(base, noisy, "lower", 0.1) == "unresolved"
