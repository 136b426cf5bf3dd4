#!/usr/bin/env python3
"""The capsid benchmark: seeded workloads against the ``capsid`` CLI and
library, with output checks, end-to-end metrics and a traced per-layer run.

Run from the repository root (the program is imported from ``src/``):

    python3 perfbench/run.py --workload report --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload generate --seed 1 --trace 1
    python3 perfbench/run.py --workload stabilize --seed 1 --results new.jsonl
    python3 perfbench/run.py --compare base.jsonl new.jsonl
    python3 perfbench/run.py --smoke

Workloads (one process at a time, each a closed loop; the benchmark itself
never imports capsid, see ``child.py``):

``report``
    ``capsid icosa-report --T 7`` (420 leaves; deep: the fixed-tree series
    dominate) then ``capsid pathways`` on the regular action of S5 (120
    points, 156 subgroups; wide: many classes, degree-120 closure from a
    group file).  Each command is a fresh process.
``generate``
    ``capsid fixed-trees`` listing every fixed tree for klein4 and cyclic:6
    each replicated three times and for ``icosahedral``, then
    ``capsid enumerate-trees --n 7 --count-only``.  Builds trees.
``stabilize``
    Library processes, four in turn, looping ``parse_tree(text)`` then
    ``stabilizer(G, tau)`` over seeded trees on 60 and 180 leaves, half
    random (trivial stabilizer, worst case) and half symmetric under a
    seeded subgroup.  Reads trees.

Every CLI sample is a fresh process with ``CAPSID_MAX_GROUP_ORDER`` removed
from its environment, after a discarded warm-up pass at smoke size that
compiles the bytecode.  Peak RSS is each child's own, from ``os.wait4``.

``wall_s`` is the sum over a pass's CLI commands of each one's median
process time in the run (for ``stabilize``, the median pass time).  The
host's speed drifts by up to half over minutes, so ``wall_s`` moves from run
to run with the host; ``wall_ref``, the gated time, divides each sample by
the time of a fixed reference loop run right after it (``hostspeed.py``),
which cancels most of that drift.  ``setup_s`` is the median, over fresh
interpreters spread through the run, of the time to import ``capsid.cli``
and build the workload's groups (and stabilize inputs).  Warm-up, set-up
samples and timed passes together take ``--seconds``; the output checks run
after.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the latter holding the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0`` and its ``per_layer`` metrics with
``--trace 1``.  The lines before it print every metric of the workload by
name and unit, including the workload's own ones that BENCHMARK.json cannot
gate because they do not exist on every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import inputs
from hostspeed import reference_time

CHILD = Path(__file__).resolve().parent / "child.py"
WORK = Path(".perfbench")            # scratch files, inside the checkout
GROUPS = WORK / "groups"
SETUP_PER_ROUND = 4                  # set-up samples before each timed round
STABILIZE_PROCESSES = 4              # stabilize worker processes per run
PER_KIND = 8                         # stabilize trees per kind and size
SMOKE_PER_KIND = 1
WORKLOADS = ("report", "generate", "stabilize")

# Bounds for the workload-specific metrics in compare mode; the metrics
# that BENCHMARK.json lists take their bound from there.
EXTRA_METRICS = {
    # name: (unit, better, bound)
    "wall_s": ("s", "lower", 0.25),
    "icosa_t7_s": ("s", "lower", 0.25),
    "pathways_s5_s": ("s", "lower", 0.25),
    "trees_per_s": ("1/s", "higher", 0.25),
    "stabilizers_per_s": ("1/s", "higher", 0.25),
    "stabilizer_ms.p50": ("ms", "lower", 0.25),
    "stabilizer_ms.tail": ("ms", "lower", 0.25),
    "error_rate": ("ratio", "lower", 0.0),
}


def _fixed(label: str, group: str, group_text: str, count: int):
    return (label, ["fixed-trees", "--group", group], checks.check_fixed_trees,
            (count, group_text))


def cli_commands(workload: str, smoke: bool) -> list[tuple]:
    """(label, argv, check, check argument) for each CLI command of a pass."""
    files = inputs.group_files()
    if workload == "report" and not smoke:
        return [("icosa_t7", ["icosa-report", "--T", "7"], checks.check_report, None),
                ("pathways_s5", ["pathways", "--group", str(GROUPS / "s5_regular.txt")],
                 checks.check_pathways, 120)]
    if workload == "report":
        return [("icosa_t2", ["icosa-report", "--T", "2"], checks.check_report, None),
                ("pathways_s4", ["pathways", "--group", str(GROUPS / "s4_regular.txt")],
                 checks.check_pathways, 24)]
    if not smoke:
        return [_fixed("fixed_klein4_x3", str(GROUPS / "klein4_x3.txt"),
                       files["klein4_x3.txt"], 4896),
                _fixed("fixed_cyclic6_x3", str(GROUPS / "cyclic6_x3.txt"),
                       files["cyclic6_x3.txt"], 3440),
                _fixed("fixed_icosahedral", "icosahedral", files["a5_regular.txt"], 204),
                ("enumerate_7", ["enumerate-trees", "--n", "7", "--count-only"],
                 checks.check_count, 7)]
    return [_fixed("fixed_klein4", "klein4", inputs.group_text(inputs.KLEIN4), 4),
            _fixed("fixed_cyclic6", "cyclic:6", inputs.group_text(inputs.CYCLIC6), 3),
            ("enumerate_5", ["enumerate-trees", "--n", "5", "--count-only"],
             checks.check_count, 5)]


# -- child processes ---------------------------------------------------------------

class Child:
    """One finished child process: wall time, its own peak RSS, exit code,
    stdout."""

    def __init__(self, args: list[str]):
        env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
        env.pop("CAPSID_MAX_GROUP_ORDER", None)
        start = time.perf_counter()
        with open(WORK / "stderr.txt", "wb") as err:
            proc = subprocess.Popen([sys.executable] + args, stdout=subprocess.PIPE,
                                    stderr=err, env=env)
            with proc.stdout:
                self.out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        self.wall = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024
        self.stderr = (WORK / "stderr.txt").read_text(errors="replace").strip()

    def failure(self) -> str | None:
        if self.code == 0:
            return None
        last = self.stderr.splitlines()[-1] if self.stderr else ""
        return f"exit code {self.code}: {last}"


def child_args(mode: str, workload: str, seed: int, per_kind: int, *extra) -> list[str]:
    return [str(CHILD), mode, workload, "--work", str(GROUPS), "--seed", str(seed),
            "--per-kind", str(per_kind), *map(str, extra)]


class Ledger:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._checked: dict[tuple, list[str]] = {}

    def record(self, label: str, problems: list[str], count: int = 1) -> None:
        self.attempted += count
        if problems:
            self.failed += count
            self.problems += [f"{label}: {p}" for p in problems]

    def check_cli(self, label: str, check, arg, child: Child) -> None:
        """Exit code, pinned sha256 and identity checks of one CLI run; the
        checks run once per distinct stdout."""
        failure = child.failure()
        if failure:
            self.record(label, [failure])
            return
        digest = checks.sha256(child.out)
        if (label, digest) not in self._checked:
            problems = []
            if digest != checks.PINNED[label]:
                problems.append("stdout differs from the pinned sha256")
            try:
                problems += check(child.out, arg)
            except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            self._checked[label, digest] = problems
        self.record(label, self._checked[label, digest])


def cli_pass(commands, ledger: Ledger) -> dict:
    """One process per command, in turn.  The pass's wall time is the sum of
    the processes' wall times, so the output checks between them are not
    timed.  Each process is followed by the reference loop, whose median
    time there is the operation's ``loop``."""
    ops = []
    for label, argv, check, arg in commands:
        child = Child(["-m", "capsid.cli", *argv])
        loop = reference_time(child.wall)
        ledger.check_cli(label, check, arg, child)
        ops.append({"label": label, "wall": child.wall, "loop": loop,
                    "rss_mb": child.rss_mb, "lines": child.out.count(b"\n"),
                    "bytes": len(child.out)})
    return {"wall": sum(op["wall"] for op in ops), "ops": ops,
            "rss_mb": max(op["rss_mb"] for op in ops)}


def stabilize_run(seed: int, per_kind: int, seconds: float, ledger: Ledger,
                  expected: list[dict] | None = None) -> dict:
    """The stabilize worker; checks each stabilizer order against a brute
    count and, for symmetric trees, against the building subgroup.
    ``expected`` is :func:`expected_cases` for the same seed and size."""
    child = Child(child_args("stabilize", "stabilize", seed, per_kind,
                             "--seconds", seconds))
    failure = child.failure()
    if failure:
        ledger.record("stabilize", [failure])
        return {}
    result = json.loads(child.out)
    result["rss_mb"] = child.rss_mb
    passes = len(result["pass_s"])
    expected = expected or expected_cases(seed, per_kind)
    for case, order in zip(expected, result["orders"]):
        problems = ["orders changed between passes"] if result["unstable"] else []
        if order != case["brute_order"]:
            problems.append(f"order {order}, brute count {case['brute_order']}")
        if order < case["built_under"]:
            problems.append(f"order {order} below the building subgroup's "
                            f"{case['built_under']}")
        ledger.record(f"stabilize {case['kind']} {case['leaves']}", problems, passes)
    return result


def expected_cases(seed: int, per_kind: int) -> list[dict]:
    files = inputs.group_files()
    cases = inputs.stabilize_inputs(seed, per_kind)
    for case in cases:
        case["brute_order"] = inputs.brute_stabilizer_order(case["text"],
                                                            files[case["group"]])
    return cases


def prepare() -> None:
    """Refuse to run outside a capsid checkout; write the group files."""
    if not (Path("src") / "capsid" / "cli.py").is_file():
        sys.exit("perfbench: src/capsid not found; run from the repository root")
    GROUPS.mkdir(parents=True, exist_ok=True)
    for name, text in inputs.group_files().items():
        (GROUPS / name).write_text(text)


def warm_up(workload: str, seed: int, ledger: Ledger) -> None:
    """A discarded pass at smoke size: compiles bytecode, fills the page
    cache.  Its outputs are still checked."""
    if workload == "stabilize":
        stabilize_run(seed, SMOKE_PER_KIND, 0, ledger)
    else:
        cli_pass(cli_commands(workload, smoke=True), ledger)


# -- statistics --------------------------------------------------------------------

def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)
    return pct, sorted(values)[rank - 1]


def summary(values: list[float]) -> str:
    """The sample count, and the tail percentile once it lies above the
    median."""
    found = tail(values)
    tail_text = f", p{found[0]} {found[1]:.6g}" if found and found[0] > 50 else ""
    return f"median of {len(values)}{tail_text}"


# -- measuring ---------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict, Ledger]:
    """Untraced run: metrics (name -> (value, unit)) and their details.

    Set-up samples are taken in rounds between the timed passes (or
    stabilize processes), so that they spread over the run like the passes
    do.  Each timed sample (a CLI process, or a stabilize pass) is followed
    by a block of the reference loop (``hostspeed.py``)."""
    start = time.perf_counter()
    ledger = Ledger()
    warm_up(workload, seed, ledger)
    setups: list[float] = []

    def setup_round() -> None:
        for _ in range(SETUP_PER_ROUND):
            child = Child(child_args("setup", workload, seed, PER_KIND))
            failure = child.failure()
            ledger.record("setup", [failure] if failure else [])
            if not failure:
                setups.append(float(child.out))

    def left() -> float:
        return seconds - (time.perf_counter() - start)

    metrics: dict[str, tuple[float, str]] = {}
    details: dict[str, str] = {}

    def put(name, value, unit, detail):
        metrics[name] = (value, unit)
        details[name] = detail

    def put_wall(samples: list[list[tuple[float, float]]], what: str) -> None:
        """``wall_s`` and ``wall_ref`` from (time, loop) samples per
        operation, ``loop`` being the reference loop's median right after."""
        put("wall_s", sum(statistics.median(t for t, _ in op) for op in samples), "s",
            f"sum over {len(samples)} {what} of each one's median of {len(samples[0])}")
        put("wall_ref", sum(statistics.median(t / loop for t, loop in op)
                            for op in samples), "ref",
            "the same, each time divided by the reference loop's right after it")

    if workload == "stabilize":
        expected = expected_cases(seed, PER_KIND)
        results = []
        for k in range(STABILIZE_PROCESSES):
            setup_round()
            result = stabilize_run(seed, PER_KIND, left() / (STABILIZE_PROCESSES - k),
                                   ledger, expected)
            if not result:
                break
            results.append(result)
        if len(results) == STABILIZE_PROCESSES:
            put_wall([[pair for r in results for pair in zip(r["pass_s"], r["loop_s"])]],
                     f"pass in {STABILIZE_PROCESSES} processes")
            put("peak_rss_mb", max(r["rss_mb"] for r in results), "MiB",
                f"largest of {STABILIZE_PROCESSES} processes")
            ms = [s * 1000 for r in results for s in r["op_s"]]
            busy = sum(s for r in results for s in r["pass_s"])
            put("stabilizers_per_s", len(ms) / busy, "1/s",
                f"{len(ms)} operations in {busy:.3f} s")
            found = tail(ms)
            put("stabilizer_ms.p50", statistics.median(ms), "ms", summary(ms))
            put("stabilizer_ms.tail", found[1] if found else max(ms), "ms", summary(ms))
    else:
        commands = cli_commands(workload, smoke=False)
        passes = []
        while True:
            setup_round()
            passes.append(cli_pass(commands, ledger))
            if left() < statistics.fmean(p["wall"] for p in passes):
                break
        ops = {label: [op for p in passes for op in p["ops"] if op["label"] == label]
               for label, *_ in commands}
        put_wall([[(op["wall"], op["loop"]) for op in runs] for runs in ops.values()],
                 "commands")
        put("peak_rss_mb", max(p["rss_mb"] for p in passes), "MiB",
            f"largest of {len(passes) * len(commands)} processes")
        each = {label: statistics.median(op["wall"] for op in runs)
                for label, runs in ops.items()}
        if workload == "report":
            for label in ("icosa_t7", "pathways_s5"):
                put(f"{label}_s", each[label], "s",
                    summary([op["wall"] for op in ops[label]]))
        else:
            listed = [label for label in each if label.startswith("fixed_")]
            lines = sum(ops[label][0]["lines"] for label in listed)
            put("trees_per_s", lines / sum(each[label] for label in listed), "1/s",
                f"{lines} trees over the {len(listed)} fixed-trees medians")
    if setups:
        put("setup_s", statistics.median(setups), "s", summary(setups))
    metrics["error_rate"] = (ledger.failed / max(ledger.attempted, 1), "ratio")
    details["error_rate"] = f"{ledger.failed} of {ledger.attempted} operations"
    return metrics, details, ledger


# -- tracing -----------------------------------------------------------------------

# Which end-to-end metric each layer should move, on which workload, and
# where no change is predicted.
LAYER_EFFECTS = {
    "series": ("icosa_t7_s, pathways_s5_s, wall_s", "report", "generate, stabilize"),
    "perms": ("pathways_s5_s, setup_s, trees_per_s", "report, generate", "-"),
    "lattice": ("wall_s (under 2%: no measurable change)", "report",
                "generate, stabilize"),
    "pathways": ("wall_s (small share)", "report", "generate, stabilize"),
    "trees": ("trees_per_s, stabilizers_per_s", "generate, stabilize", "report"),
    "stabilizer": ("stabilizers_per_s, stabilizer_ms.*", "stabilize",
                   "report, generate"),
    "fixed_trees": ("trees_per_s, peak_rss_mb", "generate", "report, stabilize"),
    "cli": ("setup_s, wall_s", "report, generate", "-"),
}


def _self_time(name):
    return lambda t: t["self"].get(name, 0.0)


def _per_call(name, scale):
    return lambda t: statistics.median(t["calls"][name]) * scale if t["calls"][name] else 0.0


def _counter(name):
    return lambda t: t["counters"].get(name, 0)


def _ratio(num, den):
    return lambda t: (t["counters"].get(num, 0) / t["counters"][den]
                      if t["counters"].get(den) else 0.0)


LAYER_METRICS = {
    "series.base_s": ("s", _self_time("series.base")),
    "series.class_solve_s": ("s", _self_time("series.class_solve")),
    "series.class_solve_max_s": ("s", lambda t: max(t["calls"]["series.class_solve"],
                                                     default=0.0)),
    "series.solves": ("count", _counter("series.solves")),
    "series.max_digits": ("count", _counter("series.max_digits")),
    "perms.group_build_s": ("s", _self_time("perms.group_build")),
    "perms.subgroups_s": ("s", _self_time("perms.subgroups")),
    "perms.classes_s": ("s", _self_time("perms.classes")),
    "perms.subgroup_count": ("count", _counter("perms.subgroup_count")),
    "perms.normalizer_s": ("s", _self_time("perms.normalizer")),
    "perms.coset_reps_s": ("s", _self_time("perms.coset_reps")),
    "perms.close_s": ("s", _self_time("perms.close")),
    "lattice.build_s": ("s", _self_time("lattice.build")),
    "lattice.nodes": ("count", _counter("lattice.nodes")),
    "pathways.tbar_s": ("s", _self_time("pathways.tbar")),
    "pathways.distribution_s": ("s", _self_time("pathways.distribution")),
    "pathways.format_s": ("s", _self_time("pathways.format")),
    "trees.enumerate_s": ("s", _self_time("trees.enumerate")),
    "trees.act_us": ("us", _per_call("trees.act", 1e6)),
    "trees.to_text_s": ("s", _self_time("trees.to_text")),
    "trees.parse_ms": ("ms", _per_call("trees.parse", 1e3)),
    "stabilizer.fixes_us": ("us", _per_call("stabilizer.fixes", 1e6)),
    "stabilizer.call_ms": ("ms", _per_call("stabilizer.call", 1e3)),
    "stabilizer.traversals_per_leaf": ("ratio", _ratio("stabilizer.traversals",
                                                       "stabilizer.audit_leaves")),
    "stabilizer.audit_ok_ratio": ("ratio", _ratio("stabilizer.audits_ok",
                                                  "stabilizer.audits")),
    "fixed_trees.generate_s": ("s", _self_time("fixed_trees.generate")),
    "fixed_trees.recipes": ("count", _counter("fixed_trees.recipes")),
    "fixed_trees.recipes_s": ("s", _self_time("fixed_trees.recipes")),
    "fixed_trees.distinct_per_produced": ("ratio", _ratio("fixed_trees.distinct",
                                                          "fixed_trees.produced")),
    "cli.import_s": ("s", _self_time("cli.import")),
    "cli.self_s": ("s", lambda t: t["cli_self"]),
    "cli.stdout_bytes": ("bytes", lambda t: t["stdout_bytes"]),
    "trace.overhead_ratio": ("ratio", lambda t: t["overhead"]),
}


def span_tables(spans: list[dict]) -> tuple[dict, dict, dict]:
    """Self time per span name, durations per name, and per request the
    total time of its top-level spans that are not probes."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    self_time = defaultdict(float)
    calls = defaultdict(list)
    top = defaultdict(float)
    for i, s in enumerate(spans):
        duration = s["end"] - s["start"]
        self_time[s["name"]] += duration - covered[i]
        calls[s["name"]].append(duration)
        if s["parent"] is None and not s["probe"]:
            top[s["request"]] += duration
    return self_time, calls, top


def traced(workload: str, seed: int) -> tuple[dict, dict, Ledger]:
    """One untraced pass, then the traced child; per-layer metrics."""
    ledger = Ledger()
    warm_up(workload, seed, ledger)
    if workload == "stabilize":
        result = stabilize_run(seed, PER_KIND, 0, ledger)
        if not result:
            return {}, {}, ledger
        untraced = result["pass_s"][0]
        cli_walls, stdout_bytes = {}, 0
    else:
        result = cli_pass(cli_commands(workload, smoke=False), ledger)
        untraced = result["wall"]
        cli_walls = {op["label"]: op["wall"] for op in result["ops"]}
        stdout_bytes = sum(op["bytes"] for op in result["ops"])
    spans_file = WORK / f"spans-{workload}-seed{seed}.json"
    child = Child(child_args("trace", workload, seed, PER_KIND, "--spans", spans_file))
    failure = child.failure()
    if failure:
        ledger.record("trace", [failure])
        return {}, {}, ledger
    result = json.loads(child.out)
    problems = list(result["problems"])
    problems += [f"{label}: traced output differs from the pinned sha256"
                 for label, digest in result["sha"].items()
                 if digest != checks.PINNED[label]]
    if workload == "stabilize":
        cases = expected_cases(seed, PER_KIND)
        problems += [f"case {i}: order {got}, brute count {case['brute_order']}"
                     for i, (case, got) in enumerate(zip(cases, result["orders"]))
                     if got != case["brute_order"]]
    ledger.record("trace", problems)
    recorded = json.loads(spans_file.read_text())
    self_time, calls, top = span_tables(recorded["spans"])
    tables = {
        "self": self_time, "calls": calls, "counters": recorded["counters"],
        "cli_self": sum(wall - top[label] for label, wall in cli_walls.items()),
        "stdout_bytes": stdout_bytes,
        "overhead": sum(t for request, t in top.items() if request) / untraced,
    }
    metrics = {name: (fn(tables), unit) for name, (unit, fn) in LAYER_METRICS.items()}
    details = {}
    for name in LAYER_METRICS:
        if name.split(".")[0] in LAYER_EFFECTS:
            moves, on, unchanged = LAYER_EFFECTS[name.split(".")[0]]
            details[name] = f"moves {moves} on {on}; no change on {unchanged}"
    details["trace.overhead_ratio"] = ("traced library calls of the pass, probes "
                                       f"excluded, against the untraced pass "
                                       f"of {untraced:.3f} s")
    print(f"spans written to {spans_file} ({len(recorded['spans'])} spans)")
    return metrics, details, ledger


# -- reporting -----------------------------------------------------------------------

def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(args, samples: str) -> dict:
    return {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "commit": commit(),
            "nproc": len(os.sched_getaffinity(0)), "samples": samples}


def load_benchmark() -> dict:
    return json.loads(Path("BENCHMARK.json").read_text())


def run(args) -> int:
    bench = load_benchmark()
    prepare()
    if args.trace:
        metrics, details, ledger = traced(args.workload, args.seed)
        wanted = bench["per_layer"]
    else:
        metrics, details, ledger = measure(args.workload, args.seed, args.seconds)
        wanted = bench["end_to_end"]
    samples = "; ".join(f"{name}: {details[name]}" for name in ("setup_s", "wall_s")
                        if name in details)
    env = environment(args, samples or "traced")
    print(f"perfbench {args.workload}: " +
          " ".join(f"{k}={v}" for k, v in env.items() if k != "samples"))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit:<6} {details.get(name, '')}")
    for problem in ledger.problems[:20]:
        print(f"  FAILED {problem}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    record = {"workload": args.workload, **env, "correct": ledger.failed == 0,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if args.results:
        with open(args.results, "a") as out:
            out.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": record["correct"], "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: record["metrics"][m["name"]] for m in wanted}}))
    return 0


def smoke(workloads) -> int:
    """Each workload once at reduced size, every output check on."""
    prepare()
    ledger = Ledger()
    for workload in workloads:
        before = ledger.failed
        warm_up(workload, 1, ledger)
        print(f"smoke {workload}: {'ok' if ledger.failed == before else 'FAILED'}")
    for problem in ledger.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed}))
    return 0 if ledger.failed == 0 else 1


# -- compare -----------------------------------------------------------------------

def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """better / worse / unchanged / unresolved for one metric.

    Unresolved when either side's quartile spread exceeds the bound, unless
    every new run beats every base run.  Worse when the new median is worse
    by more than the bound.  Better when the new side wins nine tenths of
    the run pairs and the medians differ by more than the base's spread.
    """
    sign = 1 if better == "higher" else -1
    mb, mn = statistics.median(base), statistics.median(new)
    if mb == 0:
        return "unchanged" if mn == 0 else ("better" if sign * mn > 0 else "worse")
    if max(spread(base), spread(new)) > bound:
        beats_all = min(sign * v for v in new) > max(sign * v for v in base)
        return "better" if beats_all else "unresolved"
    if sign * (mn - mb) < -bound * abs(mb):
        return "worse"
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    if wins >= 0.9 * len(pairs) and sign * (mn - mb) > spread(base) * abs(mb):
        return "better"
    return "unchanged"


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: list[float]) -> float:
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def compare(base_file: str, new_file: str) -> int:
    """Per workload and metric: medians, quartiles, ratio and verdict."""
    bench = load_benchmark()
    specs = {m["name"]: (m["unit"], m["better"], m.get("bound", 0.0))
             for m in bench["end_to_end"] + bench["per_layer"]}
    for name, spec in EXTRA_METRICS.items():
        specs.setdefault(name, spec)
    sets = []
    for path in (base_file, new_file):
        runs = defaultdict(lambda: defaultdict(list))
        for line in Path(path).read_text().splitlines():
            rec = json.loads(line)
            for name, m in rec["metrics"].items():
                runs[rec["workload"]][name].append(m["value"])
        sets.append(runs)
    base, new = sets
    print(f"{'workload':<10} {'metric':<34} {'base median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'ratio':>7}  verdict")
    for workload in sorted(set(base) & set(new)):
        for name in sorted(set(base[workload]) & set(new[workload])):
            if name not in specs:
                continue
            unit, better, bound = specs[name]
            b, n = base[workload][name], new[workload][name]
            mb, mn = statistics.median(b), statistics.median(n)
            ratio = f"{mn / mb:7.3f}" if mb else "    n/a"
            cells = [f"{statistics.median(v):.4g} [{q[0]:.4g}, {q[1]:.4g}] {unit}"
                     for v, q in ((b, quartiles(b)), (n, quartiles(n)))]
            print(f"{workload:<10} {name:<34} {cells[0]:>32} {cells[1]:>32} {ratio}  "
                  f"{verdict(b, n, better, bound)} (n={len(b)}/{len(n)}, bound {bound})")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="capsid benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="append this run's record (JSON line)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two files of --results records")
    parser.add_argument("--smoke", action="store_true",
                        help="each workload once at reduced size, all checks on")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        return smoke([args.workload] if args.workload else WORKLOADS)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
