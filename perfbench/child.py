"""The child-process side of the benchmark: the only file that imports capsid.

``run.py`` starts this script as a fresh interpreter, from the repository
root with ``PYTHONPATH=src``, in one of three modes:

``setup <workload>``
    Import ``capsid.cli`` and build the workload's groups (and, for
    ``stabilize``, its seeded inputs), then print the seconds that took:
    one ``setup_s`` sample.
``stabilize``
    The ``stabilize`` library loop: build the groups and inputs, warm up on
    one case per group, then time closed-loop passes of
    ``parse_tree(text)`` + ``stabilizer(G, tau)``, each pass followed by
    the reference loop (``hostspeed.py``), until ``--seconds`` have
    passed since the loop started.  Prints one JSON object with the
    per-operation latencies, pass times, the median reference loop time
    after each pass and the stabilizer orders found.
``trace <workload>``
    Call the library's public functions in the order the CLI does, with a
    span around each call into a module.  Spans (name, start, end, parent,
    workload, request) and counters are kept in memory and written to
    ``--spans`` at exit; stdout gets the results ``run.py`` checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import checks
import inputs
from hostspeed import reference_time

STABILIZE_GROUPS = ("a5_regular.txt", "a5_regular_x3.txt")


def _read_group(work: Path, name: str):
    from capsid import group_from_text
    return group_from_text((work / name).read_text())


def build_groups(workload: str, work: Path, seed: int, per_kind: int):
    """What ``setup_s`` pays for: the workload's groups, and for ``stabilize``
    its seeded inputs too."""
    import capsid.cli  # noqa: F401  (the CLI import is part of set-up)
    from capsid import icosahedral_group, replicated_action
    if workload == "report":
        return [replicated_action(icosahedral_group(), 7),
                _read_group(work, "s5_regular.txt")]
    if workload == "generate":
        return [_read_group(work, "klein4_x3.txt"),
                _read_group(work, "cyclic6_x3.txt"), icosahedral_group()]
    groups = {name: _read_group(work, name) for name in STABILIZE_GROUPS}
    return groups, inputs.stabilize_inputs(seed, per_kind)


# -- the stabilize loop ----------------------------------------------------------

def stabilize_loop(work: Path, seed: int, per_kind: int, seconds: float) -> dict:
    clock = time.perf_counter
    start = clock()
    from capsid import parse_tree, stabilizer
    groups, cases = build_groups("stabilize", work, seed, per_kind)
    pairs = [(groups[c["group"]], c["text"]) for c in cases]

    def one_pass(latencies: list) -> tuple[float, list[int]]:
        orders = []
        start = clock()
        for group, text in pairs:
            t0 = clock()
            result = stabilizer(group, parse_tree(text))
            latencies.append(clock() - t0)
            orders.append(result.order)
        return clock() - start, orders

    for group, text in (pairs[0], pairs[-1]):  # warm-up: lazy group slots
        stabilizer(group, parse_tree(text))
    latencies: list[float] = []
    pass_s: list[float] = []
    loop_s: list[float] = []
    first = None
    unstable = 0
    while True:
        wall, orders = one_pass(latencies)
        pass_s.append(wall)
        loop_s.append(reference_time(wall))
        first = first or orders
        unstable += sum(a != b for a, b in zip(orders, first))
        if clock() - start + statistics.fmean(pass_s) > seconds:
            break
    return {"orders": first, "unstable": unstable, "op_s": latencies,
            "pass_s": pass_s, "loop_s": loop_s}


# -- tracing -----------------------------------------------------------------------

class Tracer:
    """In-memory spans and counters for one traced workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.request: str | None = None
        self.spans: list[list] = []   # [name, start, end, parent, request, probe]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def span(self, name: str, probe: bool = False) -> "_Span":
        """A span around one call.  A probe span times a call the CLI does
        not make itself (a repeat of inner work, or a per-call sample)."""
        return _Span(self, name, probe)

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "request", "probe")
        path.write_text(json.dumps({
            "workload": self.workload,
            "spans": [dict(zip(keys, s)) for s in self.spans],
            "counters": self.counters,
        }))


class _Span:
    __slots__ = ("tracer", "name", "probe", "record")

    def __init__(self, tracer: Tracer, name: str, probe: bool):
        self.tracer = tracer
        self.name = name
        self.probe = probe

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else None
        tr.stack.append(len(tr.spans))
        self.record = [self.name, time.perf_counter(), None, parent, tr.request,
                       self.probe]
        tr.spans.append(self.record)
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer.stack.pop()
        return False


def _traced_group_file(tr: Tracer, work: Path, name: str):
    """``group_from_text``, split so that the closure gets its own span."""
    from capsid import close_generators, parse_permutation
    with tr.span("perms.group_build"):
        lines = (work / name).read_text().split("\n")
        degree = int(lines[0].split()[1])
        gens = [parse_permutation(ln, degree) for ln in lines[1:] if ln]
        with tr.span("perms.close"):
            return close_generators(gens, degree)


def _traced_lattice(tr: Tracer, group):
    from capsid import build_lattice
    with tr.span("perms.subgroups"):
        subs = group.all_subgroups()
    tr.add("perms.subgroup_count", len(subs))
    with tr.span("perms.classes"):
        group.conjugacy_classes_of_subgroups()
    with tr.span("lattice.build"):
        lat = build_lattice(group)
    tr.add("lattice.nodes", len(lat.nodes))
    return lat


def _traced_distribution(tr: Tracer, group, problems: list):
    """``pathway_size_distribution`` step by step: the base series, one
    solve per class in ``lat.classes`` order, tbar from the precomputed t
    values, then the library call itself with its caches filled."""
    from capsid import (base_tree_series, fixed_tree_count,
                        pathway_size_distribution, tbar)
    lat = _traced_lattice(tr, group)
    with tr.span("series.base"):
        base_tree_series(group.degree)
    t_by_rep = {}
    for cls in lat.classes:
        rep = cls.representative
        with tr.span("series.class_solve"):
            t_by_rep[rep] = fixed_tree_count(rep, group.degree // rep.order)
        tr.add("series.solves", 1)
        tr.maximum("series.max_digits", len(str(t_by_rep[rep])))
    t_all = {sub: t_by_rep[lat.class_of(sub).representative] for sub in lat.nodes}
    with tr.span("pathways.tbar", probe=True):
        tbars = [tbar(group, cls.representative, t_all, lat) for cls in lat.classes]
    with tr.span("pathways.distribution"):
        dist = pathway_size_distribution(group, lat=lat)
    by_rep = {row.representative: row.exact_count for row in dist.per_subgroup_class}
    if [by_rep[cls.representative] for cls in lat.classes] != tbars:
        problems.append("tbar per class differs from the distribution's rows")
    if dist.total_trees != inputs.tree_count(group.degree):
        problems.append(f"total trees differ from A_{group.degree}")
    return dist


def trace_report(tr: Tracer, work: Path, problems: list, shas: dict) -> None:
    from capsid import (build_lattice, format_distribution, icosahedral_group,
                        pathway_probabilities, replicated_action)
    tr.request = "icosa_t7"
    with tr.span("perms.group_build"):
        group = replicated_action(icosahedral_group(), 7)
    dist = _traced_distribution(tr, group, problems)
    with tr.span("pathways.format"):
        text = format_distribution(dist)
    with tr.span("lattice.build"):
        csv = build_lattice(dist.group).to_csv()
    shas["icosa_t7"] = checks.sha256(
        (text + "\nmobius matrix (CSV):\n" + csv).encode())

    tr.request = "pathways_s5"
    group = _traced_group_file(tr, work, "s5_regular.txt")
    dist = _traced_distribution(tr, group, problems)
    with tr.span("pathways.format"):
        probs = pathway_probabilities(dist)
    if sum(dist.per_divisor[m] * p for m, p in probs.items()) != 1:
        problems.append("S5: sum N(m)*p(m) != 1")


GENERATE_GROUPS = (("fixed_klein4_x3", "klein4_x3.txt"),
                   ("fixed_cyclic6_x3", "cyclic6_x3.txt"),
                   ("fixed_icosahedral", None))


def trace_generate(tr: Tracer, work: Path, problems: list, shas: dict) -> None:
    from capsid import (act, construction_recipes, enumerate_all_trees,
                        generate_fixed_trees, icosahedral_group)
    for label, group_file in GENERATE_GROUPS:
        tr.request = label
        if group_file is None:
            with tr.span("perms.group_build"):
                group = icosahedral_group()
        else:
            group = _traced_group_file(tr, work, group_file)
        _traced_lattice(tr, group)
        diagnostics: list = []
        with tr.span("fixed_trees.generate"):
            trees = list(generate_fixed_trees(group, diagnostics=diagnostics))
        tr.add("fixed_trees.produced", diagnostics[0].produced)
        tr.add("fixed_trees.distinct", diagnostics[0].distinct)
        with tr.span("trees.to_text"):
            texts = sorted(t.to_text() for t in trees)
        shas[label] = checks.sha256("".join(t + "\n" for t in texts).encode())
        # the top level of the generator's work, timed from outside
        for cls in group.conjugacy_classes_of_subgroups():
            with tr.span("perms.normalizer", probe=True):
                group.normalizer(cls.representative)
        with tr.span("fixed_trees.recipes", probe=True):
            recipes = list(construction_recipes(group))
        tr.add("fixed_trees.recipes", len(recipes))
        for recipe in recipes:
            with tr.span("perms.coset_reps", probe=True):
                for sub in recipe.subgroups:
                    group.left_coset_representatives(sub)
        for tree in trees:
            for g in group.generators:
                with tr.span("trees.act", probe=True):
                    image = act(g, tree)
                if image != tree:
                    problems.append(f"{label}: a listed tree is not fixed")
    tr.request = "enumerate_7"
    with tr.span("trees.enumerate"):
        count = sum(1 for _ in enumerate_all_trees(range(1, 8)))
    if count != inputs.tree_count(7):
        problems.append(f"enumerated {count} trees on 7 leaves")


def trace_stabilize(tr: Tracer, work: Path, seed: int, per_kind: int,
                    problems: list) -> list[int]:
    from capsid import (act, fixes, locate_image, parse_tree,
                        pointer_traversal_audit, pointer_view, stabilizer)
    tr.request = None
    groups = {name: _traced_group_file(tr, work, name) for name in STABILIZE_GROUPS}
    cases = inputs.stabilize_inputs(seed, per_kind)
    orders = []
    for i, case in enumerate(cases):
        tr.request = f"case_{i}"
        group = groups[case["group"]]
        with tr.span("trees.parse"):
            tau = parse_tree(case["text"])
        with tr.span("stabilizer.call"):
            orders.append(stabilizer(group, tau).order)
        for g in group.elements:
            with tr.span("stabilizer.fixes", probe=True):
                fixed = fixes(g, tau)
            with tr.span("trees.act", probe=True):
                image = act(g, tau)
            if fixed != (image == tau):
                problems.append(f"case {i}: fixes disagrees with act")
            view = pointer_view(tau, g)
            locate_image(view, view.root)
            audit = pointer_traversal_audit(view)
            tr.add("stabilizer.traversals", audit.total_traversals)
            tr.add("stabilizer.audit_leaves", audit.leaf_count)
            tr.add("stabilizer.audits", 1)
            tr.add("stabilizer.audits_ok", int(audit.ok))
    return orders


def trace(workload: str, work: Path, seed: int, per_kind: int, spans: Path) -> dict:
    tr = Tracer(workload)
    with tr.span("cli.import"):
        import capsid.cli  # noqa: F401
    problems: list[str] = []
    shas: dict[str, str] = {}
    orders: list[int] = []
    try:
        if workload == "report":
            trace_report(tr, work, problems, shas)
        elif workload == "generate":
            trace_generate(tr, work, problems, shas)
        else:
            orders = trace_stabilize(tr, work, seed, per_kind, problems)
    finally:
        tr.write(spans)
    return {"problems": problems, "sha": shas, "orders": orders}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "stabilize", "trace"))
    parser.add_argument("workload", nargs="?", default="stabilize",
                        choices=("report", "generate", "stabilize"))
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--per-kind", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        start = time.perf_counter()
        build_groups(args.workload, args.work, args.seed, args.per_kind)
        print(time.perf_counter() - start)
        return 0
    if args.mode == "stabilize":
        result = stabilize_loop(args.work, args.seed, args.per_kind, args.seconds)
    else:
        result = trace(args.workload, args.work, args.seed, args.per_kind, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
