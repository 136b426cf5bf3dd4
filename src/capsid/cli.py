"""Command-line interface.

Every subcommand validates its inputs before computing, writes deterministic
bytes for fixed inputs, and turns any library error into a one-line
diagnostic with a nonzero exit code.  Big integers are always printed in
full decimal.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from pathlib import Path
from typing import Iterable, Optional

# each command imports the other modules it needs, so a run loads only those
from .perms import PermGroup, cyclic_group, group_from_text, \
    icosahedral_group, klein_group, parse_permutation, replicated_action, \
    trivial_group

# listings go to stdout this many lines per write: one call per block rather
# than two per line when stdout is unbuffered, and a streamed listing holds
# one block at a time
WRITE_BLOCK_LINES = 4096

# The subgroup census (lattice, Moebius values, fixed-tree counts and the
# fixed-tree generator) enumerates every subgroup, so groups from outside are
# refused above this order; CAPSID_MAX_GROUP_ORDER overrides it.
DEFAULT_MAX_GROUP_ORDER = 120


def load_group(name_or_path: str) -> PermGroup:
    """Resolve a --group argument.  Four forms are builtin: ``klein4``,
    ``icosahedral``, ``cyclic:k`` (the cyclic group of order k acting
    regularly) and ``trivial:n`` (the identity on n points), where k and n
    are decimal digits and at least 1.  Any other text is a path to a group
    file."""
    if name_or_path == "klein4":
        return klein_group()
    if name_or_path == "icosahedral":
        return icosahedral_group()
    if name_or_path.startswith(("cyclic:", "trivial:")):
        family, size = name_or_path.split(":", 1)
        if not size.isdecimal():
            raise ValueError(f"malformed builtin group name: {name_or_path!r}")
        # compared as text, so that int() never meets the interpreter's
        # digit cap, which main lifts and a library caller does not
        digits, largest = size.lstrip("0"), str(sys.maxsize)
        if (len(digits), digits) > (len(largest), largest):
            raise ValueError(f"group size in '{family}:<{len(digits)} digits>' "
                             f"must be <= {largest}")
        k = int(digits or "0")
        if k < 1:
            raise ValueError(f"group size in {name_or_path!r} must be >= 1")
        return cyclic_group(k) if family == "cyclic" else trivial_group(k)
    path = Path(name_or_path)
    if path.is_file():
        return group_from_text(path.read_text())
    raise ValueError(
        f"unknown group {name_or_path!r}: not a builtin name and not a file")


def _bounded(group: PermGroup, max_order: int) -> PermGroup:
    """``group`` itself, or a ValueError if the census bound refuses it."""
    if group.order > max_order:
        raise ValueError(f"group order {group.order} exceeds "
                         f"subgroup-enumeration bound {max_order}")
    return group


def _table(rows: list[tuple], header: tuple, fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(str(c) for c in row) for row in rows]
        return "\n".join(lines) + "\n"
    cells = [tuple(str(c) for c in row) for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.rjust(widths[i]) for i, h in enumerate(header))]
    for row in cells:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    return "\n".join(lines) + "\n"


def _write_lines(lines: Iterable[str]) -> None:
    """Write each of ``lines`` and a newline to stdout, a block at a time."""
    lines = iter(lines)
    while block := list(itertools.islice(lines, WRITE_BLOCK_LINES)):
        sys.stdout.write("\n".join(block) + "\n")


def _blocks_text(system: tuple[frozenset, ...]) -> str:
    return " ".join("{" + ",".join(str(x) for x in sorted(b)) + "}"
                    for b in system)


# -- subcommand implementations ----------------------------------------------

def _cmd_fixes(args, max_order) -> int:
    from .stabilizers import fixes
    from .trees import parse_tree
    group = load_group(args.group)
    perm = parse_permutation(args.perm, group.degree)
    tau = parse_tree(args.tree)
    print("true" if fixes(perm, tau) else "false")
    return 0


def _cmd_stabilizer(args, max_order) -> int:
    from .stabilizers import stabilizer
    from .trees import parse_tree
    group = load_group(args.group)
    tau = parse_tree(args.tree)
    result = stabilizer(group, tau)
    print("generators:", " ".join(p.cycle_string() for p in result.generators))
    print("order:", result.order)
    print("orbit-size:", group.order // result.order)
    return 0


def _cmd_fixed_trees(args, max_order) -> int:
    from .fixed_trees import generate_fixed_trees
    group = _bounded(load_group(args.group), max_order)
    if args.count_only:
        print(sum(1 for _ in generate_fixed_trees(group)))
        return 0
    texts: dict[int, tuple] = {}  # id(root child) -> (root child, its text)

    def text(tree) -> str:  # trees share root children: each is written once
        for c in tree.children:
            if id(c) not in texts:  # the entry keeps c, so its id stays c's
                texts[id(c)] = (c, c.to_text())
        return ("(" + ",".join([texts[id(c)][1] for c in tree.children]) + ")"
                if tree.children else tree.to_text())  # children are in order

    _write_lines(sorted(map(text, generate_fixed_trees(group))))
    return 0


def _cmd_series(args, max_order) -> int:
    from .series import fixed_tree_series
    group = load_group(args.group)
    if args.order < 1:
        raise ValueError("order must be >= 1")
    if group.order > 1:
        _bounded(group, max_order)
    counts = fixed_tree_series(group, args.order)
    if args.egf:
        from fractions import Fraction
    rows = []
    for n in range(1, args.order + 1):
        row = (n, n * group.order, counts[n])
        if args.egf:
            row += (Fraction(counts[n], math.factorial(n)),)
        rows.append(row)
    header = ("n", "leaves", "count") + (("egf",) if args.egf else ())
    sys.stdout.write(_table(rows, header, args.format))
    return 0


def _cmd_pathways(args, max_order) -> int:
    from .pathways import pathway_probabilities, pathway_size_distribution
    group = _bounded(load_group(args.group), max_order)
    dist = pathway_size_distribution(group)
    probs = pathway_probabilities(dist)
    rows = [(m, n, probs[m]) for m, n in sorted(dist.per_divisor.items()) if n]
    sys.stdout.write(_table(rows, ("m", "pathways", "probability"), args.format))
    return 0


def _cmd_icosa_report(args, max_order) -> int:
    from .lattice import build_lattice
    from .pathways import format_distribution, pathway_size_distribution
    if args.T < 1:
        raise ValueError("T must be >= 1")
    group = _bounded(icosahedral_group(), max_order)
    if args.T != 1:
        print("warning: no published reference values exist for T != 1",
              file=sys.stderr)
        group = replicated_action(group, args.T)
    sys.stdout.write(format_distribution(pathway_size_distribution(group)))
    print()
    print("mobius matrix (CSV):")
    sys.stdout.write(build_lattice(group).to_csv())
    return 0


def _cmd_blocks(args, max_order) -> int:
    from .fixed_trees import enumerate_block_systems
    group = _bounded(load_group(args.group), max_order)
    systems = enumerate_block_systems(group)
    if args.format == "csv":
        rows = [(i + 1, len(s), _blocks_text(s).replace(" ", "|"))
                for i, s in enumerate(systems)]
        sys.stdout.write(_table(rows, ("system", "block_count", "blocks"), "csv"))
    else:
        for s in systems:
            print(_blocks_text(s))
    return 0


def _cmd_mobius(args, max_order) -> int:
    from .lattice import build_lattice
    group = _bounded(load_group(args.group), max_order)
    sys.stdout.write(build_lattice(group).to_csv())
    return 0


def _cmd_enumerate_trees(args, max_order) -> int:
    from .trees import enumerate_all_trees
    if (args.n is None) == (args.labels is None):
        raise ValueError("give exactly one of --n and --labels")
    if args.n is not None:
        labels = range(1, args.n + 1)
    else:
        words = args.labels.split(",")
        if not all(map(str.isdecimal, words)):
            raise ValueError(f"malformed label list {args.labels!r}")
        labels = list(map(int, words))
        if len(set(labels)) < len(labels):
            raise ValueError(f"repeated label in label list {args.labels!r}")
    stream = enumerate_all_trees(labels)
    if args.count_only:
        print(sum(1 for _ in stream))
    else:
        _write_lines(tree.to_text() for tree in stream)
    return 0


# -- argument parsing ----------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capsid",
        description="Exact assembly-pathway enumeration for groups acting "
                    "simply on a finite set.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    def group_arg(p):
        p.add_argument("--group", required=True,
                       help="builtin name (klein4, icosahedral, cyclic:k, "
                            "trivial:n) or path to a group file "
                            "('degree N' line, then one generator per line)")

    def format_arg(p):
        p.add_argument("--format", choices=("plain", "csv"), default="plain")

    p = add("fixes", _cmd_fixes, "does a permutation fix an assembly tree")
    group_arg(p)
    p.add_argument("--perm", required=True, help="permutation in cycle notation")
    p.add_argument("--tree", required=True, help="tree text, e.g. ((1,2),3,4)")

    p = add("stabilizer", _cmd_stabilizer, "stabilizer of a tree in a group")
    group_arg(p)
    p.add_argument("--tree", required=True, help="tree text, e.g. ((1,2),3,4)")

    p = add("fixed-trees", _cmd_fixed_trees,
            "all trees fixed by the whole group")
    group_arg(p)
    p.add_argument("--count-only", action="store_true")

    p = add("series", _cmd_series, "fixed-tree counts from the generating function")
    group_arg(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--egf", action="store_true",
                   help="also print the raw rational EGF coefficients")
    format_arg(p)

    p = add("pathways", _cmd_pathways, "pathway-size distribution and probabilities")
    group_arg(p)
    format_arg(p)

    p = add("icosa-report", _cmd_icosa_report,
            "end-to-end icosahedral report plus the Moebius matrix")
    p.add_argument("--T", type=int, default=1,
                   help="number of orbits (60T facets); only T=1 has "
                        "reference values")

    p = add("blocks", _cmd_blocks, "compatible block systems of a simple action")
    group_arg(p)
    format_arg(p)

    p = add("mobius", _cmd_mobius, "Moebius matrix of the subgroup lattice as CSV")
    group_arg(p)

    p = add("enumerate-trees", _cmd_enumerate_trees,
            "brute-force stream of all assembly trees")
    p.add_argument("--n", type=int, help="use labels 1..n")
    p.add_argument("--labels", help="comma-separated labels, e.g. 2,5,7")
    p.add_argument("--count-only", action="store_true")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    env = os.environ.get("CAPSID_MAX_GROUP_ORDER")
    try:
        max_order = DEFAULT_MAX_GROUP_ORDER if env is None else int(env)
    except ValueError:
        print(f"error: CAPSID_MAX_GROUP_ORDER must be an integer, got {env!r}",
              file=sys.stderr)
        return 1
    # counts pass Python's default 4,300-digit int-to-str cap by T = 24;
    # lift it for the run and put it back after
    digit_cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args, max_order)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`); point it at devnull so
        # the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # e.g. a group or series order so large that its first list cannot
        # be allocated; that list was never made, so printing still works
        print("error: out of memory: the input is too large to compute",
              file=sys.stderr)
        return 1
    finally:
        if digit_cap is not None:
            sys.set_int_max_str_digits(digit_cap)


if __name__ == "__main__":
    sys.exit(main())
