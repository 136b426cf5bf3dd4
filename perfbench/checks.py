"""Output checks for the CLI commands of the workloads.

Each command's stdout is compared with a sha256 pinned from a known-good
commit, because the CLI output must stay byte-identical.  On top of that,
exact identities are checked with the independent code in ``inputs``:
tree totals against the A_n recurrence, probabilities summing to one, and
listed fixed trees being distinct and fixed by the group's generators.
Only stdout is checked; stderr carries warnings (T != 1).
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import inputs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _lines(out: bytes) -> list[str]:
    return out.decode().splitlines()


def check_report(out: bytes, _arg) -> list[str]:
    """``icosa-report``: total trees = sum m*N(m) = A_leaves, and the pathway
    probabilities sum to one."""
    lines = _lines(out)
    fields = dict(line.split(": ", 1) for line in lines if ": " in line)
    leaves = int(fields["leaves"])
    total = int(fields["total trees"])
    weighted = int(fields["sum of m * N(m)"])
    problems = []
    expected = inputs.tree_count(leaves)
    if not total == weighted == expected:
        problems.append(f"total trees {total}, sum m*N(m) {weighted}, "
                        f"A_{leaves} = {expected}")
    start = lines.index("pathway sizes (m, N(m), probability of each):") + 1
    end = lines.index("", start)
    return problems + _probability_problems(_rows(lines[start:end]), leaves)


def check_pathways(out: bytes, leaves: int) -> list[str]:
    """``pathways`` table: sum N(m)*p(m) = 1 and every p(m) = m / A_leaves."""
    return _probability_problems(_rows(_lines(out)[1:]), leaves)


def _rows(lines: list[str]) -> list[tuple[int, int, Fraction]]:
    """(m, N(m), p(m)) from lines of three columns."""
    rows = []
    for line in lines:
        m, n, p = line.split()
        rows.append((int(m), int(n), Fraction(p)))
    return rows


def _probability_problems(rows, leaves: int) -> list[str]:
    problems = []
    if not rows:
        return ["no pathway rows"]
    if sum(n * p for _, n, p in rows) != 1:
        problems.append("sum N(m)*p(m) != 1")
    total = inputs.tree_count(leaves)
    if any(p != Fraction(m, total) for m, _, p in rows):
        problems.append(f"a probability is not m / A_{leaves}")
    return problems


def check_fixed_trees(out: bytes, expected: tuple[int, str]) -> list[str]:
    """``fixed-trees`` listing: the pinned number of distinct trees, each on
    all the group's points and fixed by each generator of the group file."""
    count, group_text = expected
    texts = _lines(out)
    problems = []
    if len(texts) != count:
        problems.append(f"{len(texts)} trees listed, expected {count}")
    if len(set(texts)) != len(texts):
        problems.append("repeated trees in the listing")
    gens = inputs.group_generators(group_text)
    degree = len(gens[0])
    points = list(range(1, degree + 1))
    for text in texts:
        tree = inputs.parse_text(text)
        if sorted(inputs.leaves(tree)) != points:
            problems.append(f"tree {text} is not on 1..{degree}")
            break
        base = inputs.canonical(tree)
        if any(inputs.canonical(tree, g) != base for g in gens):
            problems.append(f"tree {text} is not fixed by the group")
            break
    return problems


def check_count(out: bytes, leaves: int) -> list[str]:
    """``enumerate-trees --count-only``: the count is A_leaves."""
    got = out.decode().strip()
    expected = inputs.tree_count(leaves)
    return [] if got == str(expected) else [f"count {got}, expected {expected}"]


# sha256 of each command's stdout, pinned from a known-good commit.
PINNED = {
    "icosa_t7": "876d101022ee555dc6ab7ebc8c011496d5d23c9148d40ec58a816c250ebbaa68",
    "pathways_s5": "c519ee3bfd63cf75ea8dab4943b6869659fb208787d99094a23b67a195a10a1b",
    "fixed_klein4_x3": "94d0644a5c49bdc59ab22c9ec3015f6a3e9acff90a5e45b25b7037b6f1b74015",
    "fixed_cyclic6_x3": "e3f189cb771d4128e57c02f8206e5aa0f4d44a153f4631b1a5593517f8b3c165",
    "fixed_icosahedral": "1db057abfa083fbc570d58031ef36946a97449d29dd8182cce898927dbeddf89",
    "enumerate_7": "2e99b739a1e4f4ee431f2c5ba2fa1e1af4611fc9b7e2b3e4585cc222f8746deb",
    # smoke sizes
    "icosa_t2": "f39ca9d32edbd19c79d1ee8719dc81fd27a5137d3220fd846b1895ca870eb104",
    "pathways_s4": "aeb9035b147f4ef1b9338fb654d3759b46dfdb90400199ddd6678c47767777aa",
    "fixed_klein4": "c137b20982172d607a99fb13a56d111b69ca74ded42295db2179ee5e354c358f",
    "fixed_cyclic6": "2a460854ab1d2cbce9a529d8c1b2dbf9043270390651a710ce33b8844cd6ee66",
    "enumerate_5": "3f0a822dd9f655aa4cd7540134c11e2193105e91174da4846220c02e133cbe5e",
}
