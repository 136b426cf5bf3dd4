"""Assembly trees: rooted trees with leaves bijectively labeled by a finite
set of positive integers, every internal vertex having at least two children.

The paper identifies each vertex with the set of its descendant leaf labels.
A tree here stores no such set: each vertex keeps its children and its
least leaf label, and nothing else is computed while a tree is built, so a
tree costs memory linear in its leaves; the leaf count is
``len(tau.labels)``.  Children are kept sorted by least leaf label and
labels are distinct, so the serialized text is a canonical form and is the
tree's identity: two trees are equal, and hash alike, exactly when their
texts are equal.

Leaf labels are checked to be distinct where input enters, once per tree
or per construction level, not at every vertex: ``parse_tree`` keeps one
set over the whole text, ``act`` maps through a validated bijection, the
enumerator checks each set partition, and the fixed-tree generator checks
that each seed's coset translates are disjoint.  Those build vertices
unchecked: through ``_node``, which sorts the children, or, in the
enumerator, as one choice of a tree per block of a root partition, whose
blocks already come in canonical order.  Apart from the enumerator, whose
depth the size bound caps, no function here recurses along a tree path, so
trees of any depth work.  ``parse_tree`` hands well-formed text to the C
JSON scanner, which nests only up to the interpreter's recursion limit;
deeper text goes to the token loop, which keeps an explicit stack.
Trees are immutable, so they may share subtrees and leaves: the
enumerator's memoized blocks and the fixed-tree generator's one leaf per
point are shared by every tree built from them.

The exhaustive enumerator in this module is the brute-force oracle that the
rest of the package is tested against.
"""

from __future__ import annotations

import itertools
import operator
import re
from typing import Iterable, Iterator

from .perms import Permutation

ENUMERATION_SIZE_BOUND = 9


class AssemblyTree:
    """An immutable, canonicalized assembly tree.

    ``children`` is the canonically ordered tuple of subtrees, empty for a
    leaf, and ``min_label`` is the least leaf label below the vertex; a
    vertex stores nothing else.  The vertex label, the set of descendant
    leaf labels, is ``labels``, which walks the subtree each time it is read.
    Equality and the hash read the canonical text, ``to_text``.
    """

    __slots__ = ("children", "min_label")

    def __init__(self, children: tuple, min_label: int):
        # internal: build trees with AssemblyTree.leaf and parse_tree
        self.children = children
        self.min_label = min_label

    @classmethod
    def leaf(cls, label: int) -> "AssemblyTree":
        if label < 1:
            raise ValueError(f"leaf labels must be positive integers, got {label}")
        return cls((), label)

    @property
    def labels(self) -> frozenset:
        """The set of leaf labels below this vertex."""
        found, stack = [], [self]
        while stack:
            v = stack.pop()
            if v.children:
                stack.extend(v.children)
            else:
                found.append(v.min_label)
        return frozenset(found)

    def __eq__(self, other) -> bool:
        return isinstance(other, AssemblyTree) and self.to_text() == other.to_text()

    def __hash__(self) -> int:
        return hash(self.to_text())

    def __repr__(self) -> str:
        return f"AssemblyTree({self.to_text()})"

    def to_text(self) -> str:
        """Canonical serialization, e.g. ``((1,2),3,4)``; a bare integer for
        a single-leaf tree."""
        out = []
        stack = [self]  # subtrees still to write, and the "," and ")" between
        while stack:
            v = stack.pop()
            if v.__class__ is str:
                out.append(v)
            elif v.children:
                out.append("(")
                stack.append(")")
                kids = v.children
                for c in kids[:0:-1]:
                    stack.append(c)
                    stack.append(",")
                stack.append(kids[0])
            else:
                out.append(str(v.min_label))
        return "".join(out)


_by_min_label = operator.attrgetter("min_label")


def _node(children) -> AssemblyTree:
    """The vertex over two or more children whose leaf sets the caller
    knows to be disjoint; nothing is checked."""
    children = tuple(sorted(children, key=_by_min_label))
    return AssemblyTree(children, children[0].min_label)


_TOKEN = re.compile(r"[(),]|[^(),]+")
_LEADING_DIGITS = re.compile(r"\d*")
_NESTED_LISTS = re.compile(r"[0-9(),]+")
_TO_BRACKETS = {40: 91, 41: 93}  # "(" -> "[", ")" -> "]"


def parse_tree(text: str) -> AssemblyTree:
    """Parse the nested-parenthesis tree format, e.g. ``((1,2),3,4)``.

    Every internal node needs at least two children and leaf labels must be
    distinct positive integers in decimal digits.  The first error met
    reading left to right is reported; a repeated label is met at its second
    copy.

    Text of digits, parentheses and commas only is read as nested lists by
    the C JSON scanner and built in one pass.  Every text that pass does
    not take goes to the token loop, ``_parse_tokens``, which reads it or
    reports its first error: text with any other character, a malformed or
    repeated label, a vertex with fewer than two children or a label past
    the int-conversion limit, and text nested deeper than the scanner's
    recursion limit (about 1,000 levels).
    """
    s = text.strip()
    if _NESTED_LISTS.fullmatch(s):
        tree = _parse_nested(s)
        if tree is not None:
            return tree
    return _parse_tokens(s)


def _parse_nested(s: str) -> AssemblyTree | None:
    """The tree that ``s``, read as JSON with brackets for parentheses,
    spells, or None wherever the token loop must decide."""
    import json  # only commands that read tree text pay for the import
    try:
        value = json.loads(s.translate(_TO_BRACKETS))
    except (ValueError, RecursionError):
        return None
    seen: set[int] = set()
    done = []  # finished subtrees, in the order the walk leaves them
    stack = [value]  # lists and labels to read, and -k for a k-child vertex
    while stack:
        v = stack.pop()
        if v.__class__ is list:
            if len(v) < 2:
                return None
            stack.append(-len(v))
            stack += v
        elif v == -2:  # a binary vertex, the common case: no sort
            b = done.pop()
            a = done[-1]
            if b.min_label < a.min_label:
                a, b = b, a
            done[-1] = AssemblyTree((a, b), a.min_label)
        elif v < 0:
            children = done[v:]
            del done[v:]
            done.append(_node(children))
        elif v < 1 or v in seen:
            return None
        else:
            seen.add(v)
            done.append(AssemblyTree((), v))
    return done[0]


def _parse_tokens(text: str) -> AssemblyTree:
    """``parse_tree`` by one token per parenthesis, comma and label, with
    the first error met reading left to right raised as a ValueError."""
    s = text.strip()
    if not s:
        raise ValueError("empty tree text")
    tokens = _TOKEN.findall(s)  # each delimiter, and the text between them
    open_children: list[list] = []  # the children read so far of each open vertex
    seen: set[int] = set()
    vertex = None  # the vertex just read; None while a vertex is expected
    for i, tok in enumerate(tokens):
        if vertex is None:
            if tok == "(":
                open_children.append([])
                continue
            label = tok if tok.isdecimal() else _LEADING_DIGITS.match(tok).group()
            if not label:
                raise ValueError(f"expected a leaf label at position "
                                 f"{_offset(tokens, i)} of {s!r}")
            try:
                value = int(label)
            except ValueError:  # over the interpreter's int-conversion limit
                raise ValueError(f"leaf label at position {_offset(tokens, i)} "
                                 f"is too long to read: {len(label)} digits") from None
            vertex = AssemblyTree.leaf(value)
            # a word that is not all digits: its leading digits are read as a
            # leaf, and the first character after them is the error
            if len(label) < len(tok):
                if open_children:
                    raise ValueError(f"unexpected character {tok[len(label)]!r} "
                                     f"in tree text")
                raise ValueError(f"trailing characters after tree: "
                                 f"{s[_offset(tokens, i) + len(label):]!r}")
            if vertex.min_label in seen:
                raise ValueError("invalid tree: children leaf sets overlap")
            seen.add(vertex.min_label)
        elif not open_children:
            raise ValueError(f"trailing characters after tree: "
                             f"{s[_offset(tokens, i):]!r}")
        elif tok == ",":
            open_children[-1].append(vertex)
            vertex = None
        elif tok == ")":
            children = open_children.pop()
            children.append(vertex)
            if len(children) < 2:
                raise ValueError("internal vertex with a single child")
            vertex = _node(children)
        else:
            raise ValueError(f"unexpected character {tok[0]!r} in tree text")
    if vertex is None:
        raise ValueError("unexpected end of tree text")
    if open_children:
        raise ValueError("unbalanced parentheses in tree text")
    return vertex


def _offset(tokens: list, i: int) -> int:
    return sum(map(len, tokens[:i]))


def act(g: Permutation, tau: AssemblyTree) -> AssemblyTree:
    """The tree whose vertex labels are the g-images of tau's vertex labels."""
    if g.degree < max(tau.labels):
        raise ValueError("permutation degree does not cover the leaf labels")
    return _act([None, *map(AssemblyTree.leaf, g.images)], tau)


def _act(leaf_of, tau: AssemblyTree) -> AssemblyTree:
    """The image of tau whose leaf labeled x is the object ``leaf_of[x]``,
    unchecked.  Image trees may share those leaves, since within one tree
    every label, so every leaf object, is distinct."""
    done = []  # finished image subtrees, in the order the walk leaves them
    stack = [tau]  # subtrees to map, and child counts of vertices to build
    while stack:
        v = stack.pop()
        if v.__class__ is int:
            children = done[-v:]
            del done[-v:]
            done.append(_node(children))
        elif v.children:
            stack.append(len(v.children))
            stack.extend(v.children)
        else:
            done.append(leaf_of[v.min_label])
    return done[0]


def enumerate_all_trees(labels: Iterable[int]) -> Iterator[AssemblyTree]:
    """Every assembly tree on the given label set, exactly once.

    The stream is deterministic: root partitions into two or more blocks
    come in ``set_partitions`` order, and for each one every choice of a
    tree per block, the first block's tree varying slowest; the trees on a
    block come in the same order.  Each root is built in one step from the
    blocks' memoized tree tuples; only a block too large for the memo, at
    8 or 9 labels, is streamed again for each choice of the others.  Sizes
    are capped at ENUMERATION_SIZE_BOUND (9, the oracle scale) because the
    count grows like 1, 1, 4, 26, 236, 2752, ...
    """
    labels = tuple(sorted(set(labels)))
    if not labels:
        raise ValueError("label set must be nonempty")
    if labels[0] < 1:
        raise ValueError("leaf labels must be positive integers")
    if len(labels) > ENUMERATION_SIZE_BOUND:
        raise ValueError(f"label set of size {len(labels)} exceeds the "
                         f"enumeration bound {ENUMERATION_SIZE_BOUND}")
    # memoize full subtree lists for small blocks; they recur across partitions
    memo: dict[tuple, tuple] = {}
    yield from _trees(labels, memo)


_MEMO_MAX_BLOCK = 6


def _trees(labels: tuple, memo: dict) -> Iterable[AssemblyTree]:
    """Every tree on ``labels``: a tuple kept in ``memo`` for blocks of up
    to _MEMO_MAX_BLOCK labels, leaves included, and a fresh stream above."""
    if len(labels) > _MEMO_MAX_BLOCK:
        return _trees_uncached(labels, memo)
    cached = memo.get(labels)
    if cached is None:
        if len(labels) == 1:
            cached = (AssemblyTree.leaf(labels[0]),)
        else:
            cached = tuple(_trees_uncached(labels, memo))
        memo[labels] = cached
    return cached


def _trees_uncached(labels: tuple, memo: dict) -> Iterator[AssemblyTree]:
    for blocks in set_partitions(labels, min_parts=2):
        # every tree below is built unchecked from one block per child
        if sorted(itertools.chain.from_iterable(blocks)) != list(labels):
            raise RuntimeError(f"{blocks} is not a set partition of {labels}")
        if max(map(len, blocks)) > _MEMO_MAX_BLOCK:
            # one block too large for the memo (8 or 9 labels only): stream
            # its trees again for each choice of the other blocks' trees
            yield from _combine(blocks, 0, [], memo)
            continue
        # blocks come ordered by least label, so each choice of one tree per
        # block is already in canonical child order
        yield from map(AssemblyTree,
                       itertools.product(*[_trees(b, memo) for b in blocks]),
                       itertools.repeat(labels[0]))


def _combine(blocks, i, acc, memo) -> Iterator[AssemblyTree]:
    if i == len(blocks):
        yield _node(acc)
        return
    for sub in _trees(blocks[i], memo):
        acc.append(sub)
        yield from _combine(blocks, i + 1, acc, memo)
        acc.pop()


def set_partitions(items: tuple, min_parts: int = 1) -> Iterator[tuple]:
    """Set partitions of ``items`` into at least ``min_parts`` blocks.

    Blocks come out ordered by their minimum element; the stream order is
    deterministic (the first block's mates are chosen in lexicographic
    combination order).
    """
    items = tuple(items)
    if not items:
        if min_parts <= 0:
            yield ()
        return
    first, rest = items[0], items[1:]
    for r in range(len(rest) + 1):
        for mates in itertools.combinations(rest, r):
            block = (first,) + mates
            remaining = tuple(x for x in rest if x not in mates)
            if remaining:
                for sub in set_partitions(remaining, min_parts - 1):
                    yield (block,) + sub
            elif min_parts <= 1:
                yield (block,)
