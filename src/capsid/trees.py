"""Assembly trees: rooted trees with leaves bijectively labeled by a finite
set of positive integers, every internal vertex having at least two children.

Each vertex is identified with the set of its descendant leaf labels.
Children are kept sorted by minimum leaf label, so two trees are equal
exactly when they are structurally identical, and the serialized text is a
canonical form.

The exhaustive enumerator in this module is the brute-force oracle that the
rest of the package is tested against.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional

from .perms import PermGroup, Permutation

ENUMERATION_SIZE_BOUND = 9


class AssemblyTree:
    """An immutable, canonicalized assembly tree.

    ``labels`` is the vertex label (the frozenset of descendant leaf labels);
    ``children`` is the canonically ordered tuple of subtrees, empty for a
    leaf.
    """

    __slots__ = ("labels", "children", "min_label", "_hash")

    def __init__(self, labels: frozenset, children: tuple, min_label: int,
                 _hash: int):
        # internal: use AssemblyTree.leaf / AssemblyTree.node
        self.labels = labels
        self.children = children
        self.min_label = min_label
        self._hash = _hash

    @classmethod
    def leaf(cls, label: int) -> "AssemblyTree":
        if label < 1:
            raise ValueError(f"leaf labels must be positive integers, got {label}")
        labels = frozenset((label,))
        return cls(labels, (), label, hash((labels, ())))

    @classmethod
    def node(cls, children: Iterable["AssemblyTree"]) -> "AssemblyTree":
        children = tuple(sorted(children, key=lambda c: c.min_label))
        if len(children) < 2:
            raise ValueError("an internal vertex needs at least two children")
        labels = frozenset(itertools.chain.from_iterable(c.labels for c in children))
        if len(labels) != sum(len(c.labels) for c in children):
            raise ValueError("children leaf sets overlap")
        return cls(labels, children, children[0].min_label,
                   hash((labels, children)))

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def leaf_label(self) -> int:
        if self.children:
            raise ValueError("not a leaf")
        return self.min_label

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, AssemblyTree) or self._hash != other._hash:
            return False
        return self.labels == other.labels and self.children == other.children

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"AssemblyTree({self.to_text()})"

    def to_text(self) -> str:
        """Canonical serialization, e.g. ``((1,2),3,4)``; a bare integer for
        a single-leaf tree."""
        if self.is_leaf:
            return str(self.min_label)
        return "(" + ",".join(c.to_text() for c in self.children) + ")"

    def vertices(self) -> Iterator["AssemblyTree"]:
        """All vertices (as subtrees), preorder."""
        yield self
        for c in self.children:
            yield from c.vertices()

    def internal_vertices(self) -> Iterator["AssemblyTree"]:
        return (v for v in self.vertices() if not v.is_leaf)

    def vertex_labels(self) -> set[frozenset]:
        return {v.labels for v in self.vertices()}

    def subtree_with_labels(self, labels: frozenset) -> Optional["AssemblyTree"]:
        """The vertex carrying exactly this label set, or None."""
        if self.labels == labels:
            return self
        for c in self.children:
            if labels <= c.labels:
                return c.subtree_with_labels(labels)
        return None

    def leaf_count(self) -> int:
        return len(self.labels)


def parse_tree(text: str) -> AssemblyTree:
    """Parse the nested-parenthesis tree format, e.g. ``((1,2),3,4)``.

    Every internal node needs at least two children and leaf labels must be
    distinct positive integers.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty tree text")
    tree, pos = _parse_node(s, 0)
    if pos != len(s):
        raise ValueError(f"trailing characters after tree: {s[pos:]!r}")
    return tree


def _parse_node(s: str, pos: int) -> tuple[AssemblyTree, int]:
    if pos >= len(s):
        raise ValueError("unexpected end of tree text")
    if s[pos] == "(":
        pos += 1
        children = []
        while True:
            child, pos = _parse_node(s, pos)
            children.append(child)
            if pos >= len(s):
                raise ValueError("unbalanced parentheses in tree text")
            if s[pos] == ",":
                pos += 1
                continue
            if s[pos] == ")":
                pos += 1
                break
            raise ValueError(f"unexpected character {s[pos]!r} in tree text")
        if len(children) < 2:
            raise ValueError("internal vertex with a single child")
        try:
            return AssemblyTree.node(children), pos
        except ValueError as exc:
            raise ValueError(f"invalid tree: {exc}") from None
    start = pos
    while pos < len(s) and s[pos].isdigit():
        pos += 1
    if pos == start:
        raise ValueError(f"expected a leaf label at position {start} of {s!r}")
    return AssemblyTree.leaf(int(s[start:pos])), pos


def act(g: Permutation, tau: AssemblyTree) -> AssemblyTree:
    """The tree whose vertex labels are the g-images of tau's vertex labels."""
    if g.degree < max(tau.labels):
        raise ValueError("permutation degree does not cover the leaf labels")
    return _act(g, tau)


def _act(g: Permutation, tau: AssemblyTree) -> AssemblyTree:
    if tau.is_leaf:
        return AssemblyTree.leaf(g(tau.min_label))
    return AssemblyTree.node(_act(g, c) for c in tau.children)


def enumerate_all_trees(labels: Iterable[int],
                        max_size: int = ENUMERATION_SIZE_BOUND
                        ) -> Iterator[AssemblyTree]:
    """Every assembly tree on the given label set, exactly once.

    The stream is deterministic: root partitions are generated in a fixed
    lexicographic block order and subtrees recurse the same way.  Sizes are
    capped (default 9, the oracle scale) because the count grows like
    1, 1, 4, 26, 236, 2752, ...
    """
    labels = tuple(sorted(set(labels)))
    if not labels:
        raise ValueError("label set must be nonempty")
    if labels[0] < 1:
        raise ValueError("leaf labels must be positive integers")
    if len(labels) > max_size:
        raise ValueError(
            f"label set of size {len(labels)} exceeds the enumeration bound {max_size}")
    # memoize full subtree lists for small blocks; they recur across partitions
    memo: dict[tuple, tuple] = {}
    yield from _trees(labels, memo)


_MEMO_MAX_BLOCK = 6


def _trees(labels: tuple, memo: dict) -> Iterator[AssemblyTree]:
    if len(labels) == 1:
        yield AssemblyTree.leaf(labels[0])
        return
    if len(labels) <= _MEMO_MAX_BLOCK:
        cached = memo.get(labels)
        if cached is None:
            cached = tuple(_trees_uncached(labels, memo))
            memo[labels] = cached
        yield from cached
        return
    yield from _trees_uncached(labels, memo)


def _trees_uncached(labels: tuple, memo: dict) -> Iterator[AssemblyTree]:
    for blocks in set_partitions(labels, min_parts=2):
        yield from _combine(blocks, 0, [], memo)


def _combine(blocks, i, acc, memo) -> Iterator[AssemblyTree]:
    if i == len(blocks):
        yield AssemblyTree.node(acc)
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
            remaining = tuple(x for x in rest if x not in set(mates))
            if remaining:
                for sub in set_partitions(remaining, min_parts - 1):
                    yield (block,) + sub
            elif min_parts <= 1:
                yield (block,)


def orbit_of_tree(group: PermGroup, tau: AssemblyTree) -> set[AssemblyTree]:
    """The orbit {g(tau) : g in the group} as a set."""
    return {act(g, tau) for g in group.elements}


# -- pointer data structure ---------------------------------------------------

class PointerVertex:
    """A vertex of a :class:`TreePointerView`.

    Carries child pointers, a parent pointer, and (for leaves) the g-pointer;
    labels are not stored except at the leaves.  Every pointer has a traversal
    counter, incremented by the ``child`` / ``follow_parent`` / ``follow_g``
    accessors.
    """

    __slots__ = ("children", "child_counts", "parent", "parent_count",
                 "leaf_label", "g_target", "g_count")

    def __init__(self, leaf_label: Optional[int] = None):
        self.children: tuple["PointerVertex", ...] = ()
        self.child_counts: list[int] = []
        self.parent: Optional["PointerVertex"] = None
        self.parent_count = 0
        self.leaf_label = leaf_label
        self.g_target: Optional["PointerVertex"] = None
        self.g_count = 0

    @property
    def is_leaf(self) -> bool:
        return self.leaf_label is not None

    def child(self, i: int) -> "PointerVertex":
        self.child_counts[i] += 1
        return self.children[i]

    def follow_parent(self) -> Optional["PointerVertex"]:
        self.parent_count += 1
        return self.parent

    def follow_g(self) -> Optional["PointerVertex"]:
        self.g_count += 1
        return self.g_target


class TreePointerView:
    """The pointer structure for one (tree, permutation) pair: child and
    parent pointers for every vertex, and a g-pointer at each leaf pointing
    at the leaf labeled g(u).

    Traversal counters make a view single-use and single-threaded; build one
    view per run.
    """

    def __init__(self, tau: AssemblyTree, g: Permutation):
        if g.degree < max(tau.labels):
            raise ValueError("permutation degree does not cover the leaf labels")
        self.tree = tau
        self.permutation = g
        self.leaves: dict[int, PointerVertex] = {}
        self.root = self._build(tau)
        for label, leaf in self.leaves.items():
            leaf.g_target = self.leaves.get(g(label))

    def _build(self, node: AssemblyTree) -> PointerVertex:
        if node.is_leaf:
            v = PointerVertex(leaf_label=node.leaf_label)
            self.leaves[node.leaf_label] = v
            return v
        v = PointerVertex()
        kids = tuple(self._build(c) for c in node.children)
        v.children = kids
        v.child_counts = [0] * len(kids)
        for k in kids:
            k.parent = v
        return v

    def vertices(self) -> Iterator[PointerVertex]:
        stack = [self.root]
        while stack:
            v = stack.pop()
            yield v
            stack.extend(reversed(v.children))


def pointer_view(tau: AssemblyTree, g: Permutation) -> TreePointerView:
    return TreePointerView(tau, g)
