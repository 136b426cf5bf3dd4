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

import copy
import itertools
from typing import Iterable, Iterator, Optional

from .perms import Permutation

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


def enumerate_all_trees(labels: Iterable[int]) -> Iterator[AssemblyTree]:
    """Every assembly tree on the given label set, exactly once.

    The stream is deterministic: root partitions are generated in a fixed
    lexicographic block order and subtrees recurse the same way.  Sizes are
    capped at ENUMERATION_SIZE_BOUND (9, the oracle scale) because the count
    grows like 1, 1, 4, 26, 236, 2752, ...
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


# -- pointer data structure ---------------------------------------------------

class TreePointerView:
    """The pointer structure for one (tree, permutation) pair, as flat lists
    indexed by vertex.

    The shape, shared with every view that ``with_permutation`` makes from
    this one: vertices are numbered in postorder, so the root is last and
    the subtree at v is the range ``first[v]..v``; ``children[v]`` and
    ``parent[v]`` (None at the root) are the child and parent pointers;
    labels are stored only at the leaves (``leaf_label[v]``, None
    elsewhere), and ``leaves`` maps each label to its leaf.  The aim, each
    view's own: the g-pointer ``g_target[v]`` of a leaf labeled u is the
    leaf labeled g(u), or None when g(u) is not a leaf, and each pointer has
    a traversal counter: ``child_count[c]`` for the pointer from c's parent
    to c, ``parent_count[c]`` for c's parent pointer and ``g_count[v]`` for
    a leaf's g-pointer.  The counters make a view single-use and
    single-threaded; take a fresh view, built or re-aimed, for each run.
    """

    def __init__(self, tau: AssemblyTree, g: Permutation):
        nodes = []
        stack = [tau]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.children)
        nodes.reverse()  # postorder: each subtree in order, then its root
        index = {id(node): v for v, node in enumerate(nodes)}
        n = len(nodes)
        self.root = n - 1
        self.children = [[index[id(c)] for c in node.children] for node in nodes]
        self.parent: list[Optional[int]] = [None] * n
        self.first = list(range(n))
        for v, kids in enumerate(self.children):
            for c in kids:
                self.parent[c] = v
            if kids:
                self.first[v] = self.first[kids[0]]
        self.leaf_label = [None if node.children else node.min_label for node in nodes]
        self.leaves = {label: v for v, label in enumerate(self.leaf_label)
                       if label is not None}
        self._aim(g)

    def with_permutation(self, g: Permutation) -> "TreePointerView":
        """A fresh view of the same tree under g; this view is untouched."""
        return copy.copy(self)._aim(g)

    def _aim(self, g: Permutation) -> "TreePointerView":
        if g.degree < max(self.leaves):
            raise ValueError("permutation degree does not cover the leaf labels")
        images, leaves, n = g.images, self.leaves, len(self.parent)
        self.g_target = [None if label is None else leaves.get(images[label - 1])
                         for label in self.leaf_label]
        self.child_count = [0] * n
        self.parent_count = [0] * n
        self.g_count = [0] * n
        return self


def pointer_view(tau: AssemblyTree, g: Permutation) -> TreePointerView:
    return TreePointerView(tau, g)
