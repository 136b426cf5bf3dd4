"""Deciding whether a permutation fixes an assembly tree, and computing the
stabilizer of a tree inside a group.

The pointer structure, ``TreePointerView``, is defined here with the
routines that walk it: its vertices are postorder integers, its pointers
and traversal counters are flat lists, and each leaf label is kept once,
in its leaf map.  The image-location routine works bottom-up on it: one
loop over a subtree's postorder range visits every vertex after its
children.  A leaf follows its g-pointer; an internal vertex
succeeds when its children's images share a common parent with as many
children, which is then its own image.  Each pointer is followed at most
once, so one run costs linear time in the number of leaves and needs no
recursion; the traversal audit makes that checkable.  A view is built one
way, and ``aim`` points it in place at a permutation: the constructor
calls it, and the stabilizer builds one view per call and re-aims it at
each element it tests.  It tests only the elements that send the least
leaf to a leaf whose root path has the same subtree sizes, found by one
walk down from the root; the closure of the fixers found is a set of image
tuples grown in place.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .perms import PermGroup, Permutation, _close_images
from .trees import AssemblyTree


class TreePointerView:
    """The pointer structure for one (tree, permutation) pair, as flat lists
    indexed by vertex.

    The shape, fixed when the view is built: vertices are numbered in
    postorder, so the root is last and the subtree at v is the range
    ``first[v]..v``; ``children[v]`` and ``parent[v]`` (None at the root)
    are the child and parent pointers; labels are kept once, in ``leaves``,
    which maps each leaf label to its vertex, and ``max_label`` is the
    largest of them.  The aim, set by ``aim(g)``, which the constructor
    calls and which re-points the view in place: the g-pointer
    ``g_target[v]`` of a leaf labeled u is the leaf labeled g(u), or None
    when g(u) is not a leaf (and at every internal vertex), and each pointer
    has a traversal counter: ``child_count[c]`` for the pointer from c's
    parent to c, ``parent_count[c]`` for c's parent pointer and
    ``g_count[v]`` for a leaf's g-pointer.  The counters make a view
    single-use and single-threaded; build or re-aim the view before each
    run.
    """

    def __init__(self, tau: AssemblyTree, g: Permutation):
        nodes = []
        stack = [tau]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.children)
        nodes.reverse()  # postorder: each subtree in order, then its root
        n = len(nodes)
        parent, first, children, leaves = [None] * n, list(range(n)), [], {}
        done = []  # the finished subtrees still without a parent, in order
        for v, node in enumerate(nodes):
            k = len(node.children)  # its children are the last k subtrees done
            if k == 2:  # a binary vertex, the common case: no slice
                b, a = done.pop(), done.pop()
                parent[a] = parent[b] = v
                first[v] = first[a]
                kids = [a, b]
            elif k:
                kids = done[-k:]
                del done[-k:]
                for c in kids:
                    parent[c] = v
                first[v] = first[kids[0]]
            else:
                kids = []
                leaves[node.min_label] = v
            children.append(kids)
            done.append(v)
        self.root, self.children, self.parent, self.first = n - 1, children, parent, first
        self.leaves, self.max_label = leaves, max(leaves)
        self.aim(g)

    def aim(self, g: Permutation) -> "TreePointerView":
        """Point this view's g-pointers at g and zero its counters, in
        place; returns the view."""
        if g.degree < self.max_label:
            raise ValueError("permutation degree does not cover the leaf labels")
        images, leaves, n = g.images, self.leaves, len(self.parent)
        g_target = [None] * n
        for label, v in leaves.items():
            g_target[v] = leaves.get(images[label - 1])
        self.g_target = g_target
        self.child_count = [0] * n
        self.parent_count = [0] * n
        self.g_count = [0] * n
        return self


pointer_view = TreePointerView


class StabilizerResult(NamedTuple):
    """Generating set found for the stabilizer, plus its closure."""
    generators: tuple[Permutation, ...]
    group: PermGroup

    @property
    def order(self) -> int:
        return self.group.order


class TraversalAudit(NamedTuple):
    """Pointer traversal counts after one image-location run."""
    leaf_count: int
    child_traversals: int
    parent_traversals: int
    g_traversals: int
    max_child: int
    max_parent: int
    max_g: int

    @property
    def each_pointer_at_most_once(self) -> bool:
        return max(self.max_child, self.max_parent, self.max_g) <= 1

    @property
    def total_traversals(self) -> int:
        return self.child_traversals + self.parent_traversals + self.g_traversals

    @property
    def linear_bound(self) -> int:
        # a view of n vertices has n - 1 child and n - 1 parent pointers and
        # one g pointer per leaf, and n <= 2*leaf_count - 1
        return 5 * self.leaf_count

    @property
    def ok(self) -> bool:
        return (self.each_pointer_at_most_once
                and self.total_traversals <= self.linear_bound)


def locate_image(view: TreePointerView, v: int) -> Optional[int]:
    """The vertex w such that the permutation maps the subtree at v
    isomorphically onto the subtree at w, or None if no such vertex exists.

    Walks the postorder range of v's subtree once.  A leaf's image is its
    g-pointer; an internal vertex follows each child pointer and then the
    parent pointer of that child's image, and succeeds exactly when those
    parents are one vertex with as many children, which is its image.
    """
    children, parent, g_target = view.children, view.parent, view.g_target
    child_count, parent_count, g_count = (view.child_count, view.parent_count,
                                          view.g_count)
    lo = view.first[v]
    image = []  # image[u - lo] for each vertex u of the range done so far
    for u in range(lo, v + 1):
        kids = children[u]
        if not kids:
            g_count[u] += 1
            w = g_target[u]
            if w is None:
                return None
        else:
            w = None
            for c in kids:
                child_count[c] += 1
                c_image = image[c - lo]
                p = parent[c_image]
                if p is None:
                    return None
                parent_count[c_image] += 1
                if w is None:
                    w = p
                elif p != w:
                    return None
            if len(children[w]) != len(kids):
                return None
        image.append(w)
    return image[-1]


def fixes(g: Permutation, tau: AssemblyTree) -> bool:
    """True iff g fixes tau, decided on the pointer structure."""
    view = TreePointerView(tau, g)
    return locate_image(view, view.root) == view.root


def pointer_traversal_audit(view: TreePointerView) -> TraversalAudit:
    """Counter report for a view after a locate_image run from the root.

    The root's child and parent counters and every internal vertex's
    g-counter stay 0, so whole-list sums and maxima are those of the
    pointers that exist.
    """
    return TraversalAudit(
        leaf_count=len(view.leaves),
        child_traversals=sum(view.child_count),
        parent_traversals=sum(view.parent_count),
        g_traversals=sum(view.g_count),
        max_child=max(view.child_count),
        max_parent=max(view.parent_count),
        max_g=max(view.g_count),
    )


def stabilizer(group: PermGroup, tau: AssemblyTree) -> StabilizerResult:
    """The stabilizer of tau in the group, as a found generating set plus its
    closure.

    Scans the group elements in increasing order, skipping those already in
    the closure of the fixing elements found so far and adding each other
    element that fixes tau, tested on one view built per call and re-aimed
    at each element.  A fixer maps the least leaf's root path onto its
    image's with equal subtree sizes, so only the elements that send the
    least leaf to a leaf found by one walk down those sizes from the root
    are tested, and the generators are those of the plain scan.  The closure
    starts as the identity's image tuple; each new generator grows it in
    place by right multiplication, and the group is built once.
    """
    try:
        view = TreePointerView(tau, group.identity)
    except ValueError:  # the view's degree check: a label exceeds the degree
        raise ValueError("leaf set mismatch: labels exceed the group degree") from None
    leaves = view.leaves
    # the group acts on the leaf set iff the leaf set is a union of orbits
    if sum(len(o) for o in group.orbits() if leaves.keys() >= set(o)) != len(leaves):
        raise ValueError("leaf set mismatch: the group does not act on the leaf set")

    root, parent, first, children = view.root, view.parent, view.first, view.children
    sizes, v = [], leaves[tau.min_label]  # vertex counts up the least leaf's path
    while v != root:
        sizes.append(v - first[v])
        v = parent[v]
    level = [root]  # the vertices whose root path has the sizes read so far
    for size in reversed(sizes):
        level = [c for u in level for c in children[u] if c - first[c] == size]
    candidates, m = set(level), tau.min_label - 1
    gens, closure = [group.identity], {group.identity.images}
    for g in [g for g in group.elements if leaves.get(g.images[m]) in candidates]:
        if g.images not in closure:
            if locate_image(view.aim(g), root) == root:
                gens.append(g)
                _close_images(closure, gens[1:])  # gens[0] is the identity
    index = group._elem_index()
    return StabilizerResult(tuple(gens), group._subgroup_from_indices(
        index[a] for a in closure))
