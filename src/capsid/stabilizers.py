"""Deciding whether a permutation fixes an assembly tree, and computing the
stabilizer of a tree inside a group.

The image-location routine works bottom-up on the pointer structure, whose
vertices are postorder integers and whose pointers and traversal counters
are flat lists: one loop over a subtree's postorder range visits every
vertex after its children.  A leaf follows its g-pointer; an internal vertex
succeeds when its children's images share a common parent with as many
children, which is then its own image.  Each pointer is followed at most
once, so one run costs linear time in the number of leaves and needs no
recursion; the traversal audit makes that checkable.  The stabilizer
builds one pointer structure per call, re-aims it at each element it
tests, and tests only elements that pass the ancestor-size test below; the
closure of the fixers found is a set of image tuples grown in place.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .perms import PermGroup, Permutation, _close_images
from .trees import AssemblyTree, TreePointerView, pointer_view


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
    view = pointer_view(tau, g)
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
    element that fixes tau, tested on a view re-aimed from one shape built
    per call.  Elements failing the ancestor-size test (a fixer maps the
    smallest leaf's root path onto its image's with equal subtree sizes)
    are skipped untested, so the generators are those of the plain scan.
    The closure starts as the identity's image tuple; each new generator
    grows it in place by right multiplication, and the group is built once.
    """
    try:
        base = TreePointerView(tau, group.identity)
    except ValueError:  # the view's degree check: a label exceeds the degree
        raise ValueError("leaf set mismatch: labels exceed the group degree") from None
    leaves = base.leaves
    # the group acts on the leaf set iff the leaf set is a union of orbits
    if sum(len(o) for o in group.orbits() if leaves.keys() >= set(o)) != len(leaves):
        raise ValueError("leaf set mismatch: the group does not act on the leaf set")

    parent, first = base.parent, base.first
    chain, chains = [0] * len(parent), {}  # chain[v] numbers the sizes along root..v
    for v in reversed(range(base.root)):  # parents before children
        chain[v] = chains.setdefault((chain[parent[v]], v - first[v]), len(chains) + 1)
    key = chain[leaves[tau.min_label]]
    candidates = {label for label, v in leaves.items() if chain[v] == key}
    gens, closure = [group.identity], {group.identity.images}
    for g in group.elements:
        if g.images[tau.min_label - 1] in candidates and g.images not in closure:
            view = base.with_permutation(g)
            if locate_image(view, view.root) == view.root:
                gens.append(g)
                _close_images(closure, gens[1:])  # gens[0] is the identity
    index = group._elem_index()
    return StabilizerResult(tuple(gens), group._subgroup_from_indices(
        index[a] for a in closure))
