"""Deciding whether a permutation fixes an assembly tree, and computing the
stabilizer of a tree inside a group.

The image-location routine works bottom-up on the pointer structure, in
place: a leaf follows its g-pointer; an internal vertex succeeds when its
children's images share a common parent, which is then its own image.  Each
pointer is followed at most once, so one run costs linear time in the number
of leaves; the traversal audit makes that checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .perms import PermGroup, Permutation, close_generators
from .trees import AssemblyTree, PointerVertex, TreePointerView, pointer_view


@dataclass(frozen=True)
class StabilizerResult:
    """Generating set found for the stabilizer, plus its closure."""
    generators: tuple[Permutation, ...]
    group: PermGroup

    @property
    def order(self) -> int:
        return self.group.order


@dataclass(frozen=True)
class TraversalAudit:
    """Pointer traversal counts after one image-location run."""
    leaf_count: int
    vertex_count: int
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
        # child and parent pointers number vertex_count - 1 each, g pointers
        # one per leaf; vertex_count <= 2*leaf_count - 1
        return 5 * self.leaf_count

    @property
    def ok(self) -> bool:
        return (self.each_pointer_at_most_once
                and self.total_traversals <= self.linear_bound)


def locate_image(view: TreePointerView, v: PointerVertex) -> Optional[PointerVertex]:
    """The vertex w such that the permutation maps the subtree at v
    isomorphically onto the subtree at w, or None if no such vertex exists.

    Leaves follow their g-pointer; an internal vertex succeeds exactly when
    all of its children's images share one parent, which is returned.
    """
    if v.is_leaf:
        return v.follow_g()
    w = None
    for i in range(len(v.children)):
        child = v.child(i)
        image = locate_image(view, child)
        if image is None or image.parent is None:
            return None
        parent = image.follow_parent()
        if w is None:
            w = parent
        elif parent is not w:
            return None
    return w


def fixes(g: Permutation, tau: AssemblyTree) -> bool:
    """True iff g fixes tau, decided on the pointer structure."""
    view = pointer_view(tau, g)
    return locate_image(view, view.root) is view.root


def pointer_traversal_audit(view: TreePointerView) -> TraversalAudit:
    """Counter report for a view after a locate_image run from the root."""
    child_counts: list[int] = []
    parent_counts: list[int] = []
    g_counts: list[int] = []
    leaf_count = 0
    vertex_count = 0
    for v in view.vertices():
        vertex_count += 1
        child_counts.extend(v.child_counts)
        if v.parent is not None:
            parent_counts.append(v.parent_count)
        if v.is_leaf:
            leaf_count += 1
            g_counts.append(v.g_count)
    return TraversalAudit(
        leaf_count=leaf_count,
        vertex_count=vertex_count,
        child_traversals=sum(child_counts),
        parent_traversals=sum(parent_counts),
        g_traversals=sum(g_counts),
        max_child=max(child_counts, default=0),
        max_parent=max(parent_counts, default=0),
        max_g=max(g_counts, default=0),
    )


def stabilizer(group: PermGroup, tau: AssemblyTree) -> StabilizerResult:
    """The stabilizer of tau in the group, as a found generating set plus its
    closure.

    Scans the group elements in increasing order, skipping those already in
    the closure of the fixing elements found so far and adding each other
    element that fixes tau; the skipped closure makes the scan touch far
    fewer trees than |G| when the stabilizer is large.
    """
    leaf_set = tau.labels
    if max(leaf_set) > group.degree:
        raise ValueError("leaf set mismatch: labels exceed the group degree")
    for g in group.generators:
        if any(g(x) not in leaf_set for x in leaf_set):
            raise ValueError("leaf set mismatch: the group does not act on the leaf set")

    gens: list[Permutation] = [group.identity]
    closure = close_generators(gens, group.degree)
    for g in group.elements:
        if g not in closure and fixes(g, tau):
            gens.append(g)
            closure = close_generators(gens, group.degree)
    return StabilizerResult(tuple(gens), closure)
