"""Exact enumeration of symmetry classes of assembly pathways.

For a finite permutation group acting simply on a finite set, this package
builds and counts the rooted leaf-labeled trees (assembly trees) fixed by
subgroups, computes stabilizers of given trees, and derives the
distribution of pathway (orbit) sizes and probabilities, all exactly: the
counts are arbitrary-precision integers and the probabilities fractions.

Importing the package loads no submodule.  Each export below is looked up
in its submodule the first time it is read, so a process pays only for
the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# every export and the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("BlockSystem", "FixedTreeDiagnostics", "FixedTreeRecipe",
                     "construction_recipes", "enumerate_block_systems",
                     "generate_fixed_trees"),
                    "fixed_trees"),
    **dict.fromkeys(("SubgroupLattice", "build_lattice"), "lattice"),
    **dict.fromkeys(("PathwayDistribution", "SubgroupClassRow",
                     "format_distribution", "pathway_probabilities",
                     "pathway_size_distribution", "tbar"), "pathways"),
    **dict.fromkeys(("PermGroup", "Permutation", "SubgroupClass",
                     "close_generators", "cyclic_group", "group_from_text",
                     "icosahedral_group", "klein_group", "parse_permutation",
                     "replicated_action", "trivial_group"), "perms"),
    **dict.fromkeys(("base_tree_series", "fixed_tree_count",
                     "fixed_tree_series"), "series"),
    **dict.fromkeys(("StabilizerResult", "TraversalAudit", "TreePointerView",
                     "fixes", "locate_image", "pointer_traversal_audit",
                     "pointer_view", "stabilizer"), "stabilizers"),
    **dict.fromkeys(("AssemblyTree", "act", "enumerate_all_trees",
                     "parse_tree", "set_partitions"), "trees"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # PEP 562: called only for names not yet in the module's globals
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
