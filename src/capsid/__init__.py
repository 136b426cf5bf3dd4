"""Exact enumeration of symmetry classes of assembly pathways.

For a finite permutation group acting simply on a finite set, this package
builds and counts the rooted leaf-labeled trees (assembly trees) fixed by
subgroups, computes stabilizers of given trees, and derives the exact
distribution of pathway (orbit) sizes and probabilities, all in arbitrary-
precision rational arithmetic.
"""

from .fixed_trees import (BlockSystem, FixedTreeDiagnostics, FixedTreeRecipe,
                          construction_recipes, count_fixed_trees_direct,
                          enumerate_block_systems, generate_fixed_trees)
from .lattice import SubgroupLattice, build_lattice
from .pathways import (PathwayDistribution, SubgroupClassRow,
                       format_distribution, pathway_probabilities,
                       pathway_size_distribution, tbar)
from .perms import (PermGroup, Permutation, SubgroupClass, builtin_group,
                    close_generators, cyclic_group, group_from_text,
                    icosahedral_group, klein_group, parse_permutation,
                    replicated_action, trivial_group)
from .series import base_tree_series, fixed_tree_count, fixed_tree_series
from .stabilizers import (StabilizerResult, TraversalAudit, fixes,
                          locate_image, pointer_traversal_audit, stabilizer)
from .trees import (AssemblyTree, TreePointerView, act, enumerate_all_trees,
                    parse_tree, pointer_view, set_partitions)

__version__ = "0.1.0"
