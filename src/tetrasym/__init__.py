"""tetrasym: generators and verifiers for four families of tetravalent
arc-transitive graphs with large vertex-stabilisers."""

from tetrasym.cosetgraph import (Graph, GroupIface, VertexAction,
                                 build_coset_graph, sphere,
                                 validate_corefree)
from tetrasym.extragrp import EVec, ExtensionGroup, GElt, extension_group
from tetrasym.families import (FamilySpec, build_family, delta, gamma,
                               praeger_xu_coset, praeger_xu_direct,
                               wreath_graph)
from tetrasym.graphalg import (automorphism_group_order, girth, is_bipartite,
                               is_block, isomorphic, local_group,
                               quotient_by_subgroup_orbits,
                               verify_arc_transitive)
from tetrasym.permgrp import Permutation, PermGroup

__version__ = "0.1.0"

__all__ = [
    "Permutation", "PermGroup",
    "EVec", "GElt", "ExtensionGroup", "extension_group",
    "Graph", "GroupIface", "VertexAction", "build_coset_graph", "sphere",
    "validate_corefree",
    "FamilySpec", "build_family", "wreath_graph", "praeger_xu_direct",
    "praeger_xu_coset", "gamma", "delta",
    "girth", "is_bipartite", "isomorphic", "automorphism_group_order",
    "local_group", "is_block", "quotient_by_subgroup_orbits",
    "verify_arc_transitive",
    "__version__",
]
