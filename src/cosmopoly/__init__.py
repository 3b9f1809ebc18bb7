"""Exact combinatorics of cosmological polytopes of multigraphs:
lattice points, facets, Groebner-induced unimodular triangulations, and
h*-polynomials by independent methods."""

__version__ = "0.1.0"

from .errors import (
    BadTermOrder,
    Budget,
    BudgetExceeded,
    CosmopolyError,
    DisconnectedGraph,
    GraphError,
    GraphFileError,
    NoMethodAvailable,
    StructureViolation,
    TheoremViolation,
    WrongCardinality,
)
from .multigraph import (
    BlockClass,
    Edge,
    Multigraph,
    blocks,
    bundle,
    connected_components,
    connected_subgraphs,
    cycle_graph,
    disjoint_union,
    loop_graph,
    multicycle,
    multitree,
    one_sum,
    path_graph,
    simple_cycles,
    simple_paths,
    single_edge,
    star_graph,
    theta_graph,
    triangle,
)
from .polytope import (
    FacetInequality,
    LatticePoint,
    count_dilate_points,
    count_interior_points,
    dimension,
    facet_inequalities,
    lattice_points,
)
from .grobner import (
    Binomial,
    TermOrder,
    cyclic_binomials,
    default_good_order,
    fundamental_binomials,
    is_good_order,
    leading_support,
    obstruction_set,
    reduced_generators,
    zigzag_binomials,
)
from .triangulation import (
    DecoratedGraph,
    build_triangulation,
    decorated_view,
    normalized_volume,
    placed,
)
# the method dispatcher lives at cosmopoly.hstar.hstar; re-exporting it here
# would shadow the submodule name
from .hstar import (
    IntPolynomial,
    check_structure_theorems,
    check_upper_bound_conjecture,
    hstar_blocks,
    hstar_closed_bundle,
    hstar_closed_multicycle,
    hstar_ehrhart,
    hstar_visibility,
    theta_hstar,
)
from .sweep import canonical_form, enumerate_connected_multigraphs, verify_graph
