"""Invariants of even-regular multigraphs: Martin polynomials and invariants,
graph permanents, and c2 residues, with brute-force oracles for all of them."""

from .multigraph import (
    Multigraph,
    from_edges,
    duplicate,
    delete_vertex,
    induced_subgraph,
    canonical_form,
    is_isomorphic,
)
from .martin import (
    martin_polynomial,
    circuit_partition_polynomial,
    martin_invariant,
    martin_sequence,
    symmetry_factor,
)
from .residues import (
    ResidueReport,
    graph_permanent,
    permanent_square_residue,
    extended_permanent,
    point_count,
    c2,
    c2_from_martin,
    c2_from_trees_forests,
)

__all__ = [
    "Multigraph",
    "from_edges",
    "duplicate",
    "delete_vertex",
    "induced_subgraph",
    "canonical_form",
    "is_isomorphic",
    "martin_polynomial",
    "circuit_partition_polynomial",
    "martin_invariant",
    "martin_sequence",
    "symmetry_factor",
    "ResidueReport",
    "graph_permanent",
    "permanent_square_residue",
    "extended_permanent",
    "point_count",
    "c2",
    "c2_from_martin",
    "c2_from_trees_forests",
]
