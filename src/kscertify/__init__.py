"""Certification toolkit for Kochen-Specker ray sets.

The package decides whether a finite set of rank-one projectors admits a
noncontextual 0/1 assignment under two definitions (with and without the
exclusivity condition on orthogonal pairs), and synthesizes the matching
state-independent noncontextuality inequality with an exact classical bound.
"""

from __future__ import annotations

from .algebra import (
    DEFAULT_TOLERANCE,
    RayVector,
    canonicalize_ray,
    exact_ray,
    is_orthogonal,
    is_square_free,
    numeric_ray,
)
from .catalog import CatalogEntry, catalog_entries, get_entry, load_rayset, load_text
from .coloring import (
    ColoringResult,
    DefinitionMode,
    check_colorable,
    is_ks_set,
    verify_assignment,
)
from .formats import (
    ParseError,
    emit_inequality,
    emit_rayset,
    parse_inequality,
    parse_rayset,
)
from .inequality import (
    Inequality,
    StateSpec,
    build_inequality,
    compute_weights,
    edge_weights,
    operator_sum_check,
    quantum_value,
    weighted_independence_number,
)
from .rayset import (
    CompatibilityGraph,
    DuplicateRayError,
    InvalidGeometryError,
    ProblemInstance,
    RaySet,
    ScalarMode,
    build_graph,
    build_instance,
    covered_vertices,
    enumerate_bases,
    prune_unbased,
    symmetries,
    validate_rayset,
)

__all__ = [
    "DEFAULT_TOLERANCE",
    "CatalogEntry",
    "ColoringResult",
    "CompatibilityGraph",
    "DefinitionMode",
    "DuplicateRayError",
    "Inequality",
    "InvalidGeometryError",
    "ParseError",
    "ProblemInstance",
    "RaySet",
    "RayVector",
    "ScalarMode",
    "StateSpec",
    "build_graph",
    "build_inequality",
    "build_instance",
    "canonicalize_ray",
    "catalog_entries",
    "check_colorable",
    "compute_weights",
    "covered_vertices",
    "edge_weights",
    "emit_inequality",
    "emit_rayset",
    "enumerate_bases",
    "exact_ray",
    "get_entry",
    "is_ks_set",
    "is_orthogonal",
    "is_square_free",
    "load_rayset",
    "load_text",
    "numeric_ray",
    "operator_sum_check",
    "parse_inequality",
    "parse_rayset",
    "prune_unbased",
    "quantum_value",
    "symmetries",
    "validate_rayset",
    "verify_assignment",
    "weighted_independence_number",
]

__version__ = "0.1.0"

