"""Finite geometry of 2m-element subsets of [n] for simplex-code parameters.

Builds the point-line geometry whose points are the 2m-subsets of [n]
(n = 2^k - 1, m = 2^(k-2)), enumerates and classifies maximal cliques of
its collinearity graph, and realizes the five symmetric (15,8,4)-designs
together with their normalized order-16 Hadamard matrices.
"""

from .cliques import (
    Clique,
    CollinearityGraph,
    build_graph,
    enumerate_maximal_cliques,
)
from .constructions import (
    CenteredDecomposition,
    CliqueClass,
    CliqueTag,
    canonical_centered_blocks,
    center_points,
    classify_clique,
    decompose,
    hyperplane_complement_blocks,
    hyperplane_complement_clique,
    lines_inside,
    non_centered_blocks,
    non_centered_clique,
    planes_inside,
    product_clique,
    split_non_centered,
)
from .designs import (
    Design,
    HadamardMatrix,
    automorphism_group,
    block_orbit_count,
    design_from_clique,
    find_isomorphism,
    flag_orbit_count,
    from_hadamard,
    parse_incidence,
    render_incidence,
    to_hadamard,
)
from .errors import (
    GroundMismatchError,
    InternalCheckError,
    InvariantError,
    ParseError,
)
from .fano import (
    FanoBijection,
    FanoPlane,
    are_equivalent,
    bijection_index,
    equivalence_classes,
    fano_planes_on,
    index_spectrum,
    is_simplex,
    representative_of_index,
)
from .geometry import (
    Geometry,
    GeometryParams,
    Line,
    build_geometry,
    geometry_for_dimension,
    is_collinear,
    is_singular_subspace,
    is_subspace,
    line_through,
    singular_span,
)
from .groups import PermGroup
from .subsets import ElementSet, Permutation, apply

__version__ = "0.1.0"
