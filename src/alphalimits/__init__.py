"""Limit points of alpha-adjacency spectral radii of graphs.

Graph families, A_alpha spectral computation, and root isolation for the
polynomial families whose roots are the limit points: the classical
sequence, its two generalized versions, the specialization back to
alpha 0, and the (signless) Laplacian corollary sequences.
"""

__version__ = "0.1.0"

from .graphs import (
    Graph,
    InternalPath,
    attach_pendant_path,
    cycle,
    double_snake,
    edge_in_internal_path,
    format_graph,
    internal_paths,
    is_bipartite,
    is_double_snake,
    is_regular,
    join_by_path,
    lollipop,
    p2_two_paths,
    parse_graph,
    path,
    star,
    subdivide_edge,
    wheel5,
)
from .limits import (
    DEFAULT_CONFIG,
    EPSILON_SURD,
    BracketError,
    BranchSelectionError,
    HalfPoly,
    LimitTable,
    RootConfig,
    TableRow,
    beta_n,
    difference_poly_f,
    eta_classic,
    eta_n,
    gamma_n,
    gamma_tilde_n,
    laplacian_guo_wang,
    laplacian_new,
    limit_table,
    new_version_sequence,
    omega1,
    omega2,
    omega2_closed_form,
    pendant_path_limit,
    phi_version1,
    phi_version2,
    psi,
    psi_closed_form,
    theta_from_lambda,
    theta_substitution,
    two_pendant_paths_limit,
)
from .spectral import (
    AlphaMatrix,
    SpectralResult,
    VertexResolvent,
    assemble_a_alpha,
    assemble_laplacian,
    bn_charpoly_closed,
    char_poly_eval,
    char_poly_eval_deleted,
    delta_of_lambda,
    full_spectrum,
    h_of_lambda,
    path_charpoly_closed,
    radius_of,
    spectral_radius,
    star_radius,
    tridiag_charpoly_recurrence,
    vertex_resolvent,
)
from .verify import (
    PropertyResult,
    random_connected_graph,
    random_tree,
    run_identity_suite,
    run_lemma_suite,
    run_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
