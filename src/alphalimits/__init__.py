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
    format_graph,
    internal_path_edges,
    internal_paths,
    is_double_snake,
    is_regular,
    lollipop,
    p2_two_paths,
    parse_graph,
    path,
    star,
    subdivide_edge,
    wheel5,
)
from .limits import (
    EPSILON_SURD,
    BracketError,
    BranchSelectionError,
    HalfPoly,
    LimitTable,
    TableRow,
    beta_n,
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
    pendant_path_limit,
    phi_version1,
    phi_version2,
    psi,
    psi_closed_form,
    two_pendant_paths_limit,
)
from .spectral import (
    alpha_stack,
    assemble_a_alpha,
    assemble_laplacian,
    char_poly_eval,
    delta_of_lambda,
    full_spectrum,
    h_of_lambda,
    radius_of,
    solve_by_order,
    stack_radii,
    star_radius,
    subdivision_stack,
)
from .verify import (
    PropertyResult,
    bn_charpoly_closed,
    difference_poly_f,
    omega2_closed_form,
    path_charpoly_closed,
    random_connected_graph,
    random_tree,
    run_identity_suite,
    run_lemma_suite,
    run_suite,
    theta_substitution,
    tridiag_charpoly_recurrence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
