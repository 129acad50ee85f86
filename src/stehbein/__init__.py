"""Verification engine for frame-based noncommutative differential calculi.

Geometries over finite matrix algebras are described by a commuting frame
of 1-forms, an inner differential, a wedge projector and a generalized
permutation; this package implements the differential, braiding,
connection, curvature and star constructions on top of that data and
checks every consistency and reality identity as a numerical residual.
"""

__version__ = "0.1.0"

from .matalg import adjoint, commutator, centrality_residual, frobenius_norm
from .frametensor import (
    FrameTensorField,
    apply_central_at,
    basis_field,
    flip_central,
    identity_central,
    antisymmetrizer_central,
    left_mul,
    max_coeff_norm,
    right_mul,
    tensor_product,
    wedge_project,
    word_tensor,
    zero_field,
)
from .calculus import (
    FrameGeometry,
    check_structure,
    check_theta_squared,
    differential0,
    differential1,
    dirac_form,
    maurer_cartan,
)
from .braiding import (
    Braiding,
    SingularBraidingError,
    apply_sigma_at,
    block_word,
    check_braid,
    check_sigma_consistency,
    check_yang_baxter,
    extend_sigma_block,
    make_braiding,
    sigma_from_tau,
    sigma_on_wedge,
)
from .connection import (
    Connection,
    CurvatureData,
    covariant_derivative,
    curvature,
    curvature_d0_closed_form,
    curvature_of_form,
    d0_connection,
    d2,
    dn,
    check_left_leibniz,
    check_metric_compatibility,
    check_metric_symmetry,
    check_right_leibniz,
    metric_eval,
    solve_torsionfree_chi,
    torsion,
    torsionfree_connection,
)
from .involution import (
    PermutationWord,
    build_J,
    build_jn,
    check_connection_reality,
    check_D2_reality,
    check_Dn_reality,
    check_fifa,
    check_jn_involutive,
    check_metric_reality,
    check_wedge_star,
    reverse_word,
    star_form,
)
from .fixtures import (
    phase_twist_braiding,
    random_geometry,
    random_tau,
    su2_braiding,
    su2_flip_geometry,
    su2_torsionfree_connection,
)
from .io import GeometryFileError, load_input
from .report import REPORT_SCHEMA, VerificationReport, run_verify
