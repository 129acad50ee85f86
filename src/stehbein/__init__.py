"""Verification engine for frame-based noncommutative differential calculi.

Geometries over finite matrix algebras are described by a commuting frame
of 1-forms, an inner differential, a wedge projector and a generalized
permutation; this package implements the differential, braiding,
connection, curvature and star constructions on top of that data and
checks every consistency and reality identity as a numerical residual.
"""

__version__ = "0.1.0"

from .frametensor import (
    FrameTensorField,
    adjoint,
    apply_central_at,
    basis_field,
    centrality_residual,
    flip_central,
    identity_central,
    antisymmetrizer_central,
    left_mul,
    max_coeff_norm,
    max_entry,
    right_mul,
    tensor_product,
    word_tensor,
)
from .calculus import (
    FrameGeometry,
    check_d_squared,
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
    check_braid,
    check_sigma_consistency,
    check_yang_baxter,
    make_braiding,
    sigma_from_tau,
)
from .connection import (
    Connection,
    CurvatureData,
    covariant_derivative,
    curvature,
    curvature_of_form,
    d0_connection,
    d2,
    dn,
    check_leibniz,
    check_metric_compatibility,
    check_metric_symmetry,
    check_sigma_lemma,
    solve_torsionfree_chi,
)
from .involution import (
    PermutationWord,
    StarTensor,
    build_jn,
    check_Dn_reality,
    check_fifa,
    check_jn_involutive,
    check_metric_compat_second,
    check_metric_reality,
    check_wedge_star,
    reverse_word,
    star_form,
)
from .fixtures import (
    phase_twist_braiding,
    random_geometry,
    su2_flip_geometry,
)
from .io import GeometryFileError, load_input
from .report import REPORT_SCHEMA, VerificationReport, run_verify
