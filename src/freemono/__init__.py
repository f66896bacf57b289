"""freemono: numerical verification of matrix monotonicity and noncommutative
upper-half-plane preservation for free matrix expressions over operator systems.

The package evaluates expressions like the block Schur complement or the
matrix geometric mean on matrix points of any level, and stress-tests the
two sides of the classical correspondence - order preservation on Hermitian
pairs versus mapping the upper half-plane into itself - reporting agreement
or concrete witnessed violations.
"""

from .kernels import (
    BranchCutError,
    EigensolverError,
    NumericalError,
    Rng,
    SamplingError,
    SingularMatrixError,
    SpectrumDomainError,
    func_calc,
    herm_eig,
    hermitize,
    imag_part,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    principal_sqrt,
    random_matrix,
)
from .opsys import (
    DomainSpec,
    NCPoint,
    NotInImageError,
    OpSysBasis,
    builtin_system,
    conjugate,
    decode,
    direct_sum,
    full_domain,
    identity_point,
    in_domain,
    is_hermitian_point,
    order_leq,
    pd_cone,
    point_from_json,
    point_to_json,
    realize,
    sample_halfplane,
    sample_ordered_pair,
    sample_point,
    shuffle_permutation,
    spectral_interval,
    system_from_json,
)
from .freeexpr import (
    CATALOG_NAMES,
    CodomainError,
    FreeFunction,
    OutOfDomainError,
    ParseError,
    catalog,
    eval_function,
    function_from_expr,
    parse,
    to_text,
)
from .report import CheckReport, ConsistencyReport, REPORT_SCHEMA
from .verifiers import (
    check_boundary_continuity,
    check_free_axioms,
    check_halfplane,
    check_local_monotone,
    check_monotone,
    check_schur_im_identity,
    equivalence_report,
    halfplane_margin,
    local_margin,
    pair_margin,
)
from .loewner1d import (
    SCALAR_CATALOG_NAMES,
    ScalarFunction,
    cross_check,
    loewner_matrix,
    pick_matrix,
    scalar_catalog,
)

__version__ = "0.1.0"
