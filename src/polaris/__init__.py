"""Exact polarized Poisson brackets, canonical charts and Nambu dynamics.

The library works on the coordinate model R^(n(k+1)): k fiber blocks,
one leaf block, the canonical closed 2-forms pairing them, and the
class of maps into R^k that are affine along the fibers with basic
coefficients.  All symbolic work is exact (rational coefficients), so
the brackets, fields and their defining identities can be compared
structurally; a small fixed-step integrator turns the fields into
trajectories when numbers are wanted.
"""

from .poly import DegreeOverflowError, MAX_EXPONENT, Polynomial
from .linalg import RationalMatrix, invert, kernel
from .parsing import ParseError, parse_polynomial
from .geometry import (
    Chart,
    KSymplecticStructure,
    OneFormRk,
    RkMap,
    StructureReport,
    VectorField,
    canonical_theta,
    check_ksymplectic,
    differential,
    exterior_derivative_one_form,
    grid_is_zero,
    interior_product,
    is_basic,
    xi_pairing,
)
from .hamiltonian import (
    GeneralPoissonTensor,
    JacobiReport,
    NotPolarized,
    PolarizedForm,
    bracket,
    bracket_via_theta,
    canonical_poisson_tensor,
    classical_bracket,
    decompose_polarized,
    hamiltonian_field,
    jacobi_check,
    lie_bracket,
    theta_pairing,
    zeta,
    zeta_inverse,
)
from .nambu import (
    NambuSpaceR3n,
    NambuSpaceRk1,
    RelationReport,
    jacobian_det,
    levi_civita,
    nambu_bracket_r3n,
    nambu_field_r3n,
    nambu_field_rk1,
    verify_relation_r3n,
    verify_relation_rk1,
)
from .dynamics import (
    BlowUpError,
    ConservationReport,
    FlowComparison,
    ScaleVanishedError,
    Trajectory,
    compare_flows,
    conservation_report,
    rk4_integrate,
)
from .sampling import DEFAULT_SEED, random_basic, random_polarized, random_polynomial
from .checks import CheckResult, run_suite

__version__ = "0.1.0"
