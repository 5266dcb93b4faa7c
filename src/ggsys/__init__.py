"""Tools for hypergeometric systems attached to finite vector configurations.

The package builds the difference/differential systems generated by a
finite spanning set of complex vectors, evaluates their series and contour
integral solutions, and verifies the defining relations numerically.
"""
__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .contour import (
    ContourSpec,
    IntegralValue,
    euler_segment_integral,
    hankel_integral,
    shifted_plane_integral,
)
from .distributions import (
    PairingResult,
    TestFunction,
    cm_pair,
    fourier_consistency_check,
    gamma_minus_pair,
    gamma_plus_pair,
    gg_distribution_pair,
    smooth_bump,
)
from .errors import ConvergenceError, DomainError, InvalidInputError, PoleError
from .gammafn import rgamma
from .lattice import (
    IntegerLattice,
    QuotientStructure,
    candidate_family,
    elementary_divisors,
    hermite_normal_form,
    integer_kernel,
    lattice_quotient,
    orthogonal_lattice,
    project_lattice,
    saturation_index,
)
from .model import (
    BaseSelection,
    ReducedSystem,
    ReducibilityReport,
    SetSideDiagnostics,
    VectorSet,
    build_reduced_system,
    enumerate_bases,
    kernel_space,
    reducibility_check,
    select_base,
    vector_set,
)
from .resonance import (
    ChainDecomposition,
    GrassmannianSet,
    ResonanceAnalysis,
    analyze_vector,
    candidate_consistent_vectors,
    check_extra_relation,
    decompose_structure,
    grassmannian_set,
)
from .series import (
    ConvergenceReport,
    SeriesSpec,
    SeriesValue,
    TruncatedSeries,
    convergence_condition,
    elementary_solution_full,
    gauss_coefficients,
    gauss_series_eval,
    gg_series_eval,
    mixed_gamma_series_eval,
    monomial_solution_zero,
    reduced_series,
    reduced_series_batch,
    reduced_series_eval,
    twist_scaling,
)
from .verify import (
    FamilyRankResult,
    ResidualReport,
    check_def2_system,
    check_gauss_ode,
    check_gauss_relations,
    check_gg_system,
    check_reduced_system,
    residual_report,
    sample_arguments,
    sample_parameters,
    solution_family_rank,
)

# every public name bound above, less the submodules the imports bind
__all__ = [
    *sorted(k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, _ModuleType)),
    "__version__",
]
