"""qglab: numerical laboratory for critical-contrast periodic quantum graphs.

Fiber operators on three reference periodicity cells, their Weyl M-matrices
and closed-form resolvents, effective (homogenised) models with out-of-space
dilations, dispersion functions and limiting band structure, and the
time-dispersive models on the real line — together with the experiment
harness that certifies the O(eps^2) convergence rates connecting them.

``import qglab`` needs only numpy.  scipy is imported inside the calls that
use it, which are those of the FEM oracle (``DiscretizedOperator``:
``scipy.sparse`` and ``scipy.sparse.linalg``).  ``band_roots`` refines its
roots by its own false position in ``dispersion``, so no module loads
``scipy.optimize``.
"""

from .dispersion import band_roots, k_closed, k_series, verify_sum_identities
from .effective import EffectiveModel, PsiEmbedding, effective_params
from .fdsolver import DiscretizedOperator
from .graphs import EdgeSpec, MetricGraph, ParameterError, build_example, datta_weights
from .krein import ResolventWorkspace
from .lab import (
    EXPERIMENT_TAGS,
    Check,
    ExperimentResult,
    SlopeFit,
    fit_slope,
    operator_norm_diff,
    parse_config,
    run_experiment,
)
from .mmatrix import (
    FiberParams,
    MMatrixSet,
    PoleError,
    check_additivity,
    herglotz_min_eig,
    m_blocks_closed,
    m_general,
)
from .realline import (
    LineGrid,
    difference_symbol,
    differential_symbol_ex1,
    gaussian_packet,
    make_line_grid,
    psi_k_apply,
)
from .triples import (
    b_eff,
    b_matrix,
    beff_deviation,
    btilde_closed_ex0,
    btilde_numeric,
    delta_fn,
    delta_limit,
    projection_transform,
    rotate_triple,
    rotation_x,
    second_swap,
)

__version__ = "0.1.0"

__all__ = [
    "EXPERIMENT_TAGS",
    "Check",
    "DiscretizedOperator",
    "EdgeSpec",
    "EffectiveModel",
    "ExperimentResult",
    "FiberParams",
    "LineGrid",
    "MMatrixSet",
    "MetricGraph",
    "ParameterError",
    "PoleError",
    "PsiEmbedding",
    "ResolventWorkspace",
    "SlopeFit",
    "b_eff",
    "b_matrix",
    "band_roots",
    "beff_deviation",
    "btilde_closed_ex0",
    "btilde_numeric",
    "build_example",
    "check_additivity",
    "datta_weights",
    "delta_fn",
    "delta_limit",
    "difference_symbol",
    "differential_symbol_ex1",
    "effective_params",
    "fit_slope",
    "gaussian_packet",
    "herglotz_min_eig",
    "k_closed",
    "k_series",
    "m_blocks_closed",
    "m_general",
    "make_line_grid",
    "operator_norm_diff",
    "parse_config",
    "projection_transform",
    "psi_k_apply",
    "rotate_triple",
    "rotation_x",
    "run_experiment",
    "second_swap",
    "verify_sum_identities",
]
