"""Degenerate conformal heat flow on R^N \\ {0}.

Spectral calculus for the commuting limit of the dilation / multiplication /
Bessel-type generators: log-radial Fourier multipliers, semigroup kernels
with theta-function closed forms, spherical component bookkeeping, and exact
ladder-operator checks.
"""

from .errors import (
    ConformalHeatError,
    DomainError,
    FieldFormatError,
    GridAlignmentError,
    InvalidRegimeError,
    SeriesDivergenceError,
    UnboundedExponentError,
)
from .kernels import (
    ComplexTime,
    apply_full_kernel_1d,
    apply_full_kernel_2d,
    apply_radial_kernel,
    as_time,
    closed_form,
    closed_form_1d,
    closed_form_2d,
    closed_form_4d,
    full_kernel_series,
    radial_kernel,
    radial_semigroup_matrix,
    truncation_degree,
)
from .ladder import (
    LadderOperatorSpec,
    act,
    commutator_defect,
    degeneration_trace,
    standard_basis,
)
from .log_radial import (
    LogRadialGrid,
    RadialSamples,
    fourier_forward,
    fourier_inverse,
    frequency_norm,
    u_forward,
    u_inverse,
    weighted_norm,
)
from .spectral_calculus import (
    Boundedness,
    G0Exponent,
    apply_exp_g0,
    apply_exp_g0_grid,
    apply_scaling_direct,
    is_bounded,
    multiplier,
)
from .spherical import (
    FactoredField,
    GridField2D,
    decompose_1d,
    decompose_2d,
    project_pm,
    projection_kernel,
    recompose_1d,
    recompose_2d,
)
from .special_functions import (
    gegenbauer_tilde,
    gegenbauer_tilde_sup,
    theta,
    theta_dv,
)

__version__ = "0.1.0"
