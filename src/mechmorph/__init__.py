"""mechmorph: nonlocal mechanochemical pattern formation on the periodic
unit interval.

The model is the scalar evolution equation

    u_t = D u_xx - u + kappa e^u / int_0^1 e^u dy,

a gradient flow whose global strain conservation acts as long-range
inhibition.  The package simulates it, computes stationary solutions and
their full stability spectra (by two independent routes), and tracks
bifurcating branches with pseudo-arclength continuation.
"""

__version__ = "0.1.0"

from .bifurcation import (
    BifPoint,
    Branch,
    BranchPoint,
    SweepCell,
    SweepResult,
    continue_branch,
    critical_kappas,
    predictor_from_normal_form,
    sweep,
)
from .dynamics import TrajectorySummary, simulate, strain_field
from .energy import BoundsReport, bounds, energy, first_variation, hessian_matrix
from .errors import (
    AmplitudeOverflowError,
    BracketError,
    ConfigurationError,
    ConvergenceError,
    DivergenceError,
    MechmorphError,
    ResolutionError,
    SingularJacobianError,
)
from .figures import emit_figure_data
from .grid import (
    Field,
    Grid,
    Spectrum,
    first_derivative,
    from_spectral,
    integrate,
    make_grid,
    second_derivative,
    to_spectral,
)
from .model import ModelParams
from .stability import (
    CrosscheckReport,
    EigenReport,
    LocalSpectrum,
    SecularStats,
    assemble_linearization,
    local_spectrum,
    nonlocal_spectrum,
    secular_roots,
    spectrum_crosscheck,
)
from .steady import (
    RelaxStats,
    SteadyState,
    constant_state,
    count_modes,
    newton_steady,
    relax_to_steady,
    rescale_modal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
