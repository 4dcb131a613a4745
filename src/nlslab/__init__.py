"""nlslab: spectral simulation and verification laboratory for the critical
and sub-critical nonlinear Schroedinger equations."""

from .born import (
    QuadratureResult,
    QuadratureSpec,
    born_integral,
    corollary2_sides,
    subcritical_sides,
)
from .core import (
    ComplexField,
    FieldDiagnostics,
    GridDescriptor,
    diagnostics,
    dilate,
    field_from_function,
    forward_fourier,
    free_propagate,
    inverse_fourier,
    l2_difference,
    l2_norm,
    norms,
    quadratic_phase,
    resample,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    GridCompatibilityError,
    MassLossError,
    NlslabError,
    SnapshotFormatError,
    SolverHealthError,
)
from .harness import DEFAULTS, EXPERIMENTS, InitialDatumSpec, make_datum, run
from .io import read_snapshot, write_snapshot
from .reports import VerificationReport
from .scattering import (
    asymptotic_state_sides,
    conjugation_sides,
    free_return_ladder,
    inverse_wave_operator,
    lens_inverse_wave_operator,
    lens_wave_operator,
    small_data_sweep,
    theorem1_sides,
    wave_operator,
)
from .solvers import (
    DNLSParams,
    NLSParams,
    dnls_evolve,
    nls_evolve,
    residual,
)
from .transforms import (
    GaugeParams,
    SnapshotAtTime,
    conjugate,
    gauge,
    pseudo_conformal,
    reflect,
    spectral_profile_decay_ladder,
)

__version__ = "0.1.0"
