"""nlslab: spectral simulation and verification laboratory for the critical
and sub-critical nonlinear Schroedinger equations."""

from .born import (
    QuadratureResult,
    QuadratureSpec,
    born_integral,
    corollary2_sides,
    nonlinear_flow,
    subcritical_sides,
)
from .core import (
    FREQUENCY,
    POSITION,
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
    SpaceTagError,
)
from .harness import DEFAULTS, EXPERIMENTS, InitialDatumSpec, make_datum, run
from .io import read_snapshot, write_snapshot
from .reports import VerificationReport
from .scattering import (
    ScatteringConfig,
    ScatteringResult,
    inverse_wave_operator,
    verify_conjugation,
    verify_lemma23,
    verify_proposition,
    verify_theorem1,
    wave_operator,
)
from .solvers import (
    DNLSParams,
    NLSParams,
    StepControl,
    dnls_evolve,
    nls_evolve,
    nls_step,
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
