"""Fredholm determinants and Evans functions for travelling-wave spectra.

Two independent numerical pipelines for the same spectral question -- does
lambda belong to the point spectrum of a linearized travelling-wave
operator on the line? -- plus the identities tying them together:

* quadrature route: Birman-Schwinger kernels built from constant-coefficient
  Green's functions, discretized to det(I + S) with analytic trace
  compensation (``fredholm``), including the Hilbert-Schmidt regularized
  variants and the two-sided-limit reference matrix for fronts (``fronts``);
* ODE route: rescaled Jost solutions, transmission matrices, and the Evans
  function E(lambda)/c(lambda) (``evans``);
* root machinery: winding numbers and Muller refinement over contours
  (``locate``), with problem definitions and spectral classification in
  ``model`` and the shared Green's functions and bases in ``greens``.

The ``wavedet`` console script drives everything from JSON configs.
"""

__version__ = "0.1.0"

from .errors import (
    WavedetError,
    ConfigError,
    EssentialSpectrum,
    NearMultipleRoots,
    IllConditioned,
    SignMismatch,
    StiffnessFailure,
    PhaseJump,
    NoConvergence,
    CountMismatch,
)
from .model import (
    WaveProfile,
    ScalarProblem,
    SystemProblem,
    SpectralPoint,
    builtin_problem,
    make_profile,
    tabulated_profile,
    to_system,
    essential_spectrum_distance,
    symbol_curve,
    classify_point,
    char_roots,
)
from .greens import (
    RootSplit,
    GreenCoefficients,
    UnperturbedBasis,
    classify_roots,
    alpha_coefficients,
    scalar_green,
    unperturbed_bases,
    basis_from_roots,
    system_basis,
    matrix_basis,
    matrix_green,
)
from .fredholm import (
    QuadratureGrid,
    DeterminantResult,
    build_grid,
    default_grid,
    det1,
    det2,
    detp,
    trace_scalar,
    trace_system,
    series_coefficient,
    limit_normalization_check,
)
from .evans import (
    IntegrationParams,
    JostSolution,
    EvansResult,
    jost_minus,
    jost_plus,
    evans_function,
    evans_and_swinton,
    transmission_matrix,
    swinton_matrix,
    born_transmission,
    identity_report,
)
from .fronts import (
    FrontReference,
    front_split,
    front_reference,
    front_basis,
    front_det2,
    reference_system,
)
from .locate import (
    Contour,
    RootReport,
    winding_number,
    refine_root,
    scan,
    locate_roots,
)
