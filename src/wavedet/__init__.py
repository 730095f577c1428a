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

from importlib import import_module as _import_module

# public name -> the submodule that defines it.  The names and the
# submodules resolve on first access (PEP 562), so ``import wavedet``
# loads no submodule and a command loads only its own route.
_HOMES = {
    **dict.fromkeys((
        "WavedetError", "ConfigError", "EssentialSpectrum",
        "NearMultipleRoots", "IllConditioned", "SignMismatch",
        "StiffnessFailure", "PhaseJump", "NoConvergence", "CountMismatch"),
        "errors"),
    **dict.fromkeys((
        "WaveProfile", "ScalarProblem", "SystemProblem", "builtin_problem",
        "make_profile", "tabulated_profile", "to_system",
        "essential_spectrum_distance", "symbol_curve", "char_roots",
        "QuadratureGrid", "build_grid", "default_grid", "IntegrationParams"),
        "model"),
    **dict.fromkeys((
        "DeterminantResult", "det1", "det2", "detp"), "fredholm"),
    **dict.fromkeys((
        "EvansResult", "evans_function", "evans_and_swinton",
        "swinton_matrix", "identity_report"), "evans"),
    "reference_system": "fronts",
    **dict.fromkeys((
        "Contour", "RootReport", "refine_root", "scan", "locate_roots"),
        "locate"),
}
_SUBMODULES = ("errors", "model", "greens", "fredholm", "evans", "fronts",
               "locate")
__all__ = sorted([*_HOMES, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    helpers = {"__all__", "__getattr__", "__dir__", "_import_module",
               "_HOMES", "_SUBMODULES"}
    return sorted((globals().keys() - helpers) | _HOMES.keys()
                  | set(_SUBMODULES))
