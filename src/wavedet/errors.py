"""Exception types shared across the library.

Numerical refusals are deliberate: an evaluation that cannot be trusted raises
instead of returning a value, and the CLI maps these onto exit code 3.
"""


def raise_first(refusals) -> None:
    """Raise the first refusal of a list over lambdas (None where a lambda
    was not refused), so a batch fails like its first failing lambda."""
    for refusal in refusals:
        if refusal is not None:
            raise refusal


class WavedetError(Exception):
    """Base class for all library errors."""


class ConfigError(WavedetError):
    """Invalid or inconsistent run configuration."""


class EssentialSpectrum(WavedetError):
    """The spectral parameter sits on (or numerically touches) the essential
    spectrum: some characteristic root has vanishing real part, so the
    decaying/growing splitting degenerates."""


class NearMultipleRoots(WavedetError):
    """Characteristic roots closer than the separation tolerance; the
    simple-root formulas are unreliable there."""


class IllConditioned(WavedetError):
    """A linear solve whose condition estimate exceeds the trust threshold."""


class SignMismatch(WavedetError):
    """The two sign choices of the analytic trace disagree, which signals a
    perturbation with nonvanishing integrated diagonal."""


class OutOfRange(WavedetError):
    """A determinant or its trace correction left the float64 range."""


class StiffnessFailure(WavedetError):
    """The Jost propagation produced non-finite values."""


class PhaseJump(WavedetError):
    """A contour edge could not be refined to phase steps below pi/2."""


class NoConvergence(WavedetError):
    """Root refinement, or a quadrature widened to its limit, did not
    reach its target."""


class CountMismatch(WavedetError):
    """The two asymptotic matrices of a front disagree about how many
    characteristic roots lie in each half plane."""
