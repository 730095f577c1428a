"""Problem definitions for travelling-wave spectral computations.

A scalar problem is an eigenvalue equation for a constant-coefficient
differential operator of order n perturbed by a localized (or front-like)
coefficient:

    L u = u^(n) + a_{n-1} u^(n-1) + ... + a_0 u + d^m/dx^m ( v(x) u ) = lambda u

with v = V(phi) for a wave profile phi and an optional scalar map V
(identity by default).  The same problem in first-order form is

    dY/dx = (A0(lambda) + R(x)) Y,

where A0 is the companion matrix of the unperturbed symbol and R carries the
perturbation in its bottom row.  R here is the *physical* perturbation: the
first-order system above is literally equivalent to L u = lambda u, which
pins its bottom-row entries to -C(m,i) (d/dx)^(m-i) v.  Kernel-side
weightings that need the opposite sign absorb it internally.

The truncation window is shared by both pipelines, so its quadrature grid
(``build_grid``) and the Jost integration parameters (``IntegrationParams``)
live here too: a command validates both without loading either route.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, NoConvergence

__all__ = [
    "WaveProfile",
    "ScalarProblem",
    "SystemProblem",
    "builtin_problem",
    "make_profile",
    "tabulated_profile",
    "to_system",
    "as_system",
    "essential_spectrum_distance",
    "symbol_curve",
    "char_roots",
    "QuadratureGrid",
    "build_grid",
    "default_grid",
    "IntegrationParams",
]

AXIS_TOL = 1e-8
SEP_TOL = 1e-6


# ---------------------------------------------------------------------------
# wave profiles


@dataclass
class WaveProfile:
    """A wave profile phi with enough structure for both pipelines.

    ``fn`` evaluates phi on scalars or arrays; ``deriv`` evaluates the
    order-l derivative, exact at every order for the built-in kinds
    (polynomials in tanh and sech, Hermite functions) and the spline's for
    a tabulated profile.  ``limits`` holds (phi(-inf), phi(+inf)); both are 0
    for pulses.  ``exact_integral`` is the signed integral of phi over the
    line when a closed form exists (None for fronts).
    """

    kind: str
    params: dict
    fn: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray, int], np.ndarray]
    limits: tuple[float, float] = (0.0, 0.0)
    exact_integral: Optional[float] = None

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def derivative(self, x, order: int = 1):
        if order == 0:
            return self(x)
        return self.deriv(np.asarray(x, dtype=float), order)

    @property
    def is_front(self) -> bool:
        return max(abs(self.limits[0]), abs(self.limits[1])) > 0.0


def _tanh_sech(terms: dict, w: float, x: np.ndarray,
               order: int) -> np.ndarray:
    """The order-th derivative of the sum of c t^i s^j over terms
    {(i, j): c}, with t = tanh(x / w) and s = sech(x / w), by the rule
    d(t^i s^j)/dx = (i t^(i-1) s^(j+2) - j t^(i+1) s^j) / w.  Each product
    is formed left to right and the terms are added in order, so the
    order-0 value rounds as the written c + a t + q s s does."""
    for _ in range(order):
        d = {}
        for (i, j), c in terms.items():
            for key, f in (((i - 1, j + 2), i), ((i + 1, j), -j)):
                if f:
                    d[key] = d.get(key, 0.0) + f * c / w
        terms = d
    if not terms:
        return np.zeros_like(x)
    s = 1.0 / np.cosh(x / w)
    t = np.tanh(x / w) if any(i for i, _ in terms) else None
    values = [functools.reduce(operator.mul, [t] * i + [s] * j, c)
              for (i, j), c in terms.items()]
    return sum(values[1:], values[0])


def _gaussian(a: float, w: float, x: np.ndarray, order: int) -> np.ndarray:
    """The order-th derivative of a e^(-u^2), u = x / w:
    a (-1/w)^order H_order(u) e^(-u^2) with the Hermite polynomial H."""
    u = x / w
    hermite = np.polynomial.hermite.hermval(u, [0.0] * order + [1.0])
    return a * (-1.0 / w) ** order * hermite * np.exp(-(u ** 2))


def _builtin_profile(kind: str, label: str, params: dict, amplitude: float,
                     width: float, offset: float = 0.0,
                     well: float = 0.0) -> WaveProfile:
    """The ``make_profile`` kind named label, params echoed as given:
    derivatives of every order in closed form."""
    a, w = amplitude, width
    if kind == "gaussian":
        deriv = functools.partial(_gaussian, a, w)
        exact = a * w * math.sqrt(math.pi)
    else:
        terms, exact = {
            "sech2": ({(0, 2): a}, a * 2.0 * w),
            "sech": ({(0, 1): a}, a * math.pi * w),
            "tanh_front": ({(0, 0): offset, (1, 0): a, (0, 2): well},
                           well * 2.0 * w)}[kind]
        deriv = functools.partial(_tanh_sech, terms, w)
    limits = (offset - a, offset + a) if kind == "tanh_front" else (0.0, 0.0)
    if limits != (0.0, 0.0):
        exact = None
    return WaveProfile(kind=label, params=params,
                       fn=functools.partial(deriv, order=0), deriv=deriv,
                       limits=limits, exact_integral=exact)


def tabulated_profile(x: Sequence[float], values: Sequence[float],
                      limits: tuple[float, float] = (0.0, 0.0)) -> WaveProfile:
    """Profile from samples: cubic interpolation inside the sample range,
    exponential tails matched to the last two samples outside it."""
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.shape != values.shape or x.size < 4:
        raise ConfigError("tabulated profile needs >= 4 matching samples")
    if not np.all(np.diff(x) > 0):
        raise ConfigError("tabulated profile abscissae must increase")
    from scipy.interpolate import CubicSpline
    spline = CubicSpline(x, values)

    def tail(edge_val, prev_val, limit, dx):
        a = edge_val - limit
        b = prev_val - limit
        # decay rate from the last two samples; fall back to unit rate when
        # the samples do not look like a decaying exponential
        if abs(a) > 0 and abs(b) > abs(a):
            mu = math.log(abs(b / a)) / dx
        else:
            mu = 1.0
        return a, mu

    aR, muR = tail(values[-1], values[-2], limits[1], x[-1] - x[-2])
    aL, muL = tail(values[0], values[1], limits[0], x[1] - x[0])
    x_lo, x_hi = x[0], x[-1]

    def deriv(t, order):
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        lo = t < x_lo
        hi = t > x_hi
        mid = ~(lo | hi)
        out[mid] = spline(t[mid], order)
        out[lo] = aL * muL ** order * np.exp(-muL * (x_lo - t[lo]))
        out[hi] = aR * (-muR) ** order * np.exp(-muR * (t[hi] - x_hi))
        if order == 0:
            out[lo] += limits[0]
            out[hi] += limits[1]
        return out

    exact = None
    if limits == (0.0, 0.0):
        body = spline.antiderivative()
        exact = float(body(x_hi) - body(x_lo) + aL / muL + aR / muR)
    return WaveProfile(kind="tabulated", params={"n_samples": int(x.size)},
                       fn=functools.partial(deriv, order=0), deriv=deriv,
                       limits=tuple(limits), exact_integral=exact)


# ---------------------------------------------------------------------------
# problems


@dataclass
class ScalarProblem:
    """Order-n scalar eigenvalue problem with a rank-one style perturbation.

    coeffs holds (a_0, ..., a_{n-1}); deriv_order is the m in
    d^m/dx^m (v u); jacobian is the optional scalar map V with v = V(phi).
    """

    order: int
    coeffs: tuple
    profile: WaveProfile
    deriv_order: int = 0
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _potential_integral: Optional[complex] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.order
        if n < 2:
            raise ConfigError("operator order must be >= 2")
        self.coeffs = tuple(complex(c) for c in self.coeffs)
        if len(self.coeffs) != n:
            raise ConfigError(
                f"expected {n} coefficients a_0..a_{n-1}, got {len(self.coeffs)}")
        if not all(math.isfinite(c.real) and math.isfinite(c.imag)
                   for c in self.coeffs):
            raise ConfigError("coefficients must be finite")
        if not 0 <= self.deriv_order <= n - 2:
            raise ConfigError("deriv_order must satisfy 0 <= m <= n-2")

    def potential(self, x):
        """v(x) = V(phi(x)) on scalars or arrays."""
        phi = self.profile(x)
        return phi if self.jacobian is None else self.jacobian(phi)

    def potential_derivative(self, x, order: int):
        """v^(order)(x): the profile's own derivative without a jacobian
        (exact at every order for the built-in profiles).  With a jacobian
        it is nested central differences with h = 1e-3, off by about 5e-6
        at order 2, 2e-5 at 3 and 3e-4 at 4 on sech^2 over [-3, 3]."""
        if order == 0:
            return self.potential(x)
        if self.jacobian is None:
            return self.profile.derivative(x, order)
        h = 1e-3
        return (self.potential_derivative(np.asarray(x) + h, order - 1)
                - self.potential_derivative(np.asarray(x) - h, order - 1)) / (2 * h)

    def potential_integral(self) -> complex:
        """Signed integral of v over the line: exact where available, else
        Gauss sums over [-X, X], from X = 40 doubling at 25 nodes per unit
        length, until one doubling adds at most 1e-14 of the integral of
        |v| so far."""
        if self._potential_integral is None:
            if self.potential_limits != (0, 0):
                raise ConfigError(
                    "potential integral undefined for front profiles")
            if self.jacobian is None and self.profile.exact_integral is not None:
                self._potential_integral = complex(self.profile.exact_integral)
            else:
                self._potential_integral = self._widening_integral()
        return self._potential_integral

    def _widening_integral(self) -> complex:
        t, w = np.polynomial.legendre.leggauss(50)
        total, mass, edge = 0.0, 0.0, 0.0
        while edge <= 10240.0:
            # the band [edge, 2 edge] (first [0, 40]) and its mirror
            x = np.arange(edge, max(2.0 * edge, 40.0), 2.0)[:, None] + t + 1.0
            vs = w * self.potential(np.stack([-x, x]))
            if edge and abs(np.sum(vs)) <= 1e-14 * mass:
                return complex(total)
            total, mass = total + np.sum(vs), mass + np.sum(np.abs(vs))
            edge = max(2.0 * edge, 40.0)
        raise NoConvergence(
            f"potential integral not converged on [-{edge:g}, {edge:g}]")

    @property
    def potential_limits(self) -> tuple[complex, complex]:
        lo, hi = self.profile.limits
        if self.jacobian is None:
            return complex(lo), complex(hi)
        return complex(self.jacobian(lo)), complex(self.jacobian(hi))


@dataclass
class SystemProblem:
    """First-order system dY/dx = (A0(lambda) + R(x)) Y.

    base_matrix maps lambda to the n x n constant part, perturbation maps x
    (a float or an array of points) to a new array R(x) of shape
    x.shape + (n, n), and (r_minus, r_plus) are the limits of R at -/+
    infinity (both zero for pulse problems).  source is the scalar problem
    of a first-order form built by ``to_system``.
    """

    dimension: int
    base_matrix: Callable[[complex], np.ndarray]
    perturbation: Callable[[np.ndarray], np.ndarray]
    r_minus: np.ndarray
    r_plus: np.ndarray
    source: Optional[ScalarProblem] = None

    def __post_init__(self):
        self.r_minus = np.asarray(self.r_minus, dtype=complex)
        self.r_plus = np.asarray(self.r_plus, dtype=complex)
        n = self.dimension
        if self.r_minus.shape != (n, n) or self.r_plus.shape != (n, n):
            raise ConfigError("asymptotic matrices must be n x n")

    @property
    def is_front(self) -> bool:
        return bool(np.abs(self.r_minus).max() > 0
                    or np.abs(self.r_plus).max() > 0)

    @property
    def column_support(self) -> slice:
        """The columns outside which R - R_inf vanishes: the first m + 1 of
        a ``to_system`` form (its bottom row couples u..u^(m)), all n
        otherwise."""
        if self.source is None:
            return slice(0, self.dimension)
        return slice(0, self.source.deriv_order + 1)

    def decaying_part(self, x) -> np.ndarray:
        """R(x) minus its limit on the half line containing x (x <= 0 takes
        R_minus), shape x.shape + (n, n).  The limits are subtracted in
        place, and not at all for a pulse."""
        x = np.asarray(x, dtype=float)
        R = np.asarray(self.perturbation(x), dtype=complex)
        if self.is_front:
            left = (x <= 0)[..., None, None]
            np.subtract(R, self.r_minus, out=R, where=left)
            np.subtract(R, self.r_plus, out=R, where=~left)
        return R

    def tail_norm(self, half_width: float) -> float:
        """Estimate of the integral of ||R - R_inf|| over |x| > half_width:
        12 panels of the 10-point Gauss rule on each tail of length 30.

        On a front R - R_inf is formed by subtracting the limits from
        samples of R of order one, so where it falls below about
        1e-16 ||R_inf|| the integrand is rounding: read a small front
        estimate as an order of magnitude."""
        rule = build_grid(15.0, 120, panel_order=10)
        offset = half_width + 15.0
        pts = np.concatenate([rule.nodes - offset, rule.nodes + offset])
        norms = np.linalg.norm(self.decaying_part(pts), axis=(-2, -1))
        return float(np.sum(np.tile(rule.weights, 2) * norms))


# ---------------------------------------------------------------------------
# characteristic roots and the essential spectrum


def _polyval(poly: np.ndarray, x: np.ndarray) -> np.ndarray:
    """numpy.polyval by Horner's rule, with one polynomial per lambda:
    poly has shape S + (n + 1,) (or (n + 1,)), x shape S + (n,)."""
    y = np.zeros_like(x)
    for pv in np.moveaxis(poly, -1, 0):
        y = y * x + np.asarray(pv)[..., None]
    return y


def char_roots(coeffs: Sequence[complex], lam) -> np.ndarray:
    """Roots of kappa^n + a_{n-1} kappa^(n-1) + ... + a_0 - lambda, shape
    lam.shape + (n,) for a scalar or an array of lambdas: one stacked
    eigenvalue call on the companion matrices (``numpy.roots``' form), then
    one vectorized Newton polish step."""
    a = np.array([complex(c) for c in coeffs])
    n = a.size
    lam = np.asarray(lam, dtype=complex)
    poly = np.empty(lam.shape + (n + 1,), dtype=complex)
    poly[..., 0] = 1.0
    poly[..., 1:] = a[::-1]
    poly[..., -1] -= lam
    companion = np.zeros(lam.shape + (n, n), dtype=complex)
    companion[..., 0, :] = -poly[..., 1:]
    companion[..., np.arange(1, n), np.arange(n - 1)] = 1.0
    roots = np.linalg.eigvals(companion)
    vals = _polyval(poly, roots)
    # the derivative drops the constant a_0 - lambda: one for every lambda
    dvals = _polyval(np.polyder(np.concatenate([[1.0], a[::-1]])), roots)
    ok = np.abs(dvals) > 1e-14 * np.maximum(1.0, np.abs(vals))
    return roots - np.divide(vals, dvals, out=np.zeros_like(vals), where=ok)


def _degeneracy(roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks over the leading axes of stacked roots (..., n): a root within
    AXIS_TOL of the imaginary axis, and two roots within SEP_TOL of each
    other, both relative to the largest root and absolute below 1, so a
    double root at 0 just off the essential spectrum is refused here."""
    scale = np.maximum(np.max(np.abs(roots), axis=-1), 1.0)
    on_axis = np.min(np.abs(roots.real), axis=-1) <= AXIS_TOL * scale
    dist = np.abs(roots[..., :, None] - roots[..., None, :])
    n = roots.shape[-1]
    dist[..., np.arange(n), np.arange(n)] = np.inf
    coincide = np.min(dist, axis=(-2, -1)) < SEP_TOL * scale
    return on_axis, coincide


def symbol_curve(problem: ScalarProblem, zeta) -> np.ndarray:
    """The dispersion symbol P(i zeta) tracing the essential spectrum."""
    z = 1j * np.asarray(zeta, dtype=float)
    n = problem.order
    out = z ** n
    for j, a in enumerate(problem.coeffs):
        out = out + a * z ** j
    return out


def essential_spectrum_distance(problem: ScalarProblem, lam: complex) -> float:
    """Distance from lambda to the symbol curve over real frequencies.

    |P(i zeta) - lambda|^2 is a real polynomial of degree 2n in zeta, so
    its minimiser is among the real parts of the roots of its derivative,
    where |P(i zeta) - lambda| is taken.
    """
    poly = np.polynomial.polynomial
    q = np.array([c * 1j ** j for j, c in enumerate(problem.coeffs + (1.0,))])
    q[0] -= lam
    zeta = poly.polyroots(poly.polyder(poly.polymul(q, q.conj()).real)).real
    return float(np.min(np.abs(symbol_curve(problem, zeta) - lam)))


# ---------------------------------------------------------------------------
# builtins and the first-order form


# the built-in profile kinds: their labels and their parameter defaults, in
# the order they are read
_PROFILE_KINDS = {
    "sech2": ("sech2", {"amplitude": 1.0, "width": 1.0}),
    "sech": ("sech_pulse", {"amplitude": 1.0, "width": 1.0}),
    "gaussian": ("gaussian_pulse", {"amplitude": 1.0, "width": 1.0}),
    "tanh_front": ("tanh_front", {"amplitude": 1.0, "offset": 0.0,
                                  "well": 0.0, "width": 1.0}),
}


def make_profile(kind: str, **params) -> WaveProfile:
    """Profile factory keyed the way configuration files spell it."""
    if not isinstance(kind, str) or kind not in _PROFILE_KINDS:
        raise ConfigError(f"unknown profile kind {kind!r}")
    label, defaults = _PROFILE_KINDS[kind]
    values = {name: _number(params.pop(name, default), f"{kind} {name}")
              for name, default in defaults.items()}
    _reject_extra(kind, params)
    _require_positive(values["width"], "width")
    return _builtin_profile(kind, label, values, **values)


# builtin order-2 problems with zero coefficients over a ``make_profile`` kind
_PULSE_PROFILES = {"sech_pulse": "sech", "gaussian_pulse": "gaussian",
                   "tanh_front": "tanh_front"}


def builtin_problem(name: str, **params) -> ScalarProblem:
    """Catalog of ready-made problems used throughout the test battery."""
    if not isinstance(name, str):
        raise ConfigError(f"unknown builtin problem {name!r}")
    if name == "poschl_teller":
        N = params.pop("N", 1)
        _reject_extra(name, params)
        if not isinstance(N, int) or N < 1:
            raise ConfigError("poschl_teller needs integer N >= 1")
        prof = _builtin_profile("sech2", "poschl_teller", {"N": N},
                                float(N * (N + 1)), 1.0)
        return ScalarProblem(order=2, coeffs=(0.0, 0.0), profile=prof)
    if name in _PULSE_PROFILES:
        return ScalarProblem(order=2, coeffs=(0.0, 0.0),
                             profile=make_profile(_PULSE_PROFILES[name],
                                                  **params))
    if name == "biharmonic_demo":
        amplitude = _number(params.pop("amplitude", 1.0),
                            "biharmonic_demo amplitude")
        _reject_extra(name, params)
        prof = _builtin_profile("sech2", "biharmonic_demo",
                                {"amplitude": amplitude}, amplitude, 1.0)
        return ScalarProblem(order=4, coeffs=(0.0, 0.0, 0.0, 0.0),
                             profile=prof)
    raise ConfigError(f"unknown builtin problem {name!r}")


def _reject_extra(name, params):
    if params:
        raise ConfigError(f"unknown parameters for {name}: {sorted(params)}")


def _number(value, label) -> float:
    """float(value), refusing NaN and +-inf, which json reads as numbers."""
    try:
        if math.isfinite(float(value)):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{label} must be a number, not {value!r}") from None
    raise ConfigError(f"{label} must be finite, not {value!r}")


def _require_positive(value, label):
    if not value > 0:
        raise ConfigError(f"{label} must be positive")


def companion_matrix(coeffs: Sequence[complex], lam: complex) -> np.ndarray:
    """A0(lambda): shifted identity above a bottom row
    (lambda - a_0, -a_1, ..., -a_{n-1})."""
    a = [complex(c) for c in coeffs]
    n = len(a)
    A = np.zeros((n, n), dtype=complex)
    A[:-1, 1:] = np.eye(n - 1)
    A[-1, 0] = lam - a[0]
    for j in range(1, n):
        A[-1, j] = -a[j]
    return A


def to_system(problem: ScalarProblem) -> SystemProblem:
    """First-order form of a scalar problem.

    The bottom row of R collects the Leibniz expansion of d^m/dx^m (v u):
    R[n-1][i] = -C(m, i) v^(m-i)(x) for i = 0..m, so that
    dY/dx = (A0 + R) Y is equivalent to L u = lambda u.
    """
    n = problem.order
    m = problem.deriv_order
    coeffs = problem.coeffs
    binom = [math.comb(m, i) for i in range(m + 1)]

    def base(lmb: complex) -> np.ndarray:
        return companion_matrix(coeffs, lmb)

    def perturbation(x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        R = np.zeros(x.shape + (n, n), dtype=complex)
        for i in range(m + 1):
            R[..., n - 1, i] = -binom[i] * problem.potential_derivative(
                x, m - i)
        return R

    v_lo, v_hi = problem.potential_limits
    r_minus = np.zeros((n, n), dtype=complex)
    r_plus = np.zeros((n, n), dtype=complex)
    r_minus[n - 1, m] = -v_lo
    r_plus[n - 1, m] = -v_hi
    return SystemProblem(dimension=n, base_matrix=base,
                         perturbation=perturbation,
                         r_minus=r_minus, r_plus=r_plus, source=problem)


def as_system(obj) -> SystemProblem:
    """A SystemProblem as is, a ScalarProblem in its first-order form."""
    if isinstance(obj, SystemProblem):
        return obj
    if isinstance(obj, ScalarProblem):
        return to_system(obj)
    raise ConfigError("expected a ScalarProblem or SystemProblem")


# ---------------------------------------------------------------------------
# the truncation window: quadrature grids and Jost integration parameters

DEFAULT_HALF_WIDTH = 20.0
DEFAULT_POINTS = 400
DEFAULT_PANEL_ORDER = 10


def _window(half_width: float) -> float:
    """X of the window [-X, X], refused unless X > 0 and 2X is finite."""
    X = float(half_width)
    if not X > 0:
        raise ConfigError("half_width must be positive")
    if not math.isfinite(2.0 * X):
        raise ConfigError("half_width is too large: the window width "
                          "2 * half_width overflows")
    return X


@dataclass(frozen=True)
class QuadratureGrid:
    """Composite Gauss-Legendre rule on [-X, X] with total weight 2X:
    ``panels`` equal panels of ``panel_order`` points (both ints, not
    bools), also the blocks of the determinant sweep.  Its edges, nodes
    and weights are derived when it is built and take no part in ==, hash
    or repr."""

    half_width: float
    panels: int
    panel_order: int = DEFAULT_PANEL_ORDER
    edges: np.ndarray = field(init=False, repr=False, compare=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("panel_order", "panels"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, not "
                                  f"{value!r}")
        if self.panel_order < 1:
            raise ConfigError("panel_order must be at least 1")
        X = _window(self.half_width)
        if self.panels * self.panel_order < 4:
            raise ConfigError("need at least 4 quadrature points")
        ref_x, ref_w = np.polynomial.legendre.leggauss(self.panel_order)
        edges = np.linspace(-X, X, self.panels + 1)
        mid = (edges[1:] + edges[:-1]) / 2.0
        rad = (edges[1:] - edges[:-1]) / 2.0
        for name, value in (
                ("half_width", X), ("edges", edges),
                ("nodes", (mid[:, None] + rad[:, None] * ref_x).ravel()),
                ("weights", (rad[:, None] * ref_w).ravel())):
            object.__setattr__(self, name, value)

    @property
    def signature(self) -> tuple:
        return (self.half_width, self.panels * self.panel_order)


def build_grid(half_width: float, n_points: int,
               panel_order: int = DEFAULT_PANEL_ORDER) -> QuadratureGrid:
    """The grid of ceil(N / panel_order) panels on [-X, X]."""
    if panel_order < 1:
        raise ConfigError("panel_order must be at least 1")
    X = _window(half_width)
    if n_points < 4:
        raise ConfigError("need at least 4 quadrature points")
    return QuadratureGrid(X, -(-n_points // panel_order), panel_order)


def default_grid() -> QuadratureGrid:
    return build_grid(DEFAULT_HALF_WIDTH, DEFAULT_POINTS)


@dataclass(frozen=True)
class IntegrationParams:
    """Knobs for the Jost integrations.

    half_width is the truncation X shared with the quadrature grids.  rtol
    is the accuracy target of E/c that sizes the Magnus steps: every piece
    between stored points takes the steps whose sixth-order local errors,
    estimated by one step against two half steps, add up to its share of
    rtol over the window [-X, X].  No target below 1e-14 can be met in
    float64, so one is refused.  The renormalization segments are fixed
    (``evans._segment_step``).
    """

    half_width: float = 20.0
    rtol: float = 1e-10

    def __post_init__(self):
        _window(self.half_width)
        if not (0.0 < self.rtol < 1e-2):
            raise ConfigError("rtol out of range (0, 1e-2)")
        if self.rtol < 1e-14:
            raise ConfigError("rtol below 1e-14, which float64 rounding "
                              "cannot meet")
