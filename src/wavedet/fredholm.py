"""Quadrature discretization and regularized determinants.

The scalar Birman-Schwinger kernel of an order-n problem and the matrix
kernel of its first-order system are both semi-separable: sums over the
characteristic roots of rank-one terms

    K(x, xi) = sum_j u_j e^(kappa_j (x - xi)) r_j W(xi),

plus roots on x < xi, minus roots on x >= xi.  One private engine over
such terms (``_Terms``) serves both kernels:

* Nystrom discretization in the similarity frame S_ij = K(x_i, x_j) w_j,
  with the determinant and trace powers of the symmetrically weighted
  |W|^(1/2) K |W|^(1/2) form but no square-root kinks in xi.
* Diagonal-panel product integration: the kernel is only piecewise smooth
  across the diagonal, so entries whose row and column node share a panel
  integrate the two analytic branches separately against the panel's
  Lagrange basis.  The sub-rules depend only on a node's index within its
  panel; they are tabulated once per panel order (``_panel_tables``) and
  all diagonal blocks are formed by one contraction per lambda.
* Exact second and third traces as ordered integrals of the chain
  elements r_a W(x) u_b (``_trace_power``).
* Regularized determinants (``_corrected_det``) that compensate the trace
  defect of det(I + S) with the exact traces, in the log domain of one
  numpy LU (``_lu_det``).  det1 is order 1, with the analytic trace tau
  from the interface coefficients; det2 and detp are orders p >= 2 of the
  matrix kernel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import greens
from .errors import ConfigError, SignMismatch
from .greens import UnperturbedBasis
from .model import ScalarProblem, SystemProblem

__all__ = [
    "QuadratureGrid",
    "DiscretizedOperator",
    "DeterminantResult",
    "build_grid",
    "discretize_scalar",
    "discretize_system",
    "det1",
    "det2",
    "detp",
    "det2_detp",
    "trace_scalar",
    "trace_system",
    "trace_system_pair",
    "trace_power_scalar",
    "trace_power_system",
    "series_coefficient",
    "limit_normalization_check",
    "default_grid",
]

DEFAULT_HALF_WIDTH = 20.0
DEFAULT_POINTS = 400
DEFAULT_PANEL_ORDER = 10


@dataclass(frozen=True)
class QuadratureGrid:
    half_width: float
    nodes: np.ndarray
    weights: np.ndarray
    rule: str
    panel_order: int = DEFAULT_PANEL_ORDER

    @property
    def signature(self) -> tuple:
        return (self.half_width, int(self.nodes.size), self.rule)


@dataclass
class DiscretizedOperator:
    """Weighted kernel matrix ready for determinant evaluation."""

    matrix: np.ndarray
    grid: QuadratureGrid


@dataclass(frozen=True)
class DeterminantResult:
    value: complex
    kind: str                 # det1 | det2 | detp
    trace_used: Optional[complex]
    grid_signature: tuple
    condition_hint: float     # Hadamard ratio of I + S, >= 0, inf if singular


def build_grid(half_width: float, n_points: int,
               rule: str = "gauss_legendre",
               panel_order: int = DEFAULT_PANEL_ORDER) -> QuadratureGrid:
    """Quadrature rule on [-X, X] with total weight 2X.

    gauss_legendre: ceil(N / panel_order) equal panels with panel_order
    points each (the node count is rounded up to a full panel).
    trapezoid: N equally spaced nodes including the endpoints.
    """
    X = float(half_width)
    if not X > 0:
        raise ConfigError("half_width must be positive")
    if n_points < 4:
        raise ConfigError("need at least 4 quadrature points")
    if rule == "trapezoid":
        nodes = np.linspace(-X, X, n_points)
        h = 2.0 * X / (n_points - 1)
        weights = np.full(n_points, h)
        weights[0] = weights[-1] = h / 2.0
        return QuadratureGrid(X, nodes, weights, rule, panel_order)
    if rule != "gauss_legendre":
        raise ConfigError(f"unknown quadrature rule {rule!r}")
    panels = -(-n_points // panel_order)
    ref_x, ref_w = np.polynomial.legendre.leggauss(panel_order)
    edges = np.linspace(-X, X, panels + 1)
    mid = (edges[1:] + edges[:-1]) / 2.0
    rad = (edges[1:] - edges[:-1]) / 2.0
    nodes = (mid[:, None] + rad[:, None] * ref_x[None, :]).ravel()
    weights = (rad[:, None] * ref_w[None, :]).ravel()
    return QuadratureGrid(X, nodes, weights, rule, panel_order)


def default_grid() -> QuadratureGrid:
    return build_grid(DEFAULT_HALF_WIDTH, DEFAULT_POINTS)


def _lu_det(S: np.ndarray) -> tuple[complex, float, float]:
    """(sign, log|det(I + S)|) and the condition hint, the Hadamard ratio
    sum_i log ||row_i(I + S)||_2 - log|det(I + S)| (>= 0, inf if singular).

    The LU runs on I + S with unit rows, so the bulk of log|det| is the
    pairwise sum of the log row norms and the log pivots stay small: no
    overflow, underflow or summation drift at large N b.  I + S is formed
    on a copy of S, without a dense identity.
    """
    mat = S.copy()
    mat[np.diag_indices_from(mat)] += 1.0
    norms = np.linalg.norm(mat, axis=1)
    if not norms.all():
        return 0j, float("-inf"), float("inf")
    mat /= norms[:, None]
    sign, logabs = np.linalg.slogdet(mat)
    return (complex(sign), float(np.sum(np.log(norms)) + logabs),
            max(0.0, -float(logabs)))


def _gl_panels(grid: QuadratureGrid):
    """Panel layout of a composite Gauss-Legendre grid, or None if the grid
    does not decompose into full equal panels."""
    if grid.rule != "gauss_legendre":
        return None
    q = grid.panel_order
    N = grid.nodes.size
    if N % q != 0:
        return None
    panels = N // q
    edges = np.linspace(-grid.half_width, grid.half_width, panels + 1)
    return edges, q


def _lagrange_at(panel_nodes: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """L[..., j] = j-th Lagrange basis polynomial of panel_nodes at pts."""
    L = np.ones(pts.shape + (panel_nodes.size,))
    for j in range(panel_nodes.size):
        for r in range(panel_nodes.size):
            if r != j:
                L[..., j] *= ((pts - panel_nodes[r])
                              / (panel_nodes[j] - panel_nodes[r]))
    return L


@functools.lru_cache(maxsize=None)
def _panel_tables(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Product-integration rule of the reference panel [-1, 1] of order q.

    Row node t_r splits the panel into a left part [-1, t_r] (side 0) and
    a right part [t_r, 1] (side 1), each carrying a q-point Gauss rule.
    Returns the sub-nodes and sub-weights, shape (2, q, q) indexed
    [side, r, u], and the Lagrange table L[side, r, u, j] of the panel's
    j-th basis polynomial at those sub-nodes.  Read-only, shared by every
    grid of this panel order.
    """
    t, w = np.polynomial.legendre.leggauss(q)
    lo = np.stack([np.full(q, -1.0), t])
    hi = np.stack([t, np.full(q, 1.0)])
    half = ((hi - lo) / 2.0)[..., None]
    sub = ((lo + hi) / 2.0)[..., None] + half * t
    tables = (sub, half * w, _lagrange_at(t, sub))
    for arr in tables:
        arr.flags.writeable = False
    return tables


def _panel_rule(grid: QuadratureGrid):
    """Diagonal-panel product-integration rule of a composite Gauss grid.

    Returns the sub-nodes and sub-weights of every row, shape (2, N, q)
    indexed [side, row, u] (side 0 integrates from the panel's left edge to
    the row node, side 1 from the row node to its right edge), with the
    reference Lagrange table of ``_panel_tables``; None if the grid has no
    panel layout.
    """
    layout = _gl_panels(grid)
    if layout is None:
        return None
    edges, q = layout
    sub, sub_w, lagrange = _panel_tables(q)
    mid = ((edges[1:] + edges[:-1]) / 2.0)[:, None, None]
    rad = ((edges[1:] - edges[:-1]) / 2.0)[:, None, None]
    N = grid.nodes.size
    pts = (mid + rad * sub[:, None]).reshape(2, N, q)
    wts = (rad * sub_w[:, None]).reshape(2, N, q)
    return pts, wts, lagrange


@dataclass(frozen=True)
class _Terms:
    """Rank-one terms of a semi-separable kernel

        K(x, xi) = sum_j u_j e^(kappa_j (x - xi)) r_j W(xi),

    the first k terms (Re kappa_j > 0) on x < xi, the others on x >= xi.
    u and r hold the column and row factors u_j, r_j as rows, shape (n, b);
    weight maps points of shape S to the b x b weights, shape S + (b, b).
    """

    kappa: np.ndarray
    k: int
    u: np.ndarray
    r: np.ndarray
    weight: Callable[[np.ndarray], np.ndarray]

    def branch(self, d: np.ndarray, side: int) -> np.ndarray:
        """K without the weight at offsets d = x - xi, shape
        d.shape + (b, b), from one branch continued past the diagonal:
        side 0 the x >= xi terms, side 1 the x < xi terms."""
        sel = slice(self.k, None) if side == 0 else slice(0, self.k)
        E = np.exp(d[..., None] * self.kappa[sel])
        return np.einsum("...j,ja,jb->...ab", E, self.u[sel], self.r[sel])


def _scalar_terms(problem: ScalarProblem, lam: complex) -> _Terms:
    """u_j = 1, r_j = alpha_j kappa_j^m, W = v; the sign of the m-th
    derivative is folded in, so det(I + K) is the determinant for every m."""
    roots, coeff = greens.green_data(problem, lam)
    kappa = np.array(roots.all)
    r = np.array(coeff.alpha) * kappa ** problem.deriv_order

    def weight(x):
        return np.asarray(problem.potential(x), dtype=complex)[..., None, None]
    return _Terms(kappa, roots.k, np.ones((kappa.size, 1)), r[:, None],
                  weight)


def _system_terms(system: SystemProblem, basis: UnperturbedBasis) -> _Terms:
    """u_j = -P[:, j] (plus roots) or +P[:, j] (minus roots),
    r_j = Pinv[j, :], W = -(R - R_inf): the eigenvalue condition reads
    (I - K0 R) Y = 0, and the folded sign keeps the det(I + .) form."""
    kappa = np.array(basis.roots.all)
    sign = np.where(np.arange(kappa.size) < basis.k, -1.0, 1.0)
    return _Terms(kappa, basis.k, sign[:, None] * basis.P.T, basis.Pinv,
                  functools.partial(_weight_samples, system))


def _node_matrix(terms: _Terms, xs: np.ndarray,
                 weights: np.ndarray) -> np.ndarray:
    """S_ij = K(x_i, x_j) W(x_j) w_j on a node set, node-major
    (N b, N b); the diagonal takes the x >= xi branch."""
    N = xs.size
    b = terms.u.shape[1]
    rows = np.einsum("jc,tcd->jtd", terms.r,
                     terms.weight(xs) * weights[:, None, None])
    D = xs[:, None] - xs[None, :]
    S = np.zeros((N, b, N, b), dtype=complex)
    for j, kap in enumerate(terms.kappa):
        on = D < 0 if j < terms.k else D >= 0
        E = np.zeros((N, N), dtype=complex)
        E[on] = np.exp(kap * D[on])
        S += np.einsum("il,a,lc->ialc", E, terms.u[j], rows[j],
                       optimize=True)
    return S.reshape(N * b, N * b)


def _discretize(terms: _Terms, grid: QuadratureGrid) -> np.ndarray:
    """Nystrom matrix of the terms, diagonal panels by product
    integration on composite Gauss grids."""
    S = _node_matrix(terms, grid.nodes, grid.weights)
    rule = _panel_rule(grid)
    if rule is not None:
        pts, wts, lagrange = rule
        q = pts.shape[-1]
        b = terms.u.shape[1]
        d = grid.nodes[:, None] - pts
        prod = np.stack([terms.branch(d[0], 0), terms.branch(d[1], 1)])
        prod = prod @ terms.weight(pts)
        prod *= wts[..., None, None]
        blocks = np.einsum("sPruab,sruj->Prajb",
                           prod.reshape(2, -1, q, q, b, b), lagrange)
        P = blocks.shape[0]
        idx = np.arange(P)
        S.reshape(P, q, b, P, q, b)[idx, :, :, idx] = blocks
    return S


def discretize_scalar(problem: ScalarProblem, lam: complex,
                      grid: QuadratureGrid) -> DiscretizedOperator:
    return DiscretizedOperator(_discretize(_scalar_terms(problem, lam), grid),
                               grid)


def discretize_system(system: SystemProblem, lam: complex,
                      grid: QuadratureGrid,
                      basis: Optional[UnperturbedBasis] = None
                      ) -> DiscretizedOperator:
    if basis is None:
        basis = greens.system_basis(system, lam)
    return DiscretizedOperator(_discretize(_system_terms(system, basis),
                                           grid), grid)


class _Cumulative:
    """Volterra cumulative F(t) = integral_{-X}^{t} e^(mu (x - t)) f(x) dx.

    Re(mu) > 0, so every exponential is evaluated in decaying shift form.
    Full panels left of t contribute through moments anchored at their own
    right edge; the partial panel is finished with a mapped Gauss rule.
    Used to evaluate the exact second and third operator traces of the
    semi-separable kernel, which exist as iterated one-dimensional
    integrals of smooth decaying integrands; values are kept per point set.
    """

    def __init__(self, grid: QuadratureGrid, mu: complex, f):
        self.mu = mu
        self.f = f
        edges, q = _gl_panels(grid)
        self.edges = edges
        self.ref_x, self.ref_w = np.polynomial.legendre.leggauss(q)
        nodes = grid.nodes
        fn = np.asarray(f(nodes), dtype=complex)
        P = edges.size - 1
        # moment of panel p anchored at its right edge
        m = np.empty(P, dtype=complex)
        for p in range(P):
            s = slice(p * q, (p + 1) * q)
            m[p] = np.sum(grid.weights[s] * fn[s]
                          * np.exp(mu * (nodes[s] - edges[p + 1])))
        self.panel_moment = m
        self._values: dict = {}

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        key = pts.tobytes()
        if key in self._values:
            return self._values[key]
        out = np.zeros(pts.size, dtype=complex)
        edges = self.edges
        mu = self.mu
        pidx = np.clip(np.searchsorted(edges, pts, side="right") - 1,
                       0, edges.size - 2)
        for p in np.unique(pidx):
            sel = pidx == p
            t = pts[sel]
            if p > 0:
                E = np.exp(mu * (edges[1:p + 1][None, :] - t[:, None]))
                out[sel] += E @ self.panel_moment[:p]
            half = (t - edges[p])[:, None] / 2.0
            sub = (edges[p] + t)[:, None] / 2.0 + half * self.ref_x[None, :]
            fw = np.asarray(self.f(sub.ravel()), dtype=complex)
            fw = fw.reshape(sub.shape)
            out[sel] += np.sum(half * self.ref_w[None, :] * fw
                               * np.exp(mu * (sub - t[:, None])), axis=1)
        self._values[key] = out
        return out


def _chain2(grid: QuadratureGrid, mu: complex, f_first, f_second) -> complex:
    """Ordered double integral of e^(mu (x - xi)) f_first(x) f_second(xi)
    over -X <= x < xi <= X."""
    inner = _Cumulative(grid, mu, f_first)(grid.nodes)
    outer = np.asarray(f_second(grid.nodes), dtype=complex)
    return complex(np.sum(grid.weights * outer * inner))


def _chain3(grid: QuadratureGrid, F1: _Cumulative, mu2: complex,
            f2, f3) -> complex:
    """Ordered triple integral of e^(mu1 (x - s)) e^(mu2 (s - t))
    f1(x) f2(s) f3(t) over -X <= x < s < t <= X, given the cumulative
    F1 = _Cumulative(grid, mu1, f1)."""

    def mid(x):
        return np.asarray(f2(x), dtype=complex) * F1(np.asarray(x, float))

    return _chain2(grid, mu2, mid, f3)


class _Elements:
    """Chain elements r_a W(x) u_b, all pairs (a, b) at once per point set,
    cached so one trace samples the weight once per point set."""

    def __init__(self, terms: _Terms):
        n, b = terms.u.shape
        self.weight = terms.weight
        # r_a W u_b = sum_cd r_ac u_bd W_cd: one product per point set
        self.pairs = np.einsum("ac,bd->abcd", terms.r,
                               terms.u).reshape(n, n, b * b)
        self._cache: dict = {}

    def __call__(self, a: int, b: int):
        def f(x):
            x = np.asarray(x, dtype=float)
            key = x.tobytes()
            got = self._cache.get(key)
            if got is None:
                got = self.pairs @ self.weight(x).reshape(x.size, -1).T
                self._cache[key] = got
            return got[a, b]
        return f


def _trace_power(terms: _Terms, grid: QuadratureGrid, power: int) -> complex:
    """Exact second or third iterated trace of the kernel of the terms.

    Semi-separability reduces tr(T^power) over the truncated interval to
    sums of ordered one-dimensional integrals of chain elements whose
    exponential rates are differences of plus and minus roots -- smooth
    decaying integrands, so the composite rule evaluates them to spectral
    accuracy.  These feed the diagonal-defect compensation of the
    determinants and give tests an oracle for the regularization-order
    identities.
    """
    if power not in (2, 3):
        raise ConfigError("iterated traces implemented for powers 2 and 3")
    if _gl_panels(grid) is None:
        raise ConfigError("iterated traces need a composite Gauss grid")
    e = _Elements(terms)
    kap = terms.kappa
    plus = range(terms.k)
    minus = range(terms.k, kap.size)
    if power == 2:
        return 2.0 * sum(_chain2(grid, kap[j] - kap[i], e(i, j), e(j, i))
                         for j in plus for i in minus)
    total = 0.0 + 0.0j
    for j1 in plus:
        for i3 in minus:
            F1 = _Cumulative(grid, kap[j1] - kap[i3], e(i3, j1))
            for j2 in plus:
                total += _chain3(grid, F1, kap[j2] - kap[i3],
                                 e(j1, j2), e(j2, i3))
            for i2 in minus:
                total += _chain3(grid, F1, kap[j1] - kap[i2],
                                 e(i2, i3), e(j1, i2))
    return 3.0 * total


def trace_power_scalar(problem: ScalarProblem, lam: complex,
                       grid: QuadratureGrid, power: int) -> complex:
    """Exact second or third iterated trace of the scalar kernel."""
    return _trace_power(_scalar_terms(problem, lam), grid, power)


def trace_power_system(system: SystemProblem, lam: complex,
                       grid: QuadratureGrid, power: int,
                       basis: Optional[UnperturbedBasis] = None) -> complex:
    """Exact second or third iterated trace of the matrix kernel; on the
    companion system of an m = 0 scalar problem it is the scalar result."""
    if basis is None:
        basis = greens.system_basis(system, lam)
    return _trace_power(_system_terms(system, basis), grid, power)


def _weight_samples(system: SystemProblem, xs: np.ndarray) -> np.ndarray:
    """The folded weight -(R(x) - R_inf) at every point of xs, shape
    xs.shape + (n, n), from one array call of the perturbation."""
    return -system.decaying_part(xs)


def _corrected_det(S: np.ndarray, exact: dict,
                   orders: Sequence[int]) -> tuple[list, float]:
    """det(I + S) regularized to each order p in orders, with the
    condition hint of ``_lu_det``.

    The order-p determinant is det(I + T) exp(sum_{l<p} (-1)^l / l tr T^l),
    here with matrix traces tr S^l, which cancel the trace error of
    det(I + S) at those orders.  det(I + S) / det(I + T) is
    exp(sum_l (-1)^(l+1)/l (tr S^l - tr T^l)), dominated by the low orders
    for a kernel with a diagonal kink, so each order l >= p with a known
    exact trace exact[l] = tr T^l is compensated.  tr(A B) is
    sum(A * B.T), so S^2 and S^3 are the only products needed up to l = 6.

    The correction is added to log|det(I + S)| before exponentiating, so a
    det(I + S) outside the float64 range still gives every value in range.
    """
    sign, logabs, hint = _lu_det(S)
    top = max([p - 1 for p in orders]
              + [l for l in exact if l >= min(orders)])
    powers = [None, S]
    if top >= 2:
        powers.append(S @ S)
    if top >= 5:
        powers.append(powers[2] @ S)
    t = {1: complex(np.trace(S))}
    for l in range(2, top + 1):
        t[l] = complex(np.sum(powers[(l + 1) // 2] * powers[l // 2].T))
    values = []
    for p in orders:
        correction = sum((-1.0) ** l / l * t[l] for l in range(1, p))
        correction += sum((-1.0) ** (l + 1) / l * (exact[l] - t[l])
                          for l in exact if l >= p)
        values.append(sign * np.exp(logabs + correction))
    return values, hint


def det1(problem: ScalarProblem, lam: complex,
         grid: QuadratureGrid) -> DeterminantResult:
    """Fredholm determinant of the scalar kernel, with the trace defect
    of orders 1-3 compensated (order 1 only on grids without panels)."""
    tau = trace_scalar(problem, lam)
    S = discretize_scalar(problem, lam, grid).matrix
    exact = {1: tau}
    if _gl_panels(grid) is not None:
        for l in (2, 3):
            exact[l] = trace_power_scalar(problem, lam, grid, l)
    (value,), hint = _corrected_det(S, exact, (1,))
    return DeterminantResult(value=value, kind="det1", trace_used=tau,
                             grid_signature=grid.signature,
                             condition_hint=hint)


def trace_scalar(problem: ScalarProblem, lam: complex) -> complex:
    """Analytic trace: sum over plus roots of alpha_j kappa_j^m times the
    integral of the potential."""
    terms = _scalar_terms(problem, lam)
    return complex(np.sum(terms.r[:terms.k]) * problem.potential_integral())


def trace_system_pair(system: SystemProblem, lam: complex,
                      grid: QuadratureGrid,
                      basis: Optional[UnperturbedBasis] = None
                      ) -> tuple[complex, complex]:
    """Both sign choices of the analytic system trace.

    The kernel diagonal from the xi < x side is the constant projector
    Y0+ Z0-, from the other side Y0- Z0+ with opposite sign; both traces
    agree exactly when the integrated diagonal of R vanishes.
    """
    if basis is None:
        basis = greens.system_basis(system, lam)
    M = np.einsum("t,tab->ab", grid.weights,
                  _weight_samples(system, grid.nodes))
    tau_plus = complex(np.trace(basis.projector_minus() @ M))
    tau_minus = complex(-np.trace(basis.projector_plus() @ M))
    return tau_plus, tau_minus


def trace_system(system: SystemProblem, lam: complex, grid: QuadratureGrid,
                 basis: Optional[UnperturbedBasis] = None,
                 tol: float = 1e-8) -> complex:
    tau_plus, tau_minus = trace_system_pair(system, lam, grid, basis)
    scale = max(1.0, abs(tau_plus), abs(tau_minus))
    if abs(tau_plus - tau_minus) > tol * scale:
        raise SignMismatch(
            f"trace sign choices disagree: {tau_plus} vs {tau_minus}; "
            "the perturbation has nonvanishing integrated diagonal")
    return tau_plus


def _system_dets(system: SystemProblem, lam: complex, grid: QuadratureGrid,
                 basis: Optional[UnperturbedBasis],
                 orders: dict) -> list[DeterminantResult]:
    """Regularized determinants of the matrix kernel, one per kind -> p
    entry of orders, from one discretization, one LU and one evaluation
    of each exact trace.  The analytic trace validates the sign
    conventions and is reported for the det / det2 conversion."""
    if not all(2 <= p <= 6 for p in orders.values()):
        raise ConfigError("regularization order must satisfy 2 <= p <= 6")
    if basis is None:
        basis = greens.system_basis(system, lam)
    tau = trace_system(system, lam, grid, basis)
    S = discretize_system(system, lam, grid, basis).matrix
    exact = {}
    if _gl_panels(grid) is not None:
        for l in range(min(orders.values()), 4):
            exact[l] = trace_power_system(system, lam, grid, l, basis)
    values, hint = _corrected_det(S, exact, list(orders.values()))
    return [DeterminantResult(value=value, kind=kind, trace_used=tau,
                              grid_signature=grid.signature,
                              condition_hint=hint)
            for kind, value in zip(orders, values)]


def det2(system: SystemProblem, lam: complex, grid: QuadratureGrid,
         basis: Optional[UnperturbedBasis] = None) -> DeterminantResult:
    """Hilbert-Schmidt regularized determinant det(I + S) exp(-tr S).

    The matrix trace in the exponent deliberately mirrors the trace error
    of det(I + S), so the two cancel and the result estimates the
    regularized determinant to the full panel order.
    """
    return _system_dets(system, lam, grid, basis, {"det2": 2})[0]


def detp(system: SystemProblem, lam: complex, grid: QuadratureGrid,
         basis: Optional[UnperturbedBasis] = None,
         p: int = 2) -> DeterminantResult:
    """Order-p regularized determinant
    det(I + S) exp(sum_{l=1}^{p-1} (-1)^l / l tr(S^l)), 2 <= p <= 6."""
    return _system_dets(system, lam, grid, basis, {"detp": p})[0]


def det2_detp(system: SystemProblem, lam: complex, grid: QuadratureGrid,
              p: int, basis: Optional[UnperturbedBasis] = None
              ) -> tuple[DeterminantResult, DeterminantResult]:
    """``det2`` and ``detp`` of one lambda from one discretization, one LU
    and one evaluation of each exact trace."""
    return tuple(_system_dets(system, lam, grid, basis,
                              {"det2": 2, "detp": p}))


def series_coefficient(problem: ScalarProblem, lam: complex, order: int,
                       grid: Optional[QuadratureGrid] = None) -> complex:
    """Leading expansion coefficients of det(I + B) by direct quadrature.

    order 1 is the quadrature trace; order 2 the double-integral of the
    2 x 2 kernel minors, both read off the plain node matrix of the
    kernel (no product integration).  Deliberately independent of the LU
    pipeline so it can serve as a cross-check on small-potential problems.
    """
    if order not in (1, 2):
        raise ConfigError("series coefficients implemented for orders 1 and 2")
    if grid is None:
        grid = default_grid()
    S = _node_matrix(_scalar_terms(problem, lam), grid.nodes, grid.weights)
    t1 = complex(np.trace(S))
    if order == 1:
        return t1
    return complex(0.5 * (t1 * t1 - np.sum(S * S.T)))


def limit_normalization_check(problem: ScalarProblem,
                              lambdas: Sequence[float],
                              grid: Optional[QuadratureGrid] = None
                              ) -> list[float]:
    """|det1 - 1| along the positive real axis; the caller asserts decay."""
    if grid is None:
        grid = default_grid()
    out = []
    for lam in lambdas:
        lam = complex(lam)
        if abs(lam.imag) > 0 or lam.real <= 0:
            raise ConfigError("normalization check expects positive real lambda")
        out.append(abs(det1(problem, lam, grid).value - 1.0))
    return out
