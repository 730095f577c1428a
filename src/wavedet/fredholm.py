"""Quadrature discretization and regularized determinants.

The integral operators built in :mod:`wavedet.greens` are discretized by a
Nystrom rule and det(I + S) approximates the Fredholm determinant.  Two
details carry all of the accuracy:

* The matrix is assembled in the similarity frame S_ij = K0(x_i, x_j)
  W(x_j) w_j (Green's part times weight times quadrature weight).  It has
  the same determinant and trace powers as the symmetrically weighted form
  |W|^(1/2) K |W|^(1/2)-style matrix, but every xi-dependence is a smooth
  branch times the smooth weight, with no square-root kinks.

* The kernel is only piecewise smooth across the diagonal, which would drag
  composite Gauss-Legendre down to low order.  Entries whose row node and
  column node share a panel are therefore replaced by product integration:
  the two analytic branches are integrated separately against the panel's
  Lagrange basis, restoring the fast panel-wise convergence.  The panels
  are equal, so the sub-rules on either side of each row node and the
  Lagrange basis at their nodes depend only on the node's index within its
  panel.  They are tabulated once per panel order on the reference panel
  (``_panel_tables``), mapped onto every panel at once, and all diagonal
  blocks are formed by a single contraction per lambda.

The Hilbert-Schmidt variant det2 multiplies det(I + S) by exp(-tau) where
tau is the *analytic* trace of the kernel, never the raw matrix diagonal:
the matrix Green's function jumps across the diagonal, so only the
analytically continued trace is trustworthy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

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
    kind: str                 # scalar | system
    block: int                # 1 for scalar kernels, n for system kernels
    diagonal_convention: str


@dataclass(frozen=True)
class DeterminantResult:
    value: complex
    kind: str                 # det1 | det2 | detp
    trace_used: Optional[complex]
    grid_signature: tuple
    condition_hint: float


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


def _lu_det(S: np.ndarray) -> tuple[complex, float]:
    """det(I + S) by partial-pivoted LU, with the pivot-ratio condition
    hint.  A collapsed pivot surfaces as an inf hint, not an exception.
    I + S is formed on a copy of S, without a dense identity."""
    mat = S.copy()
    mat[np.diag_indices_from(mat)] += 1.0
    lu, piv = scipy.linalg.lu_factor(mat, check_finite=False)
    diag = np.diag(lu)
    mags = np.abs(diag)
    hint = float(mags.max() / mags.min()) if mags.min() > 0 else float("inf")
    swaps = np.count_nonzero(piv != np.arange(piv.size))
    value = complex(np.prod(diag))
    return (-value if swaps % 2 else value), hint


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


def _set_panel_blocks(A: np.ndarray, blocks: np.ndarray) -> None:
    """Write blocks (P, b, b) onto the diagonal of A viewed as (P, b, P, b)."""
    P, b = blocks.shape[:2]
    idx = np.arange(P)
    A.reshape(P, b, P, b)[idx, :, idx, :] = blocks


def discretize_scalar(problem: ScalarProblem, lam: complex,
                      grid: QuadratureGrid) -> DiscretizedOperator:
    G = greens.scalar_core_matrix(problem, lam, grid.nodes)
    v = np.asarray(problem.potential(grid.nodes), dtype=complex)
    A = G * (v * grid.weights)[None, :]
    rule = _panel_rule(grid)
    if rule is not None:
        pts, wts, lagrange = rule
        q = pts.shape[-1]
        x = grid.nodes
        F = np.stack([greens.scalar_core_branch(problem, lam, x, pts[0],
                                                "left"),
                      greens.scalar_core_branch(problem, lam, x, pts[1],
                                                "right")])
        vsub = np.asarray(problem.potential(pts.ravel()), dtype=complex)
        F *= wts * vsub.reshape(pts.shape)
        blocks = np.einsum("sPru,sruj->Prj", F.reshape(2, -1, q, q),
                           lagrange)
        _set_panel_blocks(A, blocks)
    return DiscretizedOperator(matrix=A, grid=grid, kind="scalar", block=1,
                               diagonal_convention="continuous-limit")


class _Cumulative:
    """Volterra cumulative F(t) = integral_{-X}^{t} e^(mu (x - t)) f(x) dx.

    Re(mu) > 0, so every exponential is evaluated in decaying shift form.
    Full panels left of t contribute through moments anchored at their own
    right edge; the partial panel is finished with a mapped Gauss rule.
    Used to evaluate the exact second and third operator traces of the
    semi-separable kernel, which exist as iterated one-dimensional
    integrals of smooth decaying integrands.
    """

    def __init__(self, grid: QuadratureGrid, mu: complex, f):
        self.grid = grid
        self.mu = mu
        self.f = f
        edges, q = _gl_panels(grid)
        self.edges = edges
        self.q = q
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

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
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
        return out


def _chain2(grid: QuadratureGrid, mu: complex, f_first, f_second) -> complex:
    """Ordered double integral of e^(mu (x - xi)) f_first(x) f_second(xi)
    over -X <= x < xi <= X."""
    inner = _Cumulative(grid, mu, f_first)(grid.nodes)
    outer = np.asarray(f_second(grid.nodes), dtype=complex)
    return complex(np.sum(grid.weights * outer * inner))


def _chain3(grid: QuadratureGrid, mu1: complex, mu2: complex,
            f1, f2, f3) -> complex:
    """Ordered triple integral of e^(mu1 (x - s)) e^(mu2 (s - t))
    f1(x) f2(s) f3(t) over -X <= x < s < t <= X."""
    F1 = _Cumulative(grid, mu1, f1)

    def mid(x):
        return np.asarray(f2(x), dtype=complex) * F1(np.asarray(x, float))

    F2 = _Cumulative(grid, mu2, mid)
    outer = np.asarray(f3(grid.nodes), dtype=complex)
    return complex(np.sum(grid.weights * outer * F2(grid.nodes)))


def trace_power_scalar(problem: ScalarProblem, lam: complex,
                       grid: QuadratureGrid, power: int) -> complex:
    """Exact second or third iterated trace of the scalar kernel.

    Semi-separability reduces tr(T^power) over the truncated interval to
    sums of ordered one-dimensional integrals whose exponential rates are
    differences of plus and minus roots -- smooth decaying integrands, so
    the composite rule evaluates them to spectral accuracy.  These feed
    the diagonal-defect compensation of the determinants and give tests an
    oracle for the regularization-order identities.
    """
    if power not in (2, 3):
        raise ConfigError("iterated traces implemented for powers 2 and 3")
    if _gl_panels(grid) is None:
        raise ConfigError("iterated traces need a composite Gauss grid")
    roots, coeff = greens.green_data(problem, lam)
    m = problem.deriv_order
    a = np.array(coeff.alpha)
    k = roots.k
    v = problem.potential
    if power == 2:
        total = 0.0 + 0.0j
        for j, kp in enumerate(roots.plus):
            for i, km in enumerate(roots.minus):
                c = a[j] * kp ** m * a[k + i] * km ** m
                total += c * _chain2(grid, kp - km, v, v)
        return 2.0 * total
    total = 0.0 + 0.0j
    for j1, kp1 in enumerate(roots.plus):
        c1 = a[j1] * kp1 ** m
        for i3, km3 in enumerate(roots.minus):
            c3 = a[k + i3] * km3 ** m
            for j2, kp2 in enumerate(roots.plus):
                c2 = a[j2] * kp2 ** m
                total += c1 * c2 * c3 * _chain3(grid, kp1 - km3, kp2 - km3,
                                                v, v, v)
            for i2, km2 in enumerate(roots.minus):
                c2 = a[k + i2] * km2 ** m
                total += c1 * c2 * c3 * _chain3(grid, kp1 - km3, kp1 - km2,
                                                v, v, v)
    return 3.0 * total


def _weight_samples(system: SystemProblem, xs: np.ndarray) -> np.ndarray:
    """The folded weight -(R(x) - R_inf) at every point of xs, shape
    xs.shape + (n, n), from one pass of per-point perturbation calls."""
    xs = np.asarray(xs, dtype=float)
    W = np.stack([-system.decaying_part(float(x)) for x in xs.ravel()])
    return W.reshape(xs.shape + W.shape[1:])


class _WeightElements:
    """Matrix elements Pinv[a] W(x) P[:, b] of the folded perturbation,
    sampled with a per-point cache shared across all root combinations."""

    def __init__(self, system: SystemProblem, basis: UnperturbedBasis):
        self.system = system
        self.basis = basis
        self._cache: dict = {}

    def _samples(self, pts: np.ndarray) -> np.ndarray:
        key = pts.tobytes()
        got = self._cache.get(key)
        if got is None:
            got = _weight_samples(self.system, pts)
            self._cache[key] = got
        return got

    def elem(self, a: int, b: int):
        def f(x):
            x = np.asarray(x, dtype=float)
            Wv = self._samples(x)
            return np.einsum("a,tab,b->t", self.basis.Pinv[a, :], Wv,
                             self.basis.P[:, b])
        return f


def trace_power_system(system: SystemProblem, lam: complex,
                       grid: QuadratureGrid, power: int,
                       basis: Optional[UnperturbedBasis] = None) -> complex:
    """Exact second or third iterated trace of the matrix kernel.

    Same reduction as the scalar version; each branch term of the matrix
    Green's function is a rank-one P-column/Pinv-row pair, so the iterated
    traces are chains of scalar weight elements Pinv[a] W(x) P[:, b] with
    root-difference decay rates.  Reduces to the scalar result on
    companion systems derived from a scalar problem.
    """
    if power not in (2, 3):
        raise ConfigError("iterated traces implemented for powers 2 and 3")
    if _gl_panels(grid) is None:
        raise ConfigError("iterated traces need a composite Gauss grid")
    if basis is None:
        basis = _default_basis(system, lam)
    k = basis.k
    n = basis.roots.n
    elems = _WeightElements(system, basis)
    plus = range(k)
    minus = range(k, n)
    if power == 2:
        total = 0.0 + 0.0j
        for j in plus:
            kp = basis.roots.all[j]
            for i in minus:
                km = basis.roots.all[i]
                total += -_chain2(grid, kp - km, elems.elem(i, j),
                                  elems.elem(j, i))
        return 2.0 * total
    total = 0.0 + 0.0j
    for j1 in plus:
        kp1 = basis.roots.all[j1]
        for i3 in minus:
            km3 = basis.roots.all[i3]
            for j2 in plus:
                kp2 = basis.roots.all[j2]
                total += _chain3(grid, kp1 - km3, kp2 - km3,
                                 elems.elem(i3, j1), elems.elem(j1, j2),
                                 elems.elem(j2, i3))
            for i2 in minus:
                km2 = basis.roots.all[i2]
                total += -_chain3(grid, kp1 - km3, kp1 - km2,
                                  elems.elem(i3, j1), elems.elem(i2, i3),
                                  elems.elem(j1, i2))
    return 3.0 * total


def det1(problem: ScalarProblem, lam: complex,
         grid: QuadratureGrid) -> DeterminantResult:
    """Fredholm determinant of the scalar kernel.

    The ratio of det(I + S) to the true determinant is exactly
    exp(sum_l (-1)^(l+1)/l (tr S^l - tr T^l)), and for a kernel with a
    diagonal kink the low trace orders dominate that defect.  The first
    three analytic traces are available here -- the first from the
    interface coefficients, the second and third from the semi-separable
    structure -- so det(I + S) is reported with those orders compensated,
    leaving only the rapidly shrinking l >= 4 tail.
    """
    tau = trace_scalar(problem, lam)
    op = discretize_scalar(problem, lam, grid)
    S = op.matrix
    raw, hint = _lu_det(S)
    correction = tau - np.trace(S)
    if _gl_panels(grid) is not None:
        S2 = S @ S
        t2 = complex(np.trace(S2))
        t3 = complex(np.sum(S2 * S.T))
        correction -= (trace_power_scalar(problem, lam, grid, 2) - t2) / 2.0
        correction += (trace_power_scalar(problem, lam, grid, 3) - t3) / 3.0
    value = raw * np.exp(correction)
    return DeterminantResult(value=value, kind="det1", trace_used=tau,
                             grid_signature=grid.signature,
                             condition_hint=hint)


def trace_scalar(problem: ScalarProblem, lam: complex) -> complex:
    """Analytic trace: sum over plus roots of alpha_j kappa_j^m times the
    integral of the potential."""
    roots, coeff = greens.green_data(problem, lam)
    a = np.array(coeff.alpha[:roots.k])
    kp = np.array(roots.plus)
    return complex(np.sum(a * kp ** problem.deriv_order)
                   * problem.potential_integral())


def _default_basis(system: SystemProblem, lam: complex) -> UnperturbedBasis:
    return greens.system_basis(system, lam)


def _bs_weight_integral(system: SystemProblem,
                        grid: QuadratureGrid) -> np.ndarray:
    return np.einsum("t,tab->ab", grid.weights,
                     _weight_samples(system, grid.nodes))


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
        basis = _default_basis(system, lam)
    M = _bs_weight_integral(system, grid)
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


def discretize_system(system: SystemProblem, lam: complex,
                      grid: QuadratureGrid,
                      basis: Optional[UnperturbedBasis] = None
                      ) -> DiscretizedOperator:
    if basis is None:
        basis = _default_basis(system, lam)
    xs = grid.nodes
    N = xs.size
    n = system.dimension
    k = basis.k
    WV = _weight_samples(system, xs) * grid.weights[:, None, None]
    D = xs[:, None] - xs[None, :]
    lower = D < 0
    upper = D > 0
    kernel = np.zeros((N, n, N, n), dtype=complex)
    for j, kap in enumerate(basis.roots.all):
        E = np.zeros((N, N), dtype=complex)
        if j < k:
            E[lower] = -np.exp(kap * D[lower])
        else:
            E[upper] = np.exp(kap * D[upper])
        vrow = np.einsum("a,jab->jb", basis.Pinv[j, :], WV)
        kernel += np.einsum("ij,a,jb->iajb", E, basis.P[:, j], vrow,
                            optimize=True)
    idx = np.arange(N)
    kernel[idx, :, idx, :] = basis.projector_minus() @ WV
    A = kernel.reshape(N * n, N * n)
    rule = _panel_rule(grid)
    if rule is not None:
        pts, wts, lagrange = rule
        q = pts.shape[-1]
        blocks = np.stack([greens.green_branch_blocks(basis, xs, pts[0],
                                                      "left"),
                           greens.green_branch_blocks(basis, xs, pts[1],
                                                      "right")])
        prod = blocks @ _weight_samples(system, pts)
        prod *= wts[..., None, None]
        diag = np.einsum("sPruab,sruj->Prajb",
                         prod.reshape(2, -1, q, q, n, n), lagrange)
        _set_panel_blocks(A, diag.reshape(-1, q * n, q * n))
    return DiscretizedOperator(matrix=A, grid=grid, kind="system", block=n,
                               diagonal_convention="minus-branch-projector")


def det2(system: SystemProblem, lam: complex, grid: QuadratureGrid,
         basis: Optional[UnperturbedBasis] = None) -> DeterminantResult:
    """Hilbert-Schmidt regularized determinant det(I + S) exp(-tr S).

    The matrix trace in the exponent deliberately mirrors the trace error
    of det(I + S), so the two cancel and the result estimates the
    regularized determinant to the full panel order.  The analytic trace is
    still computed: it validates the sign conventions (both choices must
    agree) and is reported for the det / det2 conversion.
    """
    if basis is None:
        basis = _default_basis(system, lam)
    tau = trace_system(system, lam, grid, basis)
    op = discretize_system(system, lam, grid, basis)
    S = op.matrix
    raw, hint = _lu_det(S)
    correction = -np.trace(S)
    if _gl_panels(grid) is not None:
        S2 = S @ S
        t2 = complex(np.trace(S2))
        t3 = complex(np.sum(S2 * S.T))
        correction -= (trace_power_system(system, lam, grid, 2, basis)
                       - t2) / 2.0
        correction += (trace_power_system(system, lam, grid, 3, basis)
                       - t3) / 3.0
    value = raw * np.exp(correction)
    return DeterminantResult(value=value, kind="det2",
                             trace_used=tau, grid_signature=grid.signature,
                             condition_hint=hint)


def detp(system: SystemProblem, lam: complex, grid: QuadratureGrid,
         basis: Optional[UnperturbedBasis] = None,
         p: int = 2) -> DeterminantResult:
    """Order-p regularized determinant.

    det(I + S) times exp(sum_{l=1}^{p-1} (-1)^l / l tr(S^l)).  All traces
    are matrix traces: the l = 1 term then cancels the trace error of the
    determinant factor, and the higher powers are accurate because the
    kernel smooths its own diagonal defect.
    """
    if not 2 <= p <= 6:
        raise ConfigError("regularization order must satisfy 2 <= p <= 6")
    if basis is None:
        basis = _default_basis(system, lam)
    tau = trace_system(system, lam, grid, basis)
    op = discretize_system(system, lam, grid, basis)
    S = op.matrix
    raw, hint = _lu_det(S)
    correction = -np.trace(S)
    panels = _gl_panels(grid) is not None
    S2 = S @ S if panels or p > 2 else None
    power = S
    for l in range(2, p):
        power = S2 if l == 2 else power @ S
        correction += (-1.0) ** l / l * complex(np.trace(power))
    if panels:
        discrete = {2: complex(np.trace(S2)), 3: complex(np.sum(S2 * S.T))}
        for l in range(max(2, p), 4):
            gap = (trace_power_system(system, lam, grid, l, basis)
                   - discrete[l])
            correction += (-1.0) ** (l + 1) / l * gap
    return DeterminantResult(value=raw * np.exp(correction), kind="detp",
                             trace_used=tau, grid_signature=grid.signature,
                             condition_hint=hint)


def series_coefficient(problem: ScalarProblem, lam: complex, order: int,
                       grid: Optional[QuadratureGrid] = None) -> complex:
    """Leading expansion coefficients of det(I + B) by direct quadrature.

    order 1 is the quadrature trace; order 2 the double-integral of the
    2 x 2 kernel minors.  Deliberately independent of the LU pipeline so it
    can serve as a cross-check on small-potential problems.
    """
    if order not in (1, 2):
        raise ConfigError("series coefficients implemented for orders 1 and 2")
    if grid is None:
        grid = default_grid()
    G = greens.scalar_kernel_matrix(problem, lam, grid.nodes)
    w = grid.weights
    d = np.diag(G)
    if order == 1:
        return complex(np.sum(w * d))
    t1 = np.sum(w * d)
    t2 = np.einsum("i,j,ij,ji->", w, w, G, G)
    return complex(0.5 * (t1 * t1 - t2))


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
