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
  elements r_a W(x) u_b (``_traces``), all root pairs in one pass of the
  contractive panel recurrence C_(p+1) = e^(-mu h) C_p + m_p.  They read
  W at the nodes and the panel sub-nodes, sampled once per lambda
  (``_Samples``) and shared with the discretization, and at the panel
  sub-sub-nodes, sampled by the traces alone.
* The Nystrom matrix in quasiseparable form (``_blocks``): diagonal
  blocks of panel_order nodes on every grid (the product-integration
  panels on composite Gauss grids), the plus terms above them and the
  minus terms below as generators anchored at the block edges, and the
  contractive transitions e^(-kappa h) between blocks.  log det(I + S) is
  one orthogonal elimination on the generators, backward stable without
  pivoting, with one small numpy QR per block (``_sweep``; Chandrasekaran
  et al., SIAM J. Matrix Anal. Appl. 27 (2005); Eidelman and Gohberg,
  IEOT 34 (1999)), and tr S, tr S^2, tr S^3 come from a left and a right
  sweep over the same generators (``_block_traces``): the dense
  N b x N b matrix is never formed.
* Regularized determinants (``_corrected_det``) that compensate the trace
  defect of det(I + S) with the exact traces, in the log domain.  det1 is
  order 1, with the analytic trace tau from the interface coefficients;
  det2 and detp are orders 2 <= p <= 4 of the matrix kernel.
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
    "DeterminantResult",
    "build_grid",
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


@dataclass(frozen=True)
class DeterminantResult:
    value: complex
    kind: str                 # det1 | det2 | detp
    trace_used: Optional[complex]
    grid_signature: tuple
    # sum of the column Hadamard ratios log(||R[:i+1, i]|| / |R_ii|) of the
    # QR sweep's triangular factor, >= 0, inf if singular
    condition_hint: float


def build_grid(half_width: float, n_points: int,
               rule: str = "gauss_legendre",
               panel_order: int = DEFAULT_PANEL_ORDER) -> QuadratureGrid:
    """Quadrature rule on [-X, X] with total weight 2X.

    gauss_legendre: ceil(N / panel_order) equal panels with panel_order
    points each (the node count is rounded up to a full panel).
    trapezoid: N equally spaced nodes including the endpoints.
    On either rule panel_order >= 1 is also the block size of the
    determinant sweep.
    """
    X = float(half_width)
    if panel_order < 1:
        raise ConfigError("panel_order must be at least 1")
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
def _panel_tables(q: int) -> tuple[np.ndarray, ...]:
    """Product-integration and partial-panel rules of the reference panel
    [-1, 1] of order q.

    Row node t_r splits the panel into a left part [-1, t_r] (side 0) and
    a right part [t_r, 1] (side 1), each carrying a q-point Gauss rule.
    Returns the sub-nodes and sub-weights, shape (2, q, q) indexed
    [side, r, u], the Lagrange table L[side, r, u, j] of the panel's j-th
    basis polynomial at those sub-nodes, and the Gauss rule of [-1, s]
    for every side-0 sub-node s, shape (q, q, q).  Read-only, shared by
    every grid of this panel order.
    """
    t, w = np.polynomial.legendre.leggauss(q)
    lo = np.stack([np.full(q, -1.0), t])
    hi = np.stack([t, np.full(q, 1.0)])
    half = ((hi - lo) / 2.0)[..., None]
    sub = ((lo + hi) / 2.0)[..., None] + half * t
    half2 = ((sub[0] + 1.0) / 2.0)[..., None]
    sub2 = ((sub[0] - 1.0) / 2.0)[..., None] + half2 * t
    tables = (sub, half * w, _lagrange_at(t, sub), sub2, half2 * w)
    for arr in tables:
        arr.flags.writeable = False
    return tables


def _panel_rule(grid: QuadratureGrid):
    """``_panel_tables`` mapped onto every panel of a composite Gauss
    grid, None if the grid has no panel layout: pts, wts of shape
    (2, N, q) indexed [side, row, u], the Lagrange table, and pts2, wts2
    of shape (N, q, q) indexed [row, u, v]."""
    layout = _gl_panels(grid)
    if layout is None:
        return None
    edges, q = layout
    sub, sub_w, lagrange, sub2, sub2_w = _panel_tables(q)
    mid = ((edges[1:] + edges[:-1]) / 2.0)[:, None, None]
    rad = ((edges[1:] - edges[:-1]) / 2.0)[:, None, None]
    N = grid.nodes.size
    pts = (mid + rad * sub[:, None]).reshape(2, N, q)
    wts = (rad * sub_w[:, None]).reshape(2, N, q)
    pts2 = (mid[..., None] + rad[..., None] * sub2).reshape(N, q, q)
    wts2 = (rad[..., None] * sub2_w).reshape(N, q, q)
    return pts, wts, lagrange, pts2, wts2


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

    def elements(self, W: np.ndarray, rows: slice = slice(None),
                 cols: slice = slice(None)) -> np.ndarray:
        """r_a W(x) u_b at the samples W, shape (a, b) + points."""
        return np.einsum("ac,...cd,bd->ab...", self.r[rows], W,
                         self.u[cols])


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
                  lambda x: -system.decaying_part(x))


@dataclass(frozen=True)
class _Samples:
    """One lambda's W at the nodes and at the ``_panel_rule`` sub-nodes
    (panel)."""

    grid: QuadratureGrid
    rule: Optional[tuple]
    nodes: np.ndarray
    panel: Optional[np.ndarray] = None


def _sample(terms: _Terms, grid: QuadratureGrid) -> _Samples:
    rule = _panel_rule(grid)
    W = terms.weight(grid.nodes)
    if rule is None:
        return _Samples(grid, None, W)
    return _Samples(grid, rule, W, terms.weight(rule[0]))


def _node_matrix(terms: _Terms, grid: QuadratureGrid,
                 W: np.ndarray) -> np.ndarray:
    """S_ij = K(x_i, x_j) W(x_j) w_j on the nodes, node-major (N b, N b),
    from W at the nodes; the diagonal takes the x >= xi branch."""
    xs, N, b = grid.nodes, grid.nodes.size, terms.u.shape[1]
    rows = np.einsum("jc,tcd->jtd", terms.r, W * grid.weights[:, None, None])
    D = xs[:, None] - xs[None, :]
    S = np.zeros((N, b, N, b), dtype=complex)
    for j, kap in enumerate(terms.kappa):
        on = D < 0 if j < terms.k else D >= 0
        # exp on this branch's side only, written in place: no gathered
        # half-size copies, whose freed blocks stay resident in the heap
        E = np.exp(kap * D, out=np.zeros((N, N), dtype=complex), where=on)
        S += np.einsum("il,a,lc->ialc", E, terms.u[j], rows[j],
                       optimize=True)
    return S.reshape(N * b, N * b)


def _panel_blocks(terms: _Terms, samples: _Samples) -> np.ndarray:
    """Diagonal-panel blocks of a composite Gauss grid by product
    integration, shape (P, q, b, q, b)."""
    pts, wts, lagrange = samples.rule[:3]
    q = pts.shape[-1]
    b = terms.u.shape[1]
    d = samples.grid.nodes[:, None] - pts
    prod = np.stack([terms.branch(d[0], 0), terms.branch(d[1], 1)])
    prod = prod @ samples.panel
    prod *= wts[..., None, None]
    return np.einsum("sPruab,sruj->Prajb",
                     prod.reshape(2, -1, q, q, b, b), lagrange)


def _cumulative(grid: QuadratureGrid, mu: np.ndarray, f: np.ndarray,
                levels: Sequence[tuple]) -> list[np.ndarray]:
    """Volterra cumulatives F_m(t) = integral_{-X}^{t} e^(mu_m (x - t))
    f_m(x) dx of M chains at once, Re(mu_m) > 0, from f_m at the nodes,
    shape (M, N).  Each level (t, s, ws, fs) asks for F at the points t,
    shape (L,), in panel order; s, ws, shape (L, q), is the Gauss rule
    from the left edge of t's panel to t, and fs is f_m there.  The panel
    sums C_p anchored at left edges obey C_(p+1) = e^(-mu h_p) C_p + m_p,
    so every exponential decays.
    """
    edges = _gl_panels(grid)[0]
    M, P = mu.size, edges.size - 1
    x, w = grid.nodes.reshape(P, -1), grid.weights.reshape(P, -1)
    moments = np.sum(f.reshape(M, P, -1) * w
                     * np.exp(mu[:, None, None] * (x - edges[1:, None])), -1)
    decay = np.exp(-mu[:, None] * np.diff(edges))
    C = np.zeros((M, P), dtype=complex)
    for p in range(1, P):
        C[:, p] = decay[:, p - 1] * C[:, p - 1] + moments[:, p - 1]
    out = []
    for t, s, ws, fs in levels:
        per = t.size // P
        F = np.repeat(C, per, axis=1) * np.exp(
            mu[:, None] * (np.repeat(edges[:-1], per) - t))
        out.append(F + np.sum(ws * fs * np.exp(
            mu[:, None, None] * (s - t[:, None])), axis=-1))
    return out


def _traces(terms: _Terms, samples: _Samples) -> tuple[complex, complex]:
    """Exact tr(T^2) and tr(T^3) of the kernel of the terms, as ordered
    integrals of the chain elements r_a W(x) u_b at rates that are
    differences of plus and minus roots: smooth decaying integrands, so
    the composite rule is spectrally accurate.  Chain (j, i), j plus and
    i minus, has the cumulative F_ji of r_i W u_j at rate
    kappa_j - kappa_i; tr(T^2) integrates it against r_j W u_i, and
    tr(T^3) takes one more cumulative of each chain (j, i, c).  W at the
    sub-sub-nodes is sampled here, so it is freed before the block
    generators are formed."""
    grid, (pts, wts, _, pts2, wts2) = samples.grid, samples.rule
    kap, k = terms.kappa, terms.k
    N, q = pts[0].shape
    E = terms.elements(samples.nodes)
    Es = terms.elements(samples.panel[0])
    Ess = terms.elements(terms.weight(pts2), slice(k, None), slice(0, k))
    j, i = np.ogrid[:k, k:kap.size]
    mu = kap[j] - kap[i]
    t, s, ws = grid.nodes, pts[0], wts[0]
    F, Fs = _cumulative(
        grid, mu.ravel(), E[i, j].reshape(mu.size, N),
        [(t, s, ws, Es[i, j].reshape(mu.size, N, q)),
         (s.ravel(), pts2.reshape(-1, q), wts2.reshape(-1, q),
          Ess[i - k, j].reshape(mu.size, -1, q))])
    F, Fs = F.reshape(mu.shape + (1, N)), Fs.reshape(mu.shape + (1, N, q))
    tr2 = 2.0 * np.sum(grid.weights * E[j, i] * F[:, :, 0])
    # chain (j, i, c): c plus at rate kappa_c - kappa_i with middle
    # element r_j W u_c and last r_c W u_i; c minus at rate
    # kappa_j - kappa_c with middle r_c W u_i and last r_j W u_c
    j, i, c = np.ogrid[:k, k:kap.size, :kap.size]
    plus = c < k
    mu = np.where(plus, kap[c] - kap[i], kap[j] - kap[c])
    mid = np.where(plus, j, c), np.where(plus, c, i)
    last = np.where(plus, c, j), np.where(plus, i, c)
    G, = _cumulative(grid, mu.ravel(), (E[mid] * F).reshape(-1, N),
                     [(t, s, ws, (Es[mid] * Fs).reshape(-1, N, q))])
    tr3 = 3.0 * np.sum(grid.weights * E[last].reshape(-1, N) * G)
    return complex(tr2), complex(tr3)


def _trace_power(terms: _Terms, grid: QuadratureGrid, power: int) -> complex:
    if power not in (2, 3):
        raise ConfigError("iterated traces implemented for powers 2 and 3")
    if _gl_panels(grid) is None:
        raise ConfigError("iterated traces need a composite Gauss grid")
    return _traces(terms, _sample(terms, grid))[power - 2]


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


@dataclass(frozen=True)
class _Blocks:
    """S in quasiseparable form over P blocks of q nodes, m = q b rows each
    (a short last block is padded with zero rows and columns):

        S_ps = diag[p]                       p = s
             = gp[p] Phi_ps hp[s]            p < s, Phi_ps = prod ep[t]
             = gm[p] Psi_ps hm[s]            p > s, Psi_ps = prod em[t]

    over the blocks t strictly between p and s.  With e_p the left edge of
    block p, gp = u_j e^(kappa_j (x - e_(p+1))), hp = e^(kappa_j (e_p - xi))
    r_j W w for the plus roots, gm = u_j e^(kappa_j (x - e_p)),
    hm = e^(kappa_j (e_(p+1) - xi)) r_j W w for the minus roots, and the
    transitions ep = e^(-kappa_j h_p), em = e^(kappa_j h_p) over the block
    widths h_p: every exponential is at most 1.  Shapes: diag (P, m, m),
    gp (P, m, k), hp (P, k, m), gm (P, m, n - k), hm (P, n - k, m),
    ep (P, k), em (P, n - k).
    """

    diag: np.ndarray
    gp: np.ndarray
    hp: np.ndarray
    gm: np.ndarray
    hm: np.ndarray
    ep: np.ndarray
    em: np.ndarray


def _blocks(terms: _Terms, samples: _Samples) -> _Blocks:
    """Generators of the Nystrom matrix of the terms on blocks of
    ``panel_order`` ascending nodes, without forming it.  The diagonal
    blocks are the product-integration panels on composite Gauss grids and
    node entries otherwise; block edges are the outer nodes and the
    midpoints between neighbouring blocks."""
    grid = samples.grid
    x, q, k = grid.nodes, grid.panel_order, terms.k
    N, n, b = x.size, terms.kappa.size, terms.u.shape[1]
    P = -(-N // q)
    cut = np.arange(1, P) * q
    edges = np.concatenate([x[:1], (x[cut - 1] + x[cut]) / 2.0, x[-1:]])
    xs = np.pad(x, (0, P * q - N), mode="edge").reshape(P, q)
    valid = (np.arange(P * q) < N).reshape(P, q)
    rows = np.einsum("jc,tcd->jtd", terms.r,
                     samples.nodes * grid.weights[:, None, None])
    rows = np.pad(rows, ((0, 0), (0, P * q - N), (0, 0))).reshape(n, P, q, b)
    kap = terms.kappa
    left, right = edges[:-1, None, None], edges[1:, None, None]
    e_gp = np.exp(kap[:k] * (xs[..., None] - right)) * valid[..., None]
    e_gm = np.exp(kap[k:] * (xs[..., None] - left)) * valid[..., None]
    e_hp = np.exp(kap[:k] * (left - xs[..., None]))
    e_hm = np.exp(kap[k:] * (right - xs[..., None]))
    gp = np.einsum("pij,ja->piaj", e_gp, terms.u[:k]).reshape(P, q * b, k)
    gm = np.einsum("pij,ja->piaj", e_gm, terms.u[k:]).reshape(P, q * b, -1)
    hp = np.einsum("plj,jplc->pjlc", e_hp, rows[:k]).reshape(P, k, q * b)
    hm = np.einsum("plj,jplc->pjlc", e_hm, rows[k:]).reshape(P, -1, q * b)
    h = np.diff(edges)[:, None]
    if samples.rule is not None:
        diag = _panel_blocks(terms, samples)
    else:
        d = (xs[:, :, None] - xs[:, None, :])[..., None]
        on = np.where(np.arange(n) < k, d < 0, d >= 0)
        on &= valid[:, :, None, None]
        E = np.exp(d * kap, out=np.zeros(on.shape, dtype=complex), where=on)
        diag = np.einsum("pilj,ja,jplc->pialc", E, terms.u, rows)
    return _Blocks(diag.reshape(P, q * b, q * b), gp, hp, gm, hm,
                   np.exp(-kap[:k] * h), np.exp(kap[k:] * h))


def _sweep(blocks: _Blocks) -> tuple[complex, float, float]:
    """(sign, log|det(I + S)|) and the condition hint by Householder QR of
    a block-bidiagonal embedding of S.  Block p has the unknowns
    (z_p, x_p, y_p), y_p = ep_(p+1) y_(p+1) + hp_(p+1) x_(p+1) and
    z_(p+1) = em_p z_p + hm_p x_p, whose unit triangular block keeps
    det(I + S).  Step p is one QR of the (M + l) x 2M stack of the rows
    that reach block column p, M = q b + n; its last l = n - k rows carry
    on.  The sign multiplies the pivot phases and the (unitary) reflector
    determinants 1 - tau ||v||^2 = -tau / conj(tau).  The hint sums the
    column Hadamard ratios log(||R[:i+1, i]|| / |R_ii|) (>= 0, inf on a
    zero pivot, where the determinant is 0).
    """
    if blocks.em.shape[1] > blocks.ep.shape[1]:
        # det(I + S^T): its l = k rows mix fewer blocks, none if k = 0
        T = functools.partial(np.swapaxes, axis1=1, axis2=2)
        blocks = _Blocks(T(blocks.diag), T(blocks.hm), T(blocks.gm),
                         T(blocks.hp), T(blocks.gp), blocks.em, blocks.ep)
    P, m = blocks.diag.shape[:2]
    k, l = blocks.ep.shape[1], blocks.em.shape[1]
    M = m + k + l
    # stacks[p]: rows carried (l), x_p (m), y_p (k), z_(p+1) (l); columns
    # (z, x, y) of block p, then of block p + 1 (a unit z_P at the end)
    stacks = np.zeros((P, M + l, 2 * M), dtype=complex)
    x, y = slice(l, l + m), slice(l + m, M)
    stacks[0, :l, :l] = np.eye(l)
    stacks[:, x, :l] = blocks.gm
    stacks[:, x, x] = blocks.diag + np.eye(m)
    stacks[:, x, y] = blocks.gp
    stacks[:, l + m:, l + m:M + l] = np.eye(k + l)
    stacks[:-1, y, M + l:M + l + m] = -blocks.hp[1:]
    stacks[:-1, y, M + l + m:] = -blocks.ep[1:, :, None] * np.eye(k)
    stacks[:-1, M:, :l] = -blocks.em[:-1, :, None] * np.eye(l)
    stacks[:-1, M:, x] = -blocks.hm[:-1]
    # numpy's raw QR is transposed: raw[p, c, r] is R[r, c] for r <= c and
    # the reflector vectors below the diagonal of R
    raw = np.empty((P, 2 * M, M + l), dtype=complex)
    tau = np.empty((P, M + l), dtype=complex)
    carried = np.triu(np.ones((l, M), dtype=bool))
    for p in range(P):
        if p:
            stacks[p, :l, :M] = raw[p - 1, M:, M:].T * carried
        raw[p], tau[p] = np.linalg.qr(stacks[p], mode="raw")
    d = raw[:, np.arange(M), np.arange(M)]
    pivots = np.abs(d)
    if not pivots.all():
        return 0j, float("-inf"), float("inf")
    tau = tau[tau != 0]     # tau = 0 is the identity
    sign = np.prod(d / pivots) * np.prod(-tau / tau.conj())
    columns = np.sum(np.abs(np.tril(raw[:, :M])) ** 2, axis=-1)
    columns[1:] += np.sum(np.abs(raw[:-1, M:, :M]) ** 2, axis=-1)
    hint = np.sum(np.log(np.maximum(1.0, np.sqrt(columns) / pivots)))
    return (complex(sign / abs(sign)), float(np.sum(np.log(pivots))),
            float(hint))


def _block_traces(blocks: _Blocks) -> dict:
    """tr S^l for l = 1, 2, 3 from the generators.

    With S = D + U + L (block diagonal, upper, lower), tr S^2 is
    sum tr D_p^2 + 2 tr(U L), and tr S^3 is sum tr D_p^3 + 3 tr(D (U L +
    L U)) + 3 tr(U U L + U L L).  The off-block parts of the diagonal
    blocks of S^2 are gp_p R_p hm_p + gm_p L_p hp_p, from the left sweep
    L_(p+1) = em L_p ep + hm_p gp_p and the right sweep
    R_(p-1) = ep R_p em + hp_p gm_p; the triple products pass through one
    middle block each.
    """
    D, gp, hp, gm, hm, ep, em = (blocks.diag, blocks.gp, blocks.hp,
                                 blocks.gm, blocks.hm, blocks.ep, blocks.em)
    t = {1: complex(np.trace(D, axis1=1, axis2=2).sum())}
    P = D.shape[0]
    DT = D.transpose(0, 2, 1)
    decay = em[:, :, None] * ep[:, None, :]
    alpha, beta = hm @ gp, hp @ gm
    L = np.zeros_like(alpha)
    for p in range(1, P):
        L[p] = decay[p - 1] * L[p - 1] + alpha[p - 1]
    t[2] = complex(np.sum(D * DT) + 2.0 * np.einsum("pji,pij->", beta, L))
    R = np.zeros_like(beta)
    for p in range(P - 1, 0, -1):
        R[p - 1] = decay[p].T * R[p] + beta[p]
    tr_d3 = np.sum((D @ D) * DT)
    tr_do = (np.einsum("pji,pij->", hm @ D @ gp, R)
             + np.einsum("pij,pji->", hp @ D @ gm, L))
    tr_uul = (np.einsum("pjc,pci,pi,pij->", hp @ gp, R, em, L)
              + np.einsum("pj,pji,pic,pcj->", ep, R, hm @ gm, L))
    t[3] = complex(tr_d3 + 3.0 * tr_do + 3.0 * tr_uul)
    return t


def _corrected_det(sign: complex, logabs: float, t: dict, exact: dict,
                   orders: Sequence[int]) -> list:
    """det(I + S) = sign e^logabs regularized to each order p in orders,
    from the matrix traces t[l] = tr S^l.

    The order-p determinant is det(I + T) exp(sum_{l<p} (-1)^l / l tr T^l),
    here with matrix traces tr S^l, which cancel the trace error of
    det(I + S) at those orders.  det(I + S) / det(I + T) is
    exp(sum_l (-1)^(l+1)/l (tr S^l - tr T^l)), dominated by the low orders
    for a kernel with a diagonal kink, so each order l >= p with a known
    exact trace exact[l] = tr T^l is compensated.

    The correction is added to log|det(I + S)| before exponentiating, so a
    det(I + S) outside the float64 range still gives every value in range.
    """
    values = []
    for p in orders:
        correction = sum((-1.0) ** l / l * t[l] for l in range(1, p))
        correction += sum((-1.0) ** (l + 1) / l * (exact[l] - t[l])
                          for l in exact if l >= p)
        values.append(sign * np.exp(logabs + correction))
    return values


def _regularized(terms: _Terms, samples: _Samples, exact: dict,
                 orders: Sequence[int]) -> tuple[list, float]:
    """``_corrected_det`` of the Nystrom matrix of the terms and the
    condition hint, from the QR sweep and the generator traces."""
    blocks = _blocks(terms, samples)
    sign, logabs, hint = _sweep(blocks)
    return _corrected_det(sign, logabs, _block_traces(blocks), exact,
                          orders), hint


def det1(problem: ScalarProblem, lam: complex,
         grid: QuadratureGrid) -> DeterminantResult:
    """Fredholm determinant of the scalar kernel, with the trace defect
    of orders 1-3 compensated (order 1 only on grids without panels),
    from one root split and one set of weight samples."""
    terms = _scalar_terms(problem, lam)
    tau = complex(np.sum(terms.r[:terms.k]) * problem.potential_integral())
    samples = _sample(terms, grid)
    exact = {1: tau}
    if samples.rule is not None:
        exact[2], exact[3] = _traces(terms, samples)
    (value,), hint = _regularized(terms, samples, exact, (1,))
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
    return _trace_pair(basis, grid, -system.decaying_part(grid.nodes))


def _trace_pair(basis: UnperturbedBasis, grid: QuadratureGrid,
                W: np.ndarray) -> tuple[complex, complex]:
    """``trace_system_pair`` from W = -(R - R_inf) at the nodes."""
    M = np.einsum("t,tab->ab", grid.weights, W)
    tau_plus = complex(np.trace(basis.projector_minus() @ M))
    tau_minus = complex(-np.trace(basis.projector_plus() @ M))
    return tau_plus, tau_minus


def trace_system(system: SystemProblem, lam: complex, grid: QuadratureGrid,
                 basis: Optional[UnperturbedBasis] = None,
                 tol: float = 1e-8) -> complex:
    return _checked_trace(*trace_system_pair(system, lam, grid, basis), tol)


def _checked_trace(tau_plus: complex, tau_minus: complex,
                   tol: float = 1e-8) -> complex:
    scale = max(1.0, abs(tau_plus), abs(tau_minus))
    if abs(tau_plus - tau_minus) > tol * scale:
        raise SignMismatch(
            f"trace sign choices disagree: {tau_plus} vs {tau_minus}; "
            "the perturbation has nonvanishing integrated diagonal")
    return tau_plus


def _check_order(*orders: int) -> None:
    if not all(2 <= p <= 4 for p in orders):
        raise ConfigError("regularization order must satisfy 2 <= p <= 4")


def _system_dets(system: SystemProblem, lam: complex, grid: QuadratureGrid,
                 basis: Optional[UnperturbedBasis],
                 orders: dict) -> list[DeterminantResult]:
    """Regularized determinants of the matrix kernel, one per kind -> p
    entry of orders, from one basis, one set of weight samples, one set
    of block generators, one QR sweep and one pass of the iterated
    traces.  The analytic trace validates the sign conventions and is
    reported for the det / det2 conversion."""
    _check_order(*orders.values())
    if basis is None:
        basis = greens.system_basis(system, lam)
    terms = _system_terms(system, basis)
    samples = _sample(terms, grid)
    tau = _checked_trace(*_trace_pair(basis, grid, samples.nodes))
    exact = {}
    if samples.rule is not None and min(orders.values()) <= 3:
        exact[2], exact[3] = _traces(terms, samples)
    values, hint = _regularized(terms, samples, exact, list(orders.values()))
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
    det(I + S) exp(sum_{l=1}^{p-1} (-1)^l / l tr(S^l)), 2 <= p <= 4."""
    return _system_dets(system, lam, grid, basis, {"detp": p})[0]


def det2_detp(system: SystemProblem, lam: complex, grid: QuadratureGrid,
              p: int, basis: Optional[UnperturbedBasis] = None
              ) -> tuple[DeterminantResult, DeterminantResult]:
    """``det2`` and ``detp`` of one lambda from one set of block
    generators, one QR sweep and one evaluation of each exact trace."""
    return tuple(_system_dets(system, lam, grid, basis,
                              {"det2": 2, "detp": p}))


def series_coefficient(problem: ScalarProblem, lam: complex, order: int,
                       grid: Optional[QuadratureGrid] = None) -> complex:
    """Leading expansion coefficients of det(I + B) by direct quadrature.

    order 1 is the quadrature trace; order 2 the double-integral of the
    2 x 2 kernel minors, both read off the plain node matrix of the
    kernel (no product integration).  Deliberately independent of the
    determinant pipeline so it can serve as a cross-check on
    small-potential problems.
    """
    if order not in (1, 2):
        raise ConfigError("series coefficients implemented for orders 1 and 2")
    if grid is None:
        grid = default_grid()
    terms = _scalar_terms(problem, lam)
    S = _node_matrix(terms, grid, terms.weight(grid.nodes))
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
