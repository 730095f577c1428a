"""Quadrature discretization and regularized determinants.

The scalar Birman-Schwinger kernel of an order-n problem and the matrix
kernel of its first-order system are both semi-separable: sums over the
characteristic roots of rank-one terms

    K(x, xi) = sum_j u_j e^(kappa_j (x - xi)) r_j W(xi),

plus roots on x < xi, minus roots on x >= xi.  One private engine over
such terms (``_Terms``) serves both kernels, with lambda as the leading
batch axis of every layer.  The system weight W = -(R - R_inf) is n x n
but vanishes outside the columns ``SystemProblem.column_support``, the
first c = m + 1 for a first-order form: W = W_c E with E the constant
c x n column selector, so the Nystrom matrix is S = A (I_N (x) E).  By
Sylvester's identity det(I + A B) = det(I + B A), and tr (A B)^l =
tr (B A)^l (Gohberg, Goldberg and Krupnik, Traces and Determinants of
Linear Operators, Birkhauser 2000), the engine runs on the terms with
u_j[cols], of length c, and the n x c samples W_c: N c unknowns instead
of N n.  A general system has c = n, the scalar kernel c = n = 1.

For a ``to_system`` pulse with m = 0 that reduced kernel (c = 1) is the
scalar one, u_j r_j W = -+Pinv[j, n-1] v = alpha_j v, so det1, det2 and
detp are one Fredholm determinant with different trace factors, det2 =
det1 e^(-tr K) (Simon, Adv. Math. 24, 1977): ``determinants_many`` reads
them all off one engine pass on the scalar terms (b = 1, not n).  For
m >= 1 the two kernels are different discretizations; each keeps its own.

* Nystrom discretization in the similarity frame S_ij = K(x_i, x_j) w_j,
  with the determinant and trace powers of the symmetrically weighted
  |W|^(1/2) K |W|^(1/2) form but no square-root kinks in xi.
* Diagonal-panel product integration: the kernel is only piecewise smooth
  across the diagonal, so entries whose row and column node share a panel
  integrate the two analytic branches separately against the panel's
  Lagrange basis.  Every grid is composite Gauss-Legendre on N / q equal
  panels, so the sub-rules and every offset inside a panel depend only on
  a node's index within its panel: they are tabulated over one reference
  panel (``_panel_tables``), and so are the branch exponentials.
* Exact second and third traces as ordered integrals of the chain
  elements r_a W(x) u_b (``_traces``), all root pairs in one pass of the
  contractive panel recurrence C_(p+1) = e^(-mu h) C_p + m_p, on
  exponentially fitted panel weights (``_fitted_rules``, within 2e-14 of
  a 30-digit reference up to |mu| h / 2 = 1e3): exact at large |mu| h,
  from W at the nodes only.  W does not depend on lambda: it is sampled
  once per call at the nodes and the panel sub-nodes (``_Samples``), the
  latter once per bitwise-distinct coordinate of the reference table
  (``_panel_tables``) and gathered.
* The Nystrom matrix in quasiseparable form (``_blocks``): the
  product-integration panels as diagonal blocks, the plus terms above
  them and the minus terms below as generators anchored at the block
  edges, and the contractive transitions e^(-kappa h) between blocks.
  The sign and log|det(I + S)| come from one orthogonal elimination on
  the generators, backward stable without pivoting, with one small
  stacked numpy QR per block (``_sweep``; Chandrasekaran et al., SIAM J.
  Matrix Anal. Appl. 27 (2005); Eidelman and Gohberg, IEOT 34 (1999)), so
  their error is about eps cond(I + S), which no result reports.  tr S,
  tr S^2, tr S^3 come from a left and a right sweep over the same
  generators (``_block_traces``): the dense N c x N c matrix is never
  formed.
* Regularized determinants (``_corrected_det``) that compensate the trace
  defect of det(I + S) with the exact traces, in the log domain.  det1 is
  order 1, with the analytic trace tau from the interface coefficients;
  det2 and detp are orders 2 <= p <= 4 of the matrix kernel.

``determinants_many`` is the one driver, and ``det1_many`` its det1
column: a list of lambdas takes one stacked root split, whose inverse
Vandermonde frames also give the scalar weights alpha.  The lambdas are
grouped by their plus-root count k, and a refused lambda raises the typed
error of the first one in input order.  Each group goes through the
engine (``_regularized``) in slices of at most _SLICE_BUDGET // (N c^2)
lambdas, so the working set does not grow with the list.  ``det1``,
``det2`` and ``detp`` are batches of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import greens, model
from .errors import ConfigError, OutOfRange, SignMismatch, raise_first
# the grid lives in model, so a command validates it before loading this
# module; it is re-exported here under its old names
from .model import (QuadratureGrid, ScalarProblem, SystemProblem, build_grid,
                    default_grid)

__all__ = [
    "QuadratureGrid",
    "DeterminantResult",
    "build_grid",
    "det1",
    "det1_many",
    "det2",
    "detp",
    "determinants_many",
    "default_grid",
]

# lambdas x N c^2 of one engine slice: 8 lambdas of a 200-node scalar
# kernel, two of an 800-node one such as an m = 0 system's
_SLICE_BUDGET = 1600


@dataclass(frozen=True)
class DeterminantResult:
    value: complex
    kind: str                 # det1 | det2 | detp
    trace_used: Optional[complex]
    grid_signature: tuple


def _lagrange_at(panel_nodes: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """L[..., j] = j-th Lagrange basis polynomial of panel_nodes at pts."""
    L = np.ones(pts.shape + (panel_nodes.size,))
    for r, node in enumerate(panel_nodes):
        # the factors of node r, r ascending; exactly 1 for the r-th basis
        # polynomial, which has none
        gap = panel_nodes - node
        gap[r] = 1.0
        factor = (pts[..., None] - node) / gap
        factor[..., r] = 1.0
        L *= factor
    return L


@functools.lru_cache(maxsize=None)
def _panel_tables(q: int) -> tuple[np.ndarray, ...]:
    """Product-integration rules of the reference panel [-1, 1] of order q.

    Returns its Gauss rule t, w, shape (q,) (``model.gauss_rule``).  Row
    node t_r splits the panel into a left part [-1, t_r] (side 0) and a
    right part [t_r, 1] (side 1), each carrying a q-point Gauss rule: the
    sub-nodes and sub-weights, shape (2, q, q) indexed [side, r, u], and
    the Lagrange table L[side, r, u, j] of the panel's j-th basis
    polynomial at those sub-nodes.  Last, the distinct sub-node
    coordinates, ascending, and the index that gathers the table from
    them: they are products of (t + 1) factors, many bitwise equal (at
    q = 10, 142 of 200), so W is evaluated once per distinct one.
    Collected by a set, not np.unique, whose first call imports numpy.ma.
    Read-only, shared by every grid of this panel order: the panels of a
    grid are equal, so every offset inside a panel is one of these times
    the half panel width.
    """
    t, w = model.gauss_rule(q)
    lo = np.stack([np.full(q, -1.0), t])
    hi = np.stack([t, np.full(q, 1.0)])
    half = ((hi - lo) / 2.0)[..., None]
    sub = ((lo + hi) / 2.0)[..., None] + half * t
    values = np.array(sorted(set(sub.ravel().tolist())))
    tables = (sub, half * w, _lagrange_at(t, sub), values,
              np.searchsorted(values, sub))
    for arr in tables:
        arr.flags.writeable = False
    return (t, w) + tables


@functools.lru_cache(maxsize=None)
def _fitted_tables(q: int) -> tuple[np.ndarray, ...]:
    """The read-only tables of ``_fitted_rules`` of order q.  With the
    points s = (-1, t_1, ..., t_q, 1) and steps h_r = s_(r+1) - s_r: h;
    the Taylor coefficients h_r^(k+1) l_j^(k)(s_r) / k! of each Lagrange
    polynomial on each step, [r, k, j], multiplied out from its linear
    factors; the offsets s_r - s_r' of the points r >= 1, clipped at 0,
    and their mask r' <= r; and the Taylor table (18 terms), doubling
    matrix and scales of e^y and psi_k(y)."""
    t = model.gauss_rule(q)[0]
    s = np.concatenate([[-1.0], t, [1.0]])
    h = np.diff(s)
    c = np.zeros((q + 1, q, q))
    c[:, 0] = h[:, None]
    for m in range(q):
        gap = np.where(np.arange(q) == m, np.inf, t - t[m])
        # (s_r - t_m + h_r u) / (t_j - t_m) for j != m, 1 for j = m
        const = np.where(np.isinf(gap), 1.0, (s[:-1, None] - t[m]) / gap)
        c = c * const[:, None] + np.pad(c[:, :-1], ((0, 0), (1, 0), (0, 0))
                                        ) * (h[:, None] / gap)[:, None]
    off = s[1:, None] - s
    fact = [math.factorial(i) for i in range(18 + q)]
    taylor = np.array([[1.0 / fact[i]] + [fact[k] / fact[i + k + 1]
                                          for k in range(q)]
                       for i in range(18)])
    double = np.zeros((q + 1, q + 1))
    for k in range(q):
        double[1:k + 2, k + 1] = [math.comb(k, i) for i in range(k + 1)]
    tables = (h, c, off.clip(0.0), off >= 0.0, taylor, double,
              0.5 ** np.arange(q + 1))
    for arr in tables:
        arr.flags.writeable = False
    return tables


def _fitted_rules(z: np.ndarray, q: int) -> np.ndarray:
    """Exponentially fitted rules of the reference panel of order q at
    rates z, Re z >= 0, shape z.shape + (q + 1, q + 1): row r < q for the
    node t_r, row q for the edge 1; column j < q the weight
    omega_rj(z) = integral_(-1)^(s_r) e^(z (s - s_r)) l_j(s) ds of the j-th
    Lagrange polynomial, column q the anchor e^(-z (s_r + 1)).  The smooth
    factor is interpolated, the exponential integrated exactly (Filon;
    Iserles and Norsett, Proc. R. Soc. A 461 (2005)).

    Step h takes the Taylor expansion of l_j against psi_k(x) =
    integral_0^1 e^(x (1 - u)) u^k du = k! phi_(k+1)(x), x = -z h, bounded
    for Re x <= 0: the series at y = x / 2^s, |y| <= 1/2, doubled back by
    psi_k(2y) = 2^-(k+1) (e^y psi_k(y) + sum_(i<=k) C(k, i) psi_i(y)), the
    scaling and squaring of phi-functions (Hochbruck and Ostermann, Acta
    Numerica 19 (2010)).  The steps add up with their decays, so no sum
    grows with |z|."""
    h, c, off, mask, taylor, double, scale = _fitted_tables(q)
    x = -z[..., None] * h
    s = np.ceil(np.log2(np.abs(x) / 0.5 + 1e-300)).clip(0).astype(int)
    y = (x / 2.0 ** s)[..., None]
    # e^y and psi_k(y) in the columns
    psi = np.cumprod(np.concatenate([np.ones_like(y), np.repeat(
        y, len(taylor) - 1, -1)], -1), -1) @ taylor
    for j in range(int(s.max(initial=0))):
        psi = np.where((s > j)[..., None],
                       (psi[..., :1] * psi + psi @ double) * scale, psi)
    steps = np.einsum("...rk,rkj->...rj", psi[..., 1:], c)
    decay = np.exp(-z[..., None, None] * off) * mask
    return np.concatenate([decay[..., 1:] @ steps, decay[..., :1]], -1)


@dataclass(frozen=True)
class _Terms:
    """Rank-one terms of the semi-separable kernels of L lambdas that
    share the plus-root count k,

        K(x, xi) = sum_j u_j e^(kappa_j (x - xi)) r_j W(xi),

    the first k terms (Re kappa_j > 0) on x < xi, the others on x >= xi.
    kappa has shape (L, n); u and r hold the column and row factors u_j,
    r_j as rows, shapes (L, n, c) and (L, n, b).  The weight W, b x c, is
    the same for every lambda and lives in ``_Samples``; c = b = 1 for the
    scalar kernel, b = n and c the column support for the matrix kernel.
    """

    kappa: np.ndarray
    k: int
    u: np.ndarray
    r: np.ndarray

    def take(self, sel) -> "_Terms":
        return _Terms(self.kappa[sel], self.k, self.u[sel], self.r[sel])

    def branch(self, d: np.ndarray, side: int) -> np.ndarray:
        """K without the weight at offsets d = x - xi, shape
        (L,) + d.shape + (c, b), from one branch continued past the
        diagonal: side 0 the x >= xi terms, side 1 the x < xi terms."""
        sel = slice(self.k, None) if side == 0 else slice(0, self.k)
        kap = self.kappa[:, sel]
        E = np.exp(d[..., None] * kap.reshape(kap.shape[:1] + (1,) * d.ndim
                                              + kap.shape[1:]))
        return np.einsum("l...j,lja,ljb->l...ab", E, self.u[:, sel],
                         self.r[:, sel])

    def elements(self, W: np.ndarray) -> np.ndarray:
        """r_a W(x) u_b at the samples W, shape (L, a, b) + points."""
        return np.einsum("lac,...cd,lbd->lab...", self.r, W, self.u)


def _groups(kappa: np.ndarray, k: np.ndarray, u: np.ndarray,
            r: np.ndarray) -> list[tuple[np.ndarray, _Terms]]:
    """The terms of L lambdas grouped by k: (indices of the group's
    lambdas, their terms), by ascending k.  The k are collected by a set,
    not np.unique, whose first call imports numpy.ma."""
    return [(idx, _Terms(kappa[idx], kk, u[idx], r[idx]))
            for kk in sorted(set(k.tolist()))
            for idx in [np.flatnonzero(k == kk)]]


def _scalar_weight(problem: ScalarProblem) -> Callable:
    """W = v as 1 x 1 matrices, shape x.shape + (1, 1)."""
    def weight(x):
        return np.asarray(problem.potential(x), dtype=complex)[..., None, None]
    return weight


def _scalar_terms(problem: ScalarProblem, lams, bases=None) -> list:
    """``_groups`` of the scalar kernels: u_j = 1, r_j = alpha_j kappa_j^m,
    W = v; the sign of the m-th derivative is folded in, so det(I + K) is
    the determinant for every m.  alpha is read off the inverse frames of
    bases, the first-order form's ``greens.system_bases``, split here if
    not given; a refused lambda raises the first one's error."""
    bases = bases or greens.system_bases(model.to_system(problem), lams)
    kappa, k, _, Pinv, refusals = bases
    raise_first(refusals)
    r = greens._alpha(k, Pinv) * kappa ** problem.deriv_order
    return _groups(kappa, k, np.ones(kappa.shape + (1,)), r[..., None])


def _analytic_traces(problem: ScalarProblem, groups: list,
                     L: int) -> np.ndarray:
    """Analytic traces tau of L lambdas: sum over the plus roots of
    alpha_j kappa_j^m times the integral of the potential."""
    tau = np.empty(L, dtype=complex)
    for idx, terms in groups:
        tau[idx] = (np.sum(terms.r[:, :terms.k, 0], axis=1)
                    * problem.potential_integral())
    return tau


def _system_weight(system: SystemProblem, grid: QuadratureGrid) -> Callable:
    """W_c = -(R - R_inf) on the column support, shape x.shape + (n, c), to
    be integrated on grid.  A front's W jumps at x = 0, so the grid must
    put a panel edge there."""
    if system.is_front and float(np.min(np.abs(grid.edges))) > 1e-9:
        raise ConfigError("front quadrature needs a panel edge at x = 0; "
                          "use a node count divisible into an even panel "
                          "split")
    cols = system.column_support

    def weight(x):
        # negated in place: the n x n samples are the one array formed
        W = system.decaying_part(x)[..., cols]
        return np.negative(W, out=W)
    return weight


def _system_terms(kappa: np.ndarray, k: np.ndarray, P: np.ndarray,
                  Pinv: np.ndarray, cols: slice) -> list:
    """``_groups`` of the matrix kernels on the columns cols: u_j =
    -P[cols, j] (plus roots) or +P[cols, j] (minus roots), r_j =
    Pinv[j, :], W = -(R - R_inf)[:, cols]: the eigenvalue condition reads
    (I - K0 R) Y = 0, and the folded sign keeps the det(I + .) form."""
    sign = np.where(np.arange(kappa.shape[1]) < k[:, None], -1.0, 1.0)
    return _groups(kappa, k, sign[..., None] * P.swapaxes(1, 2)[..., cols],
                   Pinv)


@dataclass(frozen=True)
class _Samples:
    """The weight W, the same for every lambda, at the nodes, shape
    (N, b, c), the half width rad of the equal panels, and W at the
    ``_panel_tables`` sub-nodes of every panel, shape (2, q, q, P, b, c)
    indexed [side, r, u, panel]."""

    grid: QuadratureGrid
    nodes: np.ndarray
    rad: float
    panel: np.ndarray


def _panel_points(grid: QuadratureGrid, ref: np.ndarray) -> np.ndarray:
    """Reference-panel points ref mapped onto every panel of a grid, shape
    ref.shape + (P,)."""
    mid = (grid.edges[1:] + grid.edges[:-1]) / 2.0
    rad = (grid.edges[1:] - grid.edges[:-1]) / 2.0
    return mid + rad * ref[..., None]


def _sample(weight: Callable, grid: QuadratureGrid) -> _Samples:
    values, index = _panel_tables(grid.panel_order)[5:]
    return _Samples(grid, weight(grid.nodes), grid.half_width / grid.panels,
                    weight(_panel_points(grid, values))[index])


def _panel_blocks(terms: _Terms, samples: _Samples) -> np.ndarray:
    """Diagonal-panel blocks by product integration, shape
    (L, P, q, c, q, c).  The offsets between a node and the sub-nodes of
    its panel are the same in every panel, so the branch exponentials are
    taken over one reference panel."""
    t, _, sub, sub_w, lagrange = _panel_tables(samples.grid.panel_order)[:5]
    rad = samples.rad
    d = rad * (t[:, None] - sub)
    branch = np.stack([terms.branch(d[0], 0), terms.branch(d[1], 1)], 1)
    branch *= (rad * sub_w)[..., None, None]
    # branch with the Lagrange table first: a small intermediate, and a
    # contraction order that does not depend on the number of lambdas
    return np.einsum("lsruab,sruPbc,sruj->lPrajc", branch, samples.panel,
                     lagrange, optimize=["einsum_path", (0, 2), (0, 1)])


def _cumulative(rad: float, rules: np.ndarray,
                f: np.ndarray) -> np.ndarray:
    """Volterra cumulatives F_m(t) = integral_{-X}^{t} e^(mu_m (x - t))
    f_m(x) dx of M chains of L lambdas at the nodes, Re(mu) > 0, on equal
    panels of half width rad, from f at the nodes and the
    ``_fitted_rules`` at z = mu rad, shapes (L, M, q, P) indexed [node
    within panel, panel] and (L, M, q + 1, q + 1).  The rules give each
    panel's part from its left edge to its nodes and its moment m_p; the
    panel sums C_p anchored at left edges obey C_(p+1) = e^(-2 mu rad) C_p
    + m_p, so every exponential decays."""
    q, P = f.shape[2:]
    part = rad * (rules[..., :q] @ f)
    decay = rules[..., q, q]
    C = np.zeros(part.shape[:2] + (P,), dtype=complex)
    for p in range(1, P):
        C[..., p] = decay * C[..., p - 1] + part[..., q, p - 1]
    return part[..., :q, :] + rules[..., :q, q, None] * C[..., None, :]


def _traces(terms: _Terms,
            samples: _Samples) -> tuple[np.ndarray, np.ndarray]:
    """Exact tr(T^2) and tr(T^3) of the kernels of the terms, shape (L,)
    each, as ordered integrals of the chain elements r_a W(x) u_b at rates
    that are differences of plus and minus roots.  Chain (j, i), j plus and
    i minus, has the cumulative F_ji of r_i W u_j at rate kappa_j -
    kappa_i; tr(T^2) integrates it against r_j W u_i, and tr(T^3) takes
    one more cumulative of each chain (j, i, c).

    The cumulatives take the fitted rules of every rate at once, exact
    however fast the exponential decays across a panel, from the chain
    elements at the nodes.  A cumulative is smooth (about f / mu for large
    mu), so the last integrals take the Gauss weights."""
    grid, rad = samples.grid, samples.rad
    kap, k = terms.kappa, terms.k
    L, n = kap.shape
    q, P = grid.panel_order, grid.panels
    wts = grid.weights.reshape(P, q).T
    E = terms.elements(samples.nodes).reshape(L, n, n, P, q).swapaxes(-1, -2)
    j, i = np.ogrid[:k, k:n]
    mu2 = kap[:, j] - kap[:, i]
    # chain (j, i, c): c plus at rate kappa_c - kappa_i with middle
    # element r_j W u_c and last r_c W u_i; c minus at rate
    # kappa_j - kappa_c with middle r_c W u_i and last r_j W u_c
    j3, i3, c = np.ogrid[:k, k:n, :n]
    plus = c < k
    mu3 = np.where(plus, kap[:, c] - kap[:, i3], kap[:, j3] - kap[:, c])
    rules = _fitted_rules(rad * np.concatenate(
        [mu2.reshape(L, -1), mu3.reshape(L, -1)], 1), q)
    F = _cumulative(rad, rules[:, :mu2[0].size],
                    E[:, i, j].reshape(L, -1, q, P))
    tr2 = 2.0 * _row_sums(E[:, j, i].reshape(L, -1, q, P) * F * wts)
    mid = np.where(plus, j3, c), np.where(plus, c, i3)
    last = np.where(plus, c, j3), np.where(plus, i3, c)
    G = _cumulative(rad, rules[:, mu2[0].size:], (
        E[:, mid[0], mid[1]] * F.reshape(L, k, n - k, 1, q, P)
    ).reshape(L, -1, q, P))
    tr3 = 3.0 * _row_sums(E[:, last[0], last[1]].reshape(L, -1, q, P) * G
                          * wts)
    return tr2, tr3


def _row_sums(a: np.ndarray) -> np.ndarray:
    """The sum of each lambda's entries, shape (L,): one pairwise sum per
    row, the same for a lambda whatever the batch around it."""
    return np.sum(a.reshape(len(a), -1), axis=1)


@dataclass(frozen=True)
class _Blocks:
    """S of L lambdas in quasiseparable form over its P panels of q nodes,
    m = q c rows each:

        S_ps = diag[p]                       p = s
             = gp[p] Phi_ps hp[s]            p < s, Phi_ps = prod ep[t]
             = gm[p] Psi_ps hm[s]            p > s, Psi_ps = prod em[t]

    over the blocks t strictly between p and s.  With e_p the left edge of
    block p, gp = u_j e^(kappa_j (x - e_(p+1))), hp = e^(kappa_j (e_p - xi))
    r_j W w for the plus roots, gm = u_j e^(kappa_j (x - e_p)),
    hm = e^(kappa_j (e_(p+1) - xi)) r_j W w for the minus roots, and the
    transitions ep = e^(-kappa_j h_p), em = e^(kappa_j h_p) over the block
    widths h_p: every exponential is at most 1.  Shapes: diag (L, P, m, m),
    gp (L, P, m, k), hp (L, P, k, m), gm (L, P, m, n - k),
    hm (L, P, n - k, m), ep (L, P, k), em (L, P, n - k).
    """

    diag: np.ndarray
    gp: np.ndarray
    hp: np.ndarray
    gm: np.ndarray
    hm: np.ndarray
    ep: np.ndarray
    em: np.ndarray


def _blocks(terms: _Terms, samples: _Samples) -> _Blocks:
    """Generators of the Nystrom matrices of the terms on the panels of
    ``panel_order`` ascending nodes, without forming them.  The diagonal
    blocks are the product-integration panels; block edges are the outer
    nodes and the midpoints between neighbouring panels."""
    grid = samples.grid
    x, q, k = grid.nodes, grid.panel_order, terms.k
    L, n, c = terms.u.shape
    P = grid.panels
    xs = x.reshape(P, q)
    edges = np.concatenate([x[:1], (xs[:-1, -1] + xs[1:, 0]) / 2.0, x[-1:]])
    rows = np.einsum("ljc,tcd->ljtd", terms.r,
                     samples.nodes * grid.weights[:, None, None])
    rows = rows.reshape(L, n, P, q, c)
    kap = terms.kappa[:, None, None, :]
    left, right = edges[:-1, None, None], edges[1:, None, None]
    e_gp = np.exp(kap[..., :k] * (xs[..., None] - right))
    e_gm = np.exp(kap[..., k:] * (xs[..., None] - left))
    e_hp = np.exp(kap[..., :k] * (left - xs[..., None]))
    e_hm = np.exp(kap[..., k:] * (right - xs[..., None]))
    gp = np.einsum("lpij,lja->lpiaj", e_gp, terms.u[:, :k])
    gm = np.einsum("lpij,lja->lpiaj", e_gm, terms.u[:, k:])
    hp = np.einsum("lpij,ljpic->lpjic", e_hp, rows[:, :k])
    hm = np.einsum("lpij,ljpic->lpjic", e_hm, rows[:, k:])
    h = np.diff(edges)[:, None]
    return _Blocks(_panel_blocks(terms, samples).reshape(L, P, q * c, q * c),
                   gp.reshape(L, P, q * c, k), hp.reshape(L, P, k, q * c),
                   gm.reshape(L, P, q * c, n - k),
                   hm.reshape(L, P, n - k, q * c),
                   np.exp(-terms.kappa[:, None, :k] * h),
                   np.exp(terms.kappa[:, None, k:] * h))


def _sweep(blocks: _Blocks) -> tuple[np.ndarray, np.ndarray, dict]:
    """Per lambda the sign and log|det(I + S)|, shape (L,) each, by
    Householder QR of a block-bidiagonal embedding of S, and
    ``_block_traces``, taken first: the generators are released once the
    stacks hold them, so a caller that passes the only reference does not
    keep them through the QR loop.
    Block p has the unknowns (z_p, x_p, y_p), y_p = ep_(p+1) y_(p+1) +
    hp_(p+1) x_(p+1) and z_(p+1) = em_p z_p + hm_p x_p, whose unit
    triangular block keeps det(I + S).  Step p is one stacked QR over the
    lambdas of the (M + l) x 2M stack of the rows that reach block column
    p, M = q c + n; its last l = n - k rows carry on.  The sign multiplies
    the pivot phases and the (unitary) reflector determinants
    1 - tau ||v||^2 = -tau / conj(tau).  A zero pivot gives the sign 0 and
    log|det| -inf.
    """
    traces = _block_traces(blocks)
    if blocks.em.shape[-1] > blocks.ep.shape[-1]:
        # det(I + S^T): its l = k rows mix fewer blocks, none if k = 0
        T = functools.partial(np.swapaxes, axis1=-1, axis2=-2)
        blocks = _Blocks(T(blocks.diag), T(blocks.hm), T(blocks.gm),
                         T(blocks.hp), T(blocks.gp), blocks.em, blocks.ep)
    L, P, m = blocks.diag.shape[:3]
    k, l = blocks.ep.shape[-1], blocks.em.shape[-1]
    M = m + k + l
    # stacks[:, p]: rows carried (l), x_p (m), y_p (k), z_(p+1) (l);
    # columns (z, x, y) of block p, then of block p + 1 (a unit z_P at the
    # end)
    stacks = np.zeros((L, P, M + l, 2 * M), dtype=complex)
    x, y = slice(l, l + m), slice(l + m, M)
    stacks[:, 0, :l, :l] = np.eye(l)
    stacks[:, :, x, :l] = blocks.gm
    stacks[:, :, x, x] = blocks.diag
    diagonal = np.arange(l, l + m)
    stacks[:, :, diagonal, diagonal] += 1.0
    stacks[:, :, x, y] = blocks.gp
    stacks[:, :, l + m:, l + m:M + l] = np.eye(k + l)
    stacks[:, :-1, y, M + l:M + l + m] = -blocks.hp[:, 1:]
    stacks[:, :-1, y, M + l + m:] = -blocks.ep[:, 1:, :, None] * np.eye(k)
    stacks[:, :-1, M:, :l] = -blocks.em[:, :-1, :, None] * np.eye(l)
    stacks[:, :-1, M:, x] = -blocks.hm[:, :-1]
    del blocks
    # numpy's raw QR is transposed: raw[..., c, r] is R[r, c] for r <= c
    # and the reflector vectors below the diagonal of R.  Step p's output
    # overwrites its own stack, which it has consumed.
    raw = stacks.reshape(L, P, 2 * M, M + l)
    tau = np.empty((L, P, M + l), dtype=complex)
    carried = np.triu(np.ones((l, M), dtype=bool))
    for p in range(P):
        if p:
            carry = raw[:, p - 1, M:, M:].swapaxes(-1, -2)
            stacks[:, p, :l, :M] = carry * carried
        raw[:, p], tau[:, p] = np.linalg.qr(stacks[:, p], mode="raw")
    d = raw[..., np.arange(M), np.arange(M)].reshape(L, -1)
    pivots = np.abs(d)
    regular = pivots.all(axis=1)
    pivots[~regular] = 1.0      # placeholders; these rows are overwritten
    tau = tau.reshape(L, -1)
    unit = tau == 0             # tau = 0 is the identity
    reflectors = -tau / np.where(unit, 1.0, tau).conj()
    reflectors[unit] = 1.0
    sign = np.prod(d / pivots, axis=1) * np.prod(reflectors, axis=1)
    sign[~regular] = 1.0
    logabs = np.sum(np.log(pivots), axis=1)
    return (np.where(regular, sign / np.abs(sign), 0.0),
            np.where(regular, logabs, -np.inf), traces)


def _block_traces(blocks: _Blocks) -> dict:
    """tr S^l for l = 1, 2, 3 from the generators, shape (L,) each.

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
    t = {1: _row_sums(np.trace(D, axis1=-2, axis2=-1))}
    P = D.shape[1]
    DT = D.swapaxes(-1, -2)
    decay = em[..., :, None] * ep[..., None, :]
    alpha, beta = hm @ gp, hp @ gm
    L = np.zeros_like(alpha)
    for p in range(1, P):
        L[:, p] = decay[:, p - 1] * L[:, p - 1] + alpha[:, p - 1]
    t[2] = _row_sums(D * DT) + 2.0 * _row_sums(beta.swapaxes(-1, -2) * L)
    R = np.zeros_like(beta)
    for p in range(P - 1, 0, -1):
        R[:, p - 1] = decay[:, p].swapaxes(-1, -2) * R[:, p] + beta[:, p]
    LT = L.swapaxes(-1, -2)
    tr_d3 = _row_sums((D @ D) * DT)
    tr_do = (_row_sums((hm @ D @ gp).swapaxes(-1, -2) * R)
             + _row_sums((hp @ D @ gm) * LT))
    tr_uul = (_row_sums((hp @ gp @ R * em[..., None, :]) * LT)
              + _row_sums((ep[..., None] * R @ (hm @ gm)) * LT))
    t[3] = tr_d3 + 3.0 * tr_do + 3.0 * tr_uul
    return t


def _corrected_det(sign: np.ndarray, logabs: np.ndarray, t: dict,
                   exact: dict, orders: Sequence[int]) -> list:
    """det(I + S) = sign e^logabs regularized to each order p in orders,
    from the matrix traces t[l] = tr S^l; every argument holds one entry
    per lambda.

    The order-p determinant is det(I + T) exp(sum_{l<p} (-1)^l / l tr T^l),
    here with matrix traces tr S^l, which cancel the trace error of
    det(I + S) at those orders.  det(I + S) / det(I + T) is
    exp(sum_l (-1)^(l+1)/l (tr S^l - tr T^l)), dominated by the low orders
    for a kernel with a diagonal kink, so each order l >= p with a known
    exact trace exact[l] = tr T^l is compensated.

    The correction is added to log|det(I + S)| before exponentiating, so a
    det(I + S) outside the float64 range still gives every value in range.
    A value (or correction) that is not finite, or a value that underflows
    to 0, comes back NaN, for ``determinants_many`` to refuse.
    """
    values = []
    with np.errstate(all="ignore"):
        for p in orders:
            correction = sum((-1.0) ** l / l * t[l] for l in range(1, p))
            correction += sum((-1.0) ** (l + 1) / l * (exact[l] - t[l])
                              for l in exact if l >= p)
            value = sign * np.exp(logabs + correction)
            value[~np.isfinite(value) | (value == 0.0)
                  & np.isfinite(logabs)] = np.nan
            values.append(value)
    return values


def _regularized(groups: list, samples: _Samples, exact: dict,
                 orders: Sequence[int]) -> np.ndarray:
    """``_corrected_det`` of the Nystrom matrix of every lambda of the
    groups, shape (len(orders), L).  exact holds known exact traces, shape
    (L,) each; with an order <= 3, tr T^2 and tr T^3 join them.

    Each k-group goes through the engine in slices of at most
    _SLICE_BUDGET // (N c^2) lambdas, so the working set does not grow
    with the batch."""
    L = sum(idx.size for idx, _ in groups)
    N, c = samples.nodes.shape[0], samples.nodes.shape[-1]
    width = max(1, _SLICE_BUDGET // (N * c * c))
    values = np.empty((len(orders), L), dtype=complex)
    for idx, terms in groups:
        for s in range(0, idx.size, width):
            part, sl = idx[s:s + width], terms.take(slice(s, s + width))
            known = {l: trace[part] for l, trace in exact.items()}
            if min(orders) <= 3:
                known[2], known[3] = _traces(sl, samples)
            # the sweep holds the only reference to the generators
            sign, logabs, t = _sweep(_blocks(sl, samples))
            values[:, part] = _corrected_det(sign, logabs, t, known, orders)
    return values


def det1_many(problem: ScalarProblem, lams: Sequence[complex],
              grid: QuadratureGrid) -> list[DeterminantResult]:
    """``det1`` of every lambda, in input order: the "det1" column of
    ``determinants_many`` on the first-order form."""
    return [res for res, in determinants_many(model.to_system(problem), lams,
                                              grid, {"det1": 1})]


def det1(problem: ScalarProblem, lam: complex,
         grid: QuadratureGrid) -> DeterminantResult:
    """Fredholm determinant of the scalar kernel, with the trace defect
    of orders 1-3 compensated, from one root split and one set of weight
    samples: ``det1_many`` of one lambda."""
    return det1_many(problem, [lam], grid)[0]


def _trace_pairs(P: np.ndarray, Pinv: np.ndarray, k: np.ndarray,
                 grid: QuadratureGrid, W: np.ndarray, cols: slice
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Both sign choices of the analytic system trace of L bases (P, Pinv,
    k), shape (L,) each, from W_c = -(R - R_inf)[:, cols] at the nodes.
    The kernel diagonal from the xi < x side is the constant projector
    Y0+ Z0-, from the other side Y0- Z0+ with opposite sign; the two
    agree when the integrated diagonal of R vanishes.  tr(X M) with
    M = M_c E is tr(X[cols, :] M_c)."""
    M = np.einsum("t,tab->ab", grid.weights, W)
    minus = (np.arange(P.shape[-1]) >= k[:, None])[..., None]
    tau_plus = np.trace((P[:, cols] @ (minus * Pinv)) @ M, axis1=1, axis2=2)
    tau_minus = -np.trace((P[:, cols] @ (~minus * Pinv)) @ M, axis1=1,
                          axis2=2)
    return tau_plus, tau_minus


def _sign_mismatch(tau_plus: complex,
                   tau_minus: complex) -> Optional[SignMismatch]:
    scale = max(1.0, abs(tau_plus), abs(tau_minus))
    if abs(tau_plus - tau_minus) > 1e-8 * scale:
        return SignMismatch(
            f"trace sign choices disagree: {tau_plus} vs {tau_minus}; "
            "the perturbation has nonvanishing integrated diagonal")
    return None


def _check_order(*orders: int) -> None:
    if not all(2 <= p <= 4 for p in orders):
        raise ConfigError("regularization order must satisfy 2 <= p <= 4")


def determinants_many(system: SystemProblem, lams: Sequence[complex],
                      grid: QuadratureGrid,
                      orders: dict) -> list[list[DeterminantResult]]:
    """Regularized determinants of every lambda, one per kind -> p entry
    of orders: "det1" -> 1 is ``det1`` of system.source (refused up front
    without one or on a front), any other kind the order-p determinant of
    the matrix kernel, reported with the analytic system trace, which
    validates the sign conventions.  One root split gives the bases of
    both kernels, and a refused lambda raises the typed error of the
    first one in input order.  An m = 0 form runs every order on the
    scalar terms, its reduced kernel (module docstring), and samples W at
    the nodes alone; otherwise the system orders and det1 take one engine
    pass each."""
    _check_order(*(p for kind, p in orders.items() if kind != "det1"))
    source, cols = system.source, system.column_support
    if 1 in orders.values():
        if source is None:
            raise ConfigError("det1 needs a scalar source problem")
        source.potential_integral()     # refuses a front's potential
    bases = greens.system_bases(system, lams)
    kappa, k, P, Pinv, refusals = bases
    shared = (source is not None and source.deriv_order == 0
              and not system.is_front)
    matrix = [p for p in orders.values() if p > 1]
    scalar = [p for p in orders.values() if shared or p == 1]
    if matrix:
        weight = _system_weight(system, grid)
        samples = None if shared else _sample(weight, grid)
        tau, tau_minus = _trace_pairs(P, Pinv, k, grid, weight(grid.nodes)
                                      if shared else samples.nodes, cols)
        refusals = [refusal or _sign_mismatch(a, b)
                    for refusal, a, b in zip(refusals, tau, tau_minus)]
    raise_first(refusals)
    runs = []
    if matrix and not shared:
        runs.append((_system_terms(kappa, k, P, Pinv, cols), samples, {},
                     matrix))
    if scalar:
        groups = _scalar_terms(source, lams, bases)
        exact = ({1: _analytic_traces(source, groups, len(lams))}
                 if 1 in scalar else {})
        runs.append((groups, _sample(_scalar_weight(source), grid), exact,
                     scalar))
    out = {}
    for groups, samp, exact, ps in runs:
        values = _regularized(groups, samp, exact, ps)
        out.update({p: (value, exact[1] if p == 1 else tau)
                    for p, value in zip(ps, values)})
    bad = np.isnan([value for value, _ in out.values()]).any(axis=0)
    raise_first([OutOfRange(f"lambda={lam}: a determinant or its trace "
                            "correction is outside the float64 range")
                 if b else None for lam, b in zip(lams, bad)])
    return [[DeterminantResult(value=complex(out[p][0][i]), kind=kind,
                               trace_used=complex(out[p][1][i]),
                               grid_signature=grid.signature)
             for kind, p in orders.items()] for i in range(len(lams))]


def det2(system: SystemProblem, lam: complex,
         grid: QuadratureGrid) -> DeterminantResult:
    """Hilbert-Schmidt regularized determinant det(I + S) exp(-tr S).

    The matrix trace in the exponent deliberately mirrors the trace error
    of det(I + S), so the two cancel and the result estimates the
    regularized determinant to the full panel order.
    """
    return determinants_many(system, [lam], grid, {"det2": 2})[0][0]


def detp(system: SystemProblem, lam: complex, grid: QuadratureGrid,
         p: int = 2) -> DeterminantResult:
    """Order-p regularized determinant
    det(I + S) exp(sum_{l=1}^{p-1} (-1)^l / l tr(S^l)), 2 <= p <= 4."""
    return determinants_many(system, [lam], grid, {"detp": p})[0][0]
