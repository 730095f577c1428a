"""Reference code the tests compare the package against, written straight
from the formulas and independent of the batched engine: pointwise Green's
functions, dual rows and projectors of a basis, the weak-coupling
transmission matrix, the plain node matrix of a kernel and the closed
forms of the reflectionless Poschl-Teller determinants.  Last, the
single-lambda reads of engine internals that several test files share,
among them one lambda's rows of the stacked bases.
"""

import cmath
import math
from typing import NamedTuple

import numpy as np

from wavedet import fredholm, greens
from wavedet.errors import raise_first
from wavedet.model import SystemProblem


class Basis(NamedTuple):
    """One lambda's rows of a stacked basis: the rates kappa (plus rates
    first), the plus count k, the frame P and its inverse Pinv.  It
    unpacks as the rows that ``evans._lambda_runs`` takes."""

    kappa: np.ndarray
    k: int
    P: np.ndarray
    Pinv: np.ndarray

    def y_minus(self, x):
        """The n x k columns decaying towards -infinity, at x."""
        return self.P[:, :self.k] * np.exp(self.kappa[:self.k] * x)

    def y_plus(self, x):
        """The n x (n-k) columns decaying towards +infinity, at x."""
        return self.P[:, self.k:] * np.exp(self.kappa[self.k:] * x)


def basis(system, lam):
    """The kernel basis of one lambda, ``greens.system_bases`` of [lam],
    raising its refusal."""
    *rows, refusals = greens.system_bases(system, [lam])
    raise_first(refusals)
    return Basis(*(a[0] for a in rows))


def constant_front(a_minus, a_plus):
    """A general front whose end matrices at lambda are a_minus + lambda I
    and a_plus + lambda I, with a step between them at x = 0."""
    n = len(a_minus)

    def perturbation(x):
        left = (np.asarray(x) <= 0)[..., None, None]
        return np.where(left, a_minus, a_plus).astype(complex)
    return SystemProblem(dimension=n, base_matrix=lambda lam: lam * np.eye(n),
                         perturbation=perturbation, r_minus=a_minus,
                         r_plus=a_plus)


def end_bases(system, lam):
    """The minus end's and the plus end's basis of one lambda,
    ``greens.end_bases`` of [lam], raising its refusal."""
    minus, plus, refusals = greens.end_bases(system, [lam])
    raise_first(refusals)
    return tuple(Basis(*(a[0] for a in side)) for side in (minus, plus))


def scalar_green(x, xi, kappa, k, alpha):
    """Green's function of the unperturbed scalar operator at (x, xi) from
    one lambda's roots kappa (plus roots first), plus-root count k and
    weights alpha: the plus-root branch for x <= xi, the minus-root branch
    for xi < x."""
    side = slice(None, k) if x <= xi else slice(k, None)
    return complex(np.sum(alpha[side] * np.exp(kappa[side] * (x - xi))))


def matrix_green(x, xi, basis):
    """Matrix Green's function -Y0-(x) Z0+(xi) for x <= xi and
    +Y0+(x) Z0-(xi) for xi < x, with unit jump across the diagonal; the
    exponentials are combined as e^(kappa (x - xi)), so every factor
    decays on its own branch."""
    side = slice(None, basis.k) if x <= xi else slice(basis.k, None)
    kappa = basis.kappa[side]
    core = (basis.P[:, side] * np.exp(kappa * (x - xi))) @ basis.Pinv[side]
    return -core if x <= xi else core


def dual_rows(basis, x):
    """Z0+(x) and Z0-(x), the rows of the inverse fundamental matrix that
    pair with y_minus(x) and y_plus(x): z_plus(x) @ y_minus(x) = I_k."""
    Z = basis.Pinv * np.exp(-basis.kappa * x)[:, None]
    return Z[:basis.k], Z[basis.k:]


def projectors(basis):
    """Y0-(x) Z0+(x) and Y0+(x) Z0-(x), both constant in x."""
    k = basis.k
    return basis.P[:, :k] @ basis.Pinv[:k], basis.P[:, k:] @ basis.Pinv[k:]


def born_transmission(system, lam, grid):
    """One-term weak-coupling approximation of the transmission matrix:
    the Jost minus solution in the pairing integral I + int Z0+ R Y- is
    replaced by its unperturbed limit, on the quadrature rule of grid."""
    kappa, k, P, Pinv = basis(system, lam)
    kp = kappa[:k]
    x = grid.nodes[:, None, None]
    core = (Pinv[:k] @ np.asarray(system.perturbation(grid.nodes),
                                  dtype=complex) @ P[:, :k])
    phase = np.exp((kp[None, :] - kp[:, None]) * x)
    return np.eye(k, dtype=complex) + np.einsum("t,tab->ab", grid.weights,
                                                core * phase)


def node_matrix(terms, grid, W):
    """S_ij = K(x_i, x_j) W(x_j) w_j of the terms on the nodes, node-major,
    shape (L, N c, N c), from W at the nodes; the diagonal takes the
    x >= xi branch."""
    xs, N = grid.nodes, grid.nodes.size
    L, n, c = terms.u.shape
    rows = np.einsum("ljc,tcd->ljtd", terms.r,
                     W * grid.weights[:, None, None])
    D = xs[:, None] - xs[None, :]
    S = np.zeros((L, N, c, N, c), dtype=complex)
    for j in range(n):
        on = D < 0 if j < terms.k else D >= 0
        # exp on this branch's side only: the other side could overflow
        E = np.exp(terms.kappa[:, j, None, None] * D,
                   out=np.zeros((L, N, N), dtype=complex), where=on)
        S += np.einsum("xil,xa,xlc->xialc", E, terms.u[:, j], rows[:, j],
                       optimize=True)
    return S.reshape(L, N * c, N * c)


def green_row(problem, lam):
    """``greens.green_data`` of one lambda: its roots kappa (plus roots
    first), plus-root count k, weights alpha and frame condition number."""
    kappa, k, alpha, cond = greens.green_data(problem, [lam])
    return kappa[0], int(k[0]), alpha[0], float(cond[0])


def series_coefficients(problem, lam, grid):
    """The first two expansion coefficients of det(I + K) of a scalar
    problem: the trace of the plain node matrix (no product integration)
    and the sum of its 2 x 2 principal minors."""
    (_, terms), = fredholm._scalar_terms(problem, [lam])
    S = node_matrix(terms, grid, fredholm._scalar_weight(problem)(
        grid.nodes))[0]
    t1 = complex(np.trace(S))
    return t1, complex(0.5 * (t1 * t1 - np.sum(S * S.T)))


def _sqrt_right(lam):
    s = cmath.sqrt(complex(lam))
    return -s if s.real < 0 else s


def pt_det1(n, lam):
    """det1 of Poschl-Teller N = n: prod_(j<=n) (s - j) / (s + j), with
    s = sqrt(lam), Re s > 0."""
    s = _sqrt_right(lam)
    return math.prod((s - j) / (s + j) for j in range(1, n + 1))


def pt_det2(n, lam):
    """det2 = det1 exp(-tr T), with tr T = -n (n + 1) / s."""
    return pt_det1(n, lam) * cmath.exp(n * (n + 1) / _sqrt_right(lam))


def pt_trace_t2(n, lam):
    """tr T^2 = (2 pi)^-1 integral of v_hat(k)^2 / (s (4 s^2 + k^2)) over
    the line, v_hat(k) = n (n + 1) pi k / sinh(pi k / 2); the integrand is
    even and decays like k^2 e^(-pi k), so [0, 60] is the line."""
    from scipy.integrate import quad

    s, c = _sqrt_right(lam), n * (n + 1)

    def integrand(k):
        vhat = 2.0 * c if k == 0.0 else c * math.pi * k / math.sinh(
            math.pi * k / 2.0)
        return vhat ** 2 / (s * (4.0 * s * s + k * k))

    parts = [quad(lambda k: part(integrand(k)), 0.0, 60.0, limit=200,
                  epsabs=1e-15, epsrel=1e-13)[0]
             for part in (lambda z: z.real, lambda z: z.imag)]
    return complex(*parts) / math.pi


def pt_det3(n, lam):
    """det3 = det2 exp(tr T^2 / 2)."""
    return pt_det2(n, lam) * cmath.exp(0.5 * pt_trace_t2(n, lam))


def kernel_traces(kernel, grid):
    """The engine's exact tr T^2 and tr T^3 of one lambda's kernel, given
    as its terms and weight."""
    terms, weight = kernel
    samples = fredholm._sample(weight, grid)
    tr2, tr3 = fredholm._traces(terms, samples)
    return complex(tr2[0]), complex(tr3[0])


def trace_powers(problem, lam, grid):
    """``kernel_traces`` of one lambda's kernel as the determinants take
    it: the scalar kernel of a problem, the matrix kernel of a system on
    its column support, refused as the determinants refuse."""
    if not isinstance(problem, SystemProblem):
        (_, terms), = fredholm._scalar_terms(problem, [lam])
        return kernel_traces((terms, fredholm._scalar_weight(problem)), grid)
    *basis, refusals = greens.system_bases(problem, [lam])
    raise_first(refusals)
    (_, terms), = fredholm._system_terms(*basis, problem.column_support)
    return kernel_traces((terms, fredholm._system_weight(problem, grid)),
                         grid)


def sign_traces(system, lam, grid):
    """Both sign choices of the analytic system trace of one lambda, which
    agree when the integrated diagonal of R - R_inf vanishes."""
    _, k, P, Pinv, refusals = greens.system_bases(system, [lam])
    raise_first(refusals)
    W = fredholm._system_weight(system, grid)(grid.nodes)
    plus, minus = fredholm._trace_pairs(P, Pinv, k, grid, W,
                                        system.column_support)
    return complex(plus[0]), complex(minus[0])
