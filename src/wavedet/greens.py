"""Characteristic roots, Green's kernels, and their weighted forms.

Everything downstream rests on the splitting of the characteristic roots of

    kappa^n + a_{n-1} kappa^(n-1) + ... + a_1 kappa + a_0 - lambda = 0

into k roots with positive real part and n-k with negative real part.  The
scalar Green's function is a two-sided exponential sum over that splitting;
the matrix Green's function of the companion system is assembled from the
decaying solution bases and their duals.  The determinant-ready kernels
weight these Green's functions by the perturbation so that eigenvalues of
the original problem are exactly the points where det(I + kernel) vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import model
from .errors import EssentialSpectrum, IllConditioned, NearMultipleRoots
from .model import ScalarProblem, SystemProblem

__all__ = [
    "RootSplit",
    "GreenCoefficients",
    "UnperturbedBasis",
    "classify_roots",
    "alpha_coefficients",
    "scalar_green",
    "bs_kernel_scalar",
    "scalar_core_matrix",
    "scalar_core_branch",
    "scalar_kernel_matrix",
    "unperturbed_bases",
    "basis_from_roots",
    "system_basis",
    "matrix_basis",
    "matrix_green",
    "green_branch_blocks",
    "factor_perturbation",
    "bs_kernel_system",
    "system_kernel_matrix",
    "green_data",
]

COND_LIMIT = 1e12


@dataclass(frozen=True)
class RootSplit:
    """Characteristic roots split by sign of the real part.

    plus holds the k roots with Re > 0 (they generate the solutions decaying
    towards -infinity), minus the n-k roots with Re < 0.  Each group is
    sorted by ascending real part, then ascending imaginary part.
    """

    plus: tuple
    minus: tuple

    @property
    def k(self) -> int:
        return len(self.plus)

    @property
    def n(self) -> int:
        return len(self.plus) + len(self.minus)

    @property
    def all(self) -> tuple:
        return self.plus + self.minus


@dataclass(frozen=True)
class GreenCoefficients:
    """Weights alpha_1..alpha_n of the two-sided exponential kernel."""

    alpha: tuple
    condition: float


@dataclass
class UnperturbedBasis:
    """Decaying solution bases of the unperturbed system and their duals.

    y_minus(x) is n x k (columns decay towards -infinity), y_plus(x) is
    n x (n-k); z_plus / z_minus are the matching rows of the inverse
    fundamental matrix, so z_plus(x) @ y_minus(x) = I_k at every x.
    """

    roots: RootSplit
    P: np.ndarray
    Pinv: np.ndarray

    @property
    def k(self) -> int:
        return self.roots.k

    def y_minus(self, x: float) -> np.ndarray:
        kp = np.array(self.roots.plus)
        return self.P[:, :self.k] * np.exp(kp * x)[None, :]

    def y_plus(self, x: float) -> np.ndarray:
        km = np.array(self.roots.minus)
        return self.P[:, self.k:] * np.exp(km * x)[None, :]

    def z_plus(self, x: float) -> np.ndarray:
        kp = np.array(self.roots.plus)
        return self.Pinv[:self.k, :] * np.exp(-kp * x)[:, None]

    def z_minus(self, x: float) -> np.ndarray:
        km = np.array(self.roots.minus)
        return self.Pinv[self.k:, :] * np.exp(-km * x)[:, None]

    def projector_plus(self) -> np.ndarray:
        """Y0-(x) Z0+(x); constant in x."""
        return self.P[:, :self.k] @ self.Pinv[:self.k, :]

    def projector_minus(self) -> np.ndarray:
        """Y0+(x) Z0-(x); constant in x; the diagonal convention for the
        matrix kernel."""
        return self.P[:, self.k:] @ self.Pinv[self.k:, :]


def _sorted_group(roots):
    return tuple(sorted(roots, key=lambda r: (r.real, r.imag)))


def classify_roots(problem: ScalarProblem, lam: complex,
                   axis_tol: float = model.AXIS_TOL,
                   sep_tol: float = model.SEP_TOL) -> RootSplit:
    """Split the characteristic roots at lambda, refusing degenerate cases."""
    roots = model.char_roots(problem.coeffs, lam)
    scale = max(float(np.max(np.abs(roots))), 1e-12)
    if float(np.min(np.abs(roots.real))) <= axis_tol * scale:
        raise EssentialSpectrum(
            f"lambda={lam} has a characteristic root on the imaginary axis")
    dist = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(dist, np.inf)
    if float(dist.min()) < sep_tol * scale:
        raise NearMultipleRoots(
            f"characteristic roots at lambda={lam} nearly coincide")
    plus = _sorted_group(complex(r) for r in roots if r.real > 0)
    minus = _sorted_group(complex(r) for r in roots if r.real < 0)
    return RootSplit(plus=plus, minus=minus)


def alpha_coefficients(roots: RootSplit) -> GreenCoefficients:
    """Solve the interface conditions for the kernel weights.

    Row l of the system encodes continuity of the l-th x-derivative of the
    kernel across x = xi (l <= n-2) and the unit jump in the top one: the
    matrix column for a plus root kappa is (1, kappa, ..., kappa^(n-1)), for
    a minus root the negative of that, and the right side is -e_{n-1}.
    """
    n = roots.n
    kall = np.array(roots.all)
    signs = np.array([1.0] * roots.k + [-1.0] * (n - roots.k))
    M = (kall[None, :] ** np.arange(n)[:, None]) * signs[None, :]
    cond = float(np.linalg.cond(M))
    if cond > COND_LIMIT:
        raise IllConditioned(
            f"interface system condition {cond:.3g} exceeds {COND_LIMIT:.0e}")
    rhs = np.zeros(n, dtype=complex)
    rhs[-1] = -1.0
    alpha = np.linalg.solve(M, rhs)
    return GreenCoefficients(alpha=tuple(alpha), condition=cond)


def green_data(problem: ScalarProblem, lam: complex,
               axis_tol: float = model.AXIS_TOL):
    roots = classify_roots(problem, lam, axis_tol)
    return roots, alpha_coefficients(roots)


def scalar_green(x: float, xi: float, lam: complex, roots: RootSplit,
                 alpha: GreenCoefficients) -> complex:
    """Green's function of the unperturbed operator at (x, xi).

    Uses the plus-root branch for x <= xi and the minus-root branch for
    xi < x; both meet continuously on the diagonal.  lam is carried for
    interface symmetry with the kernel evaluators and is not re-derived.
    """
    del lam
    a = np.array(alpha.alpha)
    k = roots.k
    if x <= xi:
        ks = np.array(roots.plus)
        return complex(np.sum(a[:k] * np.exp(ks * (x - xi))))
    ks = np.array(roots.minus)
    return complex(np.sum(a[k:] * np.exp(ks * (x - xi))))


def _weight_split(v):
    """Split v into |v|^(1/2) and v / |v|^(1/2), zero where v vanishes."""
    v = np.asarray(v, dtype=complex)
    mag = np.sqrt(np.abs(v))
    safe = np.where(mag > 0, mag, 1.0)
    return mag, v / safe


def bs_kernel_scalar(x: float, xi: float, lam: complex,
                     problem: ScalarProblem) -> complex:
    """Determinant-ready scalar kernel at (x, xi).

    The kernel is |v(x)|^(1/2) times the m-th xi-derivative structure of the
    Green's function times v(xi)/|v(xi)|^(1/2); the alternating sign of the
    eigenvalue condition is folded in so that each exponential term simply
    carries kappa^m and det(I + .) is the reported determinant for every m.
    """
    roots, coeff = green_data(problem, lam)
    m = problem.deriv_order
    a = np.array(coeff.alpha)
    k = roots.k
    if x <= xi:
        ks = np.array(roots.plus)
        core = np.sum(a[:k] * ks ** m * np.exp(ks * (x - xi)))
    else:
        ks = np.array(roots.minus)
        core = np.sum(a[k:] * ks ** m * np.exp(ks * (x - xi)))
    wl, _ = _weight_split(problem.potential(x))
    _, wr = _weight_split(problem.potential(xi))
    return complex(wl * core * wr)


def scalar_core_matrix(problem: ScalarProblem, lam: complex,
                       xs: np.ndarray) -> np.ndarray:
    """Green's-derivative samples on a node set, without potential weights.

    The diagonal is filled with the continuous limit, which both one-sided
    branches share because of the interface conditions.
    """
    roots, coeff = green_data(problem, lam)
    m = problem.deriv_order
    a = np.array(coeff.alpha)
    k = roots.k
    xs = np.asarray(xs, dtype=float)
    D = xs[:, None] - xs[None, :]
    lower = D < 0
    upper = D > 0
    G = np.zeros((xs.size, xs.size), dtype=complex)
    for j, kap in enumerate(roots.plus):
        E = np.zeros_like(G)
        E[lower] = np.exp(kap * D[lower])
        G += a[j] * kap ** m * E
    for j, kap in enumerate(roots.minus):
        E = np.zeros_like(G)
        E[upper] = np.exp(kap * D[upper])
        G += a[k + j] * kap ** m * E
    diag = np.sum(a[:k] * np.array(roots.plus) ** m) if k else 0.0
    np.fill_diagonal(G, diag)
    return G


def scalar_core_branch(problem: ScalarProblem, lam: complex, x,
                       xis: np.ndarray, side: str) -> np.ndarray:
    """One analytic branch of the Green's-derivative sum.

    side "right" is the plus-root branch (valid for xi >= x), "left" the
    minus-root branch (xi <= x); both extend smoothly past the diagonal,
    which is what diagonal-panel product integration needs.  x is one row
    point or an array of them and broadcasts against the trailing axis of
    xis: x of shape S and xis of shape S + (q,) give values of shape
    S + (q,).
    """
    roots, coeff = green_data(problem, lam)
    m = problem.deriv_order
    a = np.array(coeff.alpha)
    k = roots.k
    d = np.asarray(x, dtype=float)[..., None] - np.asarray(xis, dtype=float)
    out = np.zeros(d.shape, dtype=complex)
    if side == "right":
        for j, kap in enumerate(roots.plus):
            out += a[j] * kap ** m * np.exp(kap * d)
    elif side == "left":
        for j, kap in enumerate(roots.minus):
            out += a[k + j] * kap ** m * np.exp(kap * d)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return out


def scalar_kernel_matrix(problem: ScalarProblem, lam: complex,
                         xs: np.ndarray) -> np.ndarray:
    """Vectorized kernel samples on a node set (no quadrature weights)."""
    G = scalar_core_matrix(problem, lam, xs)
    v = problem.potential(np.asarray(xs, dtype=float))
    wl, wr = _weight_split(v)
    return wl[:, None] * G * wr[None, :]


def unperturbed_bases(problem: ScalarProblem, lam: complex) -> UnperturbedBasis:
    """Solution bases of dY/dx = A0(lambda) Y from the root splitting.

    Columns are (1, kappa, ..., kappa^(n-1))^T e^(kappa x); the dual rows
    come from the inverse of the fundamental matrix at x = 0, carried along
    exactly by the exponential factors.
    """
    roots = classify_roots(problem, lam)
    return basis_from_roots(roots)


def basis_from_roots(roots: RootSplit,
                     P: Optional[np.ndarray] = None) -> UnperturbedBasis:
    """Basis from an explicit root splitting.

    P defaults to the Vandermonde matrix of the combined roots (the
    eigenvector matrix of any companion-form system); a non-companion
    eigenvector matrix may be passed instead with the same column order.
    """
    kall = np.array(roots.all)
    n = kall.size
    if P is None:
        P = kall[None, :] ** np.arange(n)[:, None]
    P = np.asarray(P, dtype=complex)
    cond = float(np.linalg.cond(P))
    if cond > COND_LIMIT:
        raise IllConditioned(
            f"basis matrix condition {cond:.3g} exceeds {COND_LIMIT:.0e}")
    Pinv = np.linalg.solve(P, np.eye(n, dtype=complex))
    return UnperturbedBasis(roots=roots, P=P, Pinv=Pinv)


def system_basis(system: SystemProblem, lam: complex) -> UnperturbedBasis:
    """Decaying-solution basis for a system's constant part at lambda.

    Scalar-derived systems reuse the characteristic-root machinery so the
    root ordering (and hence every downstream sign convention) matches the
    scalar path exactly.  Generic systems fall back on a dense eigensplit
    of A0(lambda), rejecting points where an eigenvalue sits on the
    imaginary axis.
    """
    if system.source is not None:
        return basis_from_roots(classify_roots(system.source, lam))
    return matrix_basis(system.base_matrix(lam))


def matrix_basis(A: np.ndarray) -> UnperturbedBasis:
    """Eigensplit basis of an explicit constant matrix.

    Eigenvalues with positive real part come first (they play the role of
    the kappa+ roots); an eigenvalue within the axis tolerance of the
    imaginary axis means lambda sits on the essential spectrum of the
    corresponding constant-coefficient operator.
    """
    A = np.asarray(A, dtype=complex)
    vals, vecs = np.linalg.eig(A)
    scale = max(float(np.max(np.abs(vals))), 1e-12)
    if float(np.min(np.abs(vals.real))) <= model.AXIS_TOL * scale:
        raise EssentialSpectrum(
            "constant matrix has an eigenvalue on the imaginary axis")
    plus = [i for i in np.lexsort((vals.imag, vals.real)) if vals[i].real > 0]
    minus = [i for i in np.lexsort((vals.imag, vals.real)) if vals[i].real < 0]
    roots = RootSplit(plus=tuple(complex(vals[i]) for i in plus),
                      minus=tuple(complex(vals[i]) for i in minus))
    P = np.concatenate([vecs[:, plus], vecs[:, minus]], axis=1)
    return basis_from_roots(roots, P=P)


def matrix_green(x: float, xi: float, lam: complex,
                 basis: UnperturbedBasis) -> np.ndarray:
    """Matrix Green's function -Y0-(x) Z0+(xi) for x <= xi and
    +Y0+(x) Z0-(xi) for xi < x, with unit jump across the diagonal.

    Exponentials are combined as e^(kappa (x - xi)) so every factor decays
    on its own branch.  lam is fixed by the basis.
    """
    del lam
    k = basis.k
    if x <= xi:
        kp = np.array(basis.roots.plus)
        core = (basis.P[:, :k] * np.exp(kp * (x - xi))[None, :]) @ basis.Pinv[:k, :]
        return -core
    km = np.array(basis.roots.minus)
    return (basis.P[:, k:] * np.exp(km * (x - xi))[None, :]) @ basis.Pinv[k:, :]


def green_branch_blocks(basis: UnperturbedBasis, x,
                        xis: np.ndarray, side: str) -> np.ndarray:
    """One analytic branch of the matrix Green's function.

    side "right" gives -Y0-(x) Z0+(xi) (the xi >= x branch), "left" gives
    +Y0+(x) Z0-(xi).  x broadcasts against the trailing axis of xis as in
    scalar_core_branch; the blocks add two trailing axes, so a single x
    with a 1-d xis gives shape (len(xis), n, n).  Both branches continue
    smoothly past the diagonal.
    """
    d = np.asarray(x, dtype=float)[..., None] - np.asarray(xis, dtype=float)
    n = basis.roots.n
    k = basis.k
    out = np.zeros(d.shape + (n, n), dtype=complex)
    if side == "right":
        for j, kap in enumerate(basis.roots.plus):
            C = np.outer(basis.P[:, j], basis.Pinv[j, :])
            out -= np.exp(kap * d)[..., None, None] * C
    elif side == "left":
        for j, kap in enumerate(basis.roots.minus):
            C = np.outer(basis.P[:, k + j], basis.Pinv[k + j, :])
            out += np.exp(kap * d)[..., None, None] * C
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return out


def factor_perturbation(W: np.ndarray):
    """Split a weight matrix as W = W_in @ W_out via SVD half powers.

    Zero singular values pass through (pseudo-inverse convention).  The
    determinant-ready kernel evaluates W_out at the row point and W_in at
    the column point; the cyclic product W_in W_out = W is what the
    determinant sees, which reproduces the magnitude/signed-half weighting
    of the scalar kernel in the rank-one case.
    """
    U, s, Vh = np.linalg.svd(np.asarray(W, dtype=complex))
    root = np.sqrt(s)
    W_in = U * root[None, :]
    W_out = root[:, None] * Vh
    return W_out, W_in


def bs_kernel_system(x: float, xi: float, lam: complex,
                     system: SystemProblem,
                     basis: UnperturbedBasis) -> np.ndarray:
    """Determinant-ready matrix kernel at (x, xi).

    The weight is the negative of the decaying part of the perturbation:
    the eigenvalue condition for dY/dx = (A0 + R) Y reads
    (I - K0 R) Y = 0, and folding the minus sign into the weight keeps the
    det(I + .) convention shared with the scalar kernel.  For a problem
    derived from a scalar one with m = 0 the only nonzero entry of the
    result is the scalar kernel, in the top-left corner.
    """
    W_out, _ = factor_perturbation(-system.decaying_part(x))
    _, W_in = factor_perturbation(-system.decaying_part(xi))
    return W_out @ matrix_green(x, xi, lam, basis) @ W_in


def system_kernel_matrix(system: SystemProblem, lam: complex,
                         basis: UnperturbedBasis,
                         xs: np.ndarray) -> np.ndarray:
    """Vectorized block kernel on a node set, shape (N*n, N*n), node-major.

    Diagonal blocks use the xi < x branch, whose value on the diagonal is
    the constant projector Y0+ Z0-.  For bottom-row perturbations the other
    convention gives the same determinant because the jump discrepancy is
    annihilated by the weight factors.
    """
    del lam
    xs = np.asarray(xs, dtype=float)
    N = xs.size
    n = basis.roots.n
    k = basis.k
    outs = np.empty((N, n, n), dtype=complex)
    ins = np.empty((N, n, n), dtype=complex)
    for i, x in enumerate(xs):
        W_out, W_in = factor_perturbation(-system.decaying_part(float(x)))
        outs[i] = W_out
        ins[i] = W_in
    D = xs[:, None] - xs[None, :]
    lower = D < 0
    upper = D > 0
    kernel = np.zeros((N, n, N, n), dtype=complex)
    kall = basis.roots.all
    for j, kap in enumerate(kall):
        E = np.zeros((N, N), dtype=complex)
        if j < k:
            E[lower] = -np.exp(kap * D[lower])
        else:
            E[upper] = np.exp(kap * D[upper])
        u = outs @ basis.P[:, j]                             # (N, n)
        v = np.einsum("a,jab->jb", basis.Pinv[j, :], ins)    # (N, n)
        kernel += np.einsum("ij,ia,jb->iajb", E, u, v, optimize=True)
    proj = basis.projector_minus()
    for i in range(N):
        kernel[i, :, i, :] = outs[i] @ proj @ ins[i]
    return kernel.reshape(N * n, N * n)
