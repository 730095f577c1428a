"""Characteristic roots, Green's functions and solution bases.

Everything downstream rests on the splitting of the characteristic roots of

    kappa^n + a_{n-1} kappa^(n-1) + ... + a_1 kappa + a_0 - lambda = 0

into k roots with positive real part and n-k with negative real part.  The
scalar Green's function is a two-sided exponential sum over that splitting
with the interface weights alpha_j; the matrix Green's function of the
companion system is assembled from the decaying solution bases and their
duals.  Both are sums of rank-one terms per root, the data from which
:mod:`wavedet.fredholm` builds its determinant-ready kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    "unperturbed_bases",
    "basis_from_roots",
    "system_basis",
    "matrix_basis",
    "matrix_green",
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
