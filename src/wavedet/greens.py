"""Characteristic roots, kernel weights and solution bases.

Everything downstream rests on the splitting of the characteristic roots of

    kappa^n + a_{n-1} kappa^(n-1) + ... + a_1 kappa + a_0 - lambda = 0

into k roots with positive real part and n-k with negative real part.  The
scalar Green's function is a two-sided exponential sum over that splitting
with the interface weights alpha_j; the matrix Green's function of the
companion system pairs the decaying solution bases with their duals, the
columns of the Vandermonde frame P of the roots and the rows of its
inverse, off whose last column alpha is read.  This module decides the
splits, the weights and the bases of a whole lambda batch at once, from
one stacked root split (``_split``): ``green_data`` gives a scalar
problem's roots and weights, ``system_bases`` a system's bases.
:mod:`wavedet.fredholm` assembles both kernels from them as sums of
rank-one terms per root and never evaluates a Green's function pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import model
from .errors import (CountMismatch, EssentialSpectrum, IllConditioned,
                     NearMultipleRoots, WavedetError, raise_first)
from .model import ScalarProblem, SystemProblem

__all__ = [
    "RootSplit",
    "UnperturbedBasis",
    "basis_from_roots",
    "system_basis",
    "system_basis_list",
    "matrix_basis",
    "green_data",
    "system_bases",
    "end_bases",
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


@dataclass
class UnperturbedBasis:
    """Decaying solution bases of the unperturbed system and their duals.

    y_minus(x) is n x k (columns decay towards -infinity), y_plus(x) is
    n x (n-k); the matching dual rows are those of Pinv, the inverse of
    the fundamental matrix at x = 0, carried along by e^(-kappa x).
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


def _split(problem: ScalarProblem,
           lams) -> tuple[np.ndarray, np.ndarray, list]:
    """Stacked root split of every lambda: kappa (L, n), each row its plus
    roots then its minus roots, each group by ascending real part, then
    ascending imaginary part; the plus-root counts k (L,); and per lambda
    its refusal (EssentialSpectrum, NearMultipleRoots), None if clean."""
    roots = model.char_roots(problem.coeffs,
                             np.asarray(lams, dtype=complex).reshape(-1))
    on_axis, coincide = model._degeneracy(roots)
    order = np.lexsort((roots.imag, roots.real, roots.real <= 0), axis=-1)
    kappa = np.take_along_axis(roots, order, axis=-1)
    refusals = [
        EssentialSpectrum(f"lambda={lam} has a characteristic root on the "
                          "imaginary axis") if axis else
        NearMultipleRoots(f"characteristic roots at lambda={lam} nearly "
                          "coincide") if close else None
        for lam, axis, close in zip(lams, on_axis, coincide)]
    return kappa, np.count_nonzero(roots.real > 0, axis=-1), refusals


def _solved(M: np.ndarray, rhs: np.ndarray, what: str,
            refusals: list) -> tuple[np.ndarray, np.ndarray]:
    """Solutions of the stacked systems M X = rhs (rhs broadcast) and the
    condition numbers; an IllConditioned refusal joins refusals (in place)
    for each matrix beyond COND_LIMIT, whose X is left zero."""
    cond = np.linalg.cond(M) if len(M) else np.zeros(0)
    X = np.zeros(M.shape[:-1] + rhs.shape[-1:], dtype=complex)
    for i, c in enumerate(cond):
        if refusals[i] is None and c > COND_LIMIT:
            refusals[i] = IllConditioned(
                f"{what} condition {c:.3g} exceeds {COND_LIMIT:.0e}")
    ok = np.array([r is None for r in refusals], dtype=bool)
    X[ok] = np.linalg.solve(M[ok], np.broadcast_to(rhs, M[ok].shape[:-1]
                                                   + rhs.shape[-1:]))
    return X, cond


def _vandermonde(kappa: np.ndarray, refusals: list) -> tuple:
    """The frames P = kappa^i of L root splits (L, n, n), their inverses
    and condition numbers (L,), refused (``_solved``) as "basis matrix"."""
    n = kappa.shape[-1]
    P = kappa[:, None, :] ** np.arange(n)[:, None]
    Pinv, cond = _solved(P, np.eye(n, dtype=complex), "basis matrix",
                         refusals)
    return P, Pinv, cond


def _alpha(k: np.ndarray, Pinv: np.ndarray) -> np.ndarray:
    """The kernel weights alpha (L, n) of L splits with plus-root counts k
    (L,), read off their inverse frames.  The interface system (the kernel
    and its first n-2 x-derivatives continuous across x = xi, a unit jump
    in the next) is the frame P with its minus columns negated and right
    side -e_(n-1), so alpha_j is -Pinv[j, n-1] for a plus root and
    +Pinv[j, n-1] for a minus root."""
    last = Pinv[..., -1]
    return np.where(np.arange(last.shape[-1]) < k[:, None], -last, last)


def green_data(problem: ScalarProblem, lams) -> tuple:
    """The root split and kernel weights of every lambda from one stacked
    pass: kappa (L, n), plus roots first, the plus-root counts k (L,), the
    weights alpha (L, n) and the condition numbers of the frames (L,).
    The first refused lambda in input order raises its refusal."""
    kappa, k, refusals = _split(problem, lams)
    _, Pinv, cond = _vandermonde(kappa, refusals)
    raise_first(refusals)
    return kappa, k, _alpha(k, Pinv), cond


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
    refusals = [None]
    Pinv, _ = _solved(P[None], np.eye(n, dtype=complex), "basis matrix",
                      refusals)
    raise_first(refusals)
    return UnperturbedBasis(roots=roots, P=P, Pinv=Pinv[0])


def system_basis(system: SystemProblem, lam: complex) -> UnperturbedBasis:
    """The kernel basis of a system at lambda: ``system_basis_list`` of one
    lambda, raising its refusal."""
    basis, = system_basis_list(system, [lam])
    if isinstance(basis, WavedetError):
        raise basis
    return basis


def system_basis_list(system: SystemProblem, lams) -> list:
    """The kernel basis of every lambda from one ``system_bases`` call,
    with a refused lambda's error in place of its basis."""
    kappa, k, P, Pinv, refusals = system_bases(system, lams)
    out = []
    for i, refusal in enumerate(refusals):
        roots = tuple(complex(z) for z in kappa[i])
        out.append(refusal or UnperturbedBasis(
            roots=RootSplit(plus=roots[:k[i]], minus=roots[k[i]:]),
            P=P[i], Pinv=Pinv[i]))
    return out


def system_bases(system: SystemProblem, lams) -> tuple:
    """The kernel basis of every lambda as arrays, kappa (L, n), k (L,), P
    and Pinv (L, n, n), and per lambda its refusal or None (zeros in its
    place).  The one place that decides a system's basis:

    * a scalar-derived pulse: the constant part's characteristic roots,
      from one stacked root split, and their Vandermonde frames, whose
      inverses give the scalar kernel weights (``_alpha``);
    * a general pulse: a dense eigensplit of A0(lambda);
    * a front: the reference split, the left end's plus rates with the
      right end's minus rates (``end_bases``), in the Vandermonde frame
      of the reference matrix B(lambda) of ``fronts.front_reference``.
    """
    n, front = system.dimension, system.is_front
    if system.source is not None and not front:
        kappa, k, refusals = _split(system.source, lams)
        P, Pinv, _ = _vandermonde(kappa, refusals)
        return kappa, k, P, Pinv, refusals
    L = len(lams)
    kappa = np.zeros((L, n), dtype=complex)
    k = np.zeros(L, dtype=int)
    P = np.zeros((L, n, n), dtype=complex)
    Pinv = np.zeros((L, n, n), dtype=complex)
    refusals = [None] * L
    for i, lam in enumerate(lams):
        A0 = system.base_matrix(lam)
        try:
            if front:
                bm, bp = end_bases(A0 + system.r_minus, A0 + system.r_plus)
                basis = basis_from_roots(RootSplit(plus=bm.roots.plus,
                                                   minus=bp.roots.minus))
            else:
                basis = matrix_basis(A0)
        except WavedetError as exc:
            refusals[i] = exc
            continue
        kappa[i], k[i] = basis.roots.all, basis.k
        P[i], Pinv[i] = basis.P, basis.Pinv
    return kappa, k, P, Pinv, refusals


def end_bases(A_minus: np.ndarray, A_plus: np.ndarray
              ) -> tuple[UnperturbedBasis, UnperturbedBasis]:
    """``matrix_basis`` of the two end matrices of a front, refused when
    they disagree about how many rates have positive real part."""
    bm, bp = matrix_basis(A_minus), matrix_basis(A_plus)
    if bm.k != bp.k:
        raise CountMismatch(
            f"unstable counts differ between the ends: {bm.k} vs {bp.k}")
    return bm, bp


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
