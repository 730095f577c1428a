"""Characteristic roots, kernel weights and solution bases.

Everything downstream rests on the splitting of the characteristic roots of

    kappa^n + a_{n-1} kappa^(n-1) + ... + a_1 kappa + a_0 - lambda = 0

into k roots with positive real part and n-k with negative real part.  The
scalar Green's function is a two-sided exponential sum over that splitting
with the interface weights alpha_j; the matrix Green's function of the
companion system pairs the decaying solution bases with their duals, the
columns of the Vandermonde frame P of the roots and the rows of its
inverse, off whose last column alpha is read.  This module decides the
splits, the weights and the bases of a whole lambda batch at once, as
stacked arrays: one root split (``_split``) of a scalar-derived pulse, one
eigensplit (``_eigensplit``) of A0(lambda) for a general system, and one
per end, of A0 + R- and A0 + R+, for a front.  ``green_data`` gives a
scalar problem's roots and weights, ``end_bases`` the bases at the two
ends of a system, which the Jost runs of :mod:`wavedet.evans` start from,
and ``system_bases`` the kernel basis: a pulse's end basis, or a front's
reference split of the kept rates.  :mod:`wavedet.fredholm` assembles
both kernels from it as sums of rank-one terms per root and never
evaluates a Green's function pointwise.
"""

from __future__ import annotations

import numpy as np

from . import model
from .errors import (CountMismatch, EssentialSpectrum, IllConditioned,
                     NearMultipleRoots, raise_first)
from .model import ScalarProblem, SystemProblem

__all__ = [
    "green_data",
    "end_bases",
    "system_bases",
]

COND_LIMIT = 1e12


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


def _eigensplit(A: np.ndarray) -> tuple:
    """The stacked eigensplit of L constant matrices A (L, n, n): rates
    kappa (L, n), those with Re > 0 first (they play the role of the
    kappa+ roots), each group by ascending real part, then ascending
    imaginary part; their counts k (L,); the eigenvector frames P and
    their inverses Pinv (L, n, n); and per matrix its refusal or None.  A
    rate within the axis tolerance of the imaginary axis puts lambda on
    the essential spectrum; an ill-conditioned frame is refused as
    ``_solved`` refuses it."""
    vals, vecs = np.linalg.eig(A)
    scale = np.maximum(np.max(np.abs(vals), axis=-1), 1e-12)
    on_axis = np.min(np.abs(vals.real), axis=-1) <= model.AXIS_TOL * scale
    refusals = [EssentialSpectrum("constant matrix has an eigenvalue on the "
                                  "imaginary axis") if axis else None
                for axis in on_axis]
    order = np.lexsort((vals.imag, vals.real, vals.real <= 0), axis=-1)
    P = np.take_along_axis(vecs, order[:, None, :], axis=-1)
    Pinv, _ = _solved(P, np.eye(A.shape[-1], dtype=complex), "basis matrix",
                      refusals)
    kappa = np.take_along_axis(vals, order, axis=-1)
    return kappa, np.count_nonzero(kappa.real > 0, axis=-1), P, Pinv, refusals


def end_bases(system: SystemProblem, lams) -> tuple:
    """The bases at the two ends of every lambda: the minus end's and the
    plus end's, each the arrays kappa (L, n), plus rates first, k (L,), P
    and Pinv (L, n, n), and per lambda its refusal or None.  The one place
    that decides a system's bases:

    * a scalar-derived pulse: the constant part's characteristic roots,
      from one stacked root split, and their Vandermonde frames, whose
      inverses give the scalar kernel weights (``_alpha``); both ends
      share them;
    * a general pulse: the stacked eigensplit of A0(lambda), both ends;
    * a front: the eigensplits of A0 + R- and of A0 + R+, refused when they
      disagree about how many rates have positive real part.

    Within one lambda a root on the axis comes first, then an
    ill-conditioned frame (the minus end before the plus end), then
    unequal counts."""
    if system.source is not None and not system.is_front:
        kappa, k, refusals = _split(system.source, lams)
        basis = (kappa, k, *_vandermonde(kappa, refusals)[:2])
        return basis, basis, refusals
    n = system.dimension
    A0 = np.array([system.base_matrix(lam) for lam in lams],
                  dtype=complex).reshape(len(lams), n, n)
    if not system.is_front:
        *basis, refusals = _eigensplit(A0)
        return tuple(basis), tuple(basis), refusals
    *minus, left = _eigensplit(A0 + system.r_minus)
    *plus, right = _eigensplit(A0 + system.r_plus)
    minus, plus = tuple(minus), tuple(plus)
    refusals = [
        a or b or (CountMismatch(f"unstable counts differ between the ends: "
                                 f"{km} vs {kp}") if km != kp else None)
        for a, b, km, kp in zip(left, right, minus[1], plus[1])]
    return minus, plus, refusals


def system_bases(system: SystemProblem, lams) -> tuple:
    """The kernel basis of every lambda as arrays, kappa (L, n), k (L,), P
    and Pinv (L, n, n), and per lambda its refusal or None, from one
    ``end_bases`` call.  A pulse's kernel basis is its end basis.  A
    front's is the reference split, the left end's plus rates with the
    right end's minus rates, in their Vandermonde frame, that of the
    reference matrix B(lambda) of ``fronts.front_reference``, refused after
    the ends when ill-conditioned.  A refused lambda's Pinv is zero, and so
    are its other rows unless the system is a scalar-derived pulse."""
    minus, plus, refusals = end_bases(system, lams)
    if system.source is not None and not system.is_front:
        return *minus, refusals
    kappa, k, P, Pinv = minus
    if system.is_front:
        kappa = np.where(np.arange(system.dimension) < k[:, None], kappa,
                         plus[0])
        P, Pinv, _ = _vandermonde(kappa, refusals)
    refused = [i for i, refusal in enumerate(refusals) if refusal is not None]
    for rows in (kappa, k, P):
        rows[refused] = 0
    return kappa, k, P, Pinv, refusals
