"""Problems whose ends differ: reference matrix, surrogate kernel, det2.

When the perturbation has two distinct limits R- and R+, the constant part
alone no longer describes either end, and the Green's kernel of the actual
asymptotic operators is awkward to assemble.  The workaround implemented
here replaces both ends by a single reference matrix B(lambda) built to
have exactly the decay structure the kernel needs: its eigenvalues are the
unstable rates of the left end together with the stable rates of the right
end.  Pairing the B-generated kernel with the recentred potential

    Q(x) = R(x) - R-   (x <= 0),      R(x) - R+   (x > 0)

gives a Hilbert-Schmidt operator whose regularized determinant is the
det2 of a concrete pulse-type problem: dY/dx = (B(lambda) + Q(x)) Y,
exposed here as ``reference_system``.  Everything proved for decaying
perturbations applies to that problem verbatim, so its determinant can be
cross-checked against an Evans computation on the same reference system.

What the reference spectrum says about the original front is a subtler
matter.  In the pulse limit (both limits zero) B reduces to the constant
part and the two problems are identical.  For a genuine front they are
not: reducing the reference system to scalar form introduces a
first-order drift proportional to the sum of the kept rates, which shifts
bound states.  Zero locations of ``front_det2`` are therefore eigenvalues
of the reference problem, and should be compared against an Evans
function for ``reference_system(...)``, not for the original front.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fredholm, greens, model
from .errors import ConfigError, CountMismatch, IllConditioned
from .greens import RootSplit, UnperturbedBasis
from .model import SystemProblem

__all__ = [
    "FrontSplit",
    "FrontReference",
    "front_split",
    "front_reference",
    "front_Q",
    "front_basis",
    "front_det2",
    "reference_system",
]


@dataclass(frozen=True)
class FrontSplit:
    """Decay rates taken from the two ends of a front.

    kappa_minus: rates with positive real part of the left-end matrix
    (solutions decaying towards -infinity); tau_plus: rates with negative
    real part of the right-end matrix (decaying towards +infinity).
    """

    kappa_minus: tuple
    tau_plus: tuple

    @property
    def k(self) -> int:
        return len(self.kappa_minus)

    @property
    def n(self) -> int:
        return len(self.kappa_minus) + len(self.tau_plus)

    @property
    def all(self) -> tuple:
        return tuple(self.kappa_minus) + tuple(self.tau_plus)


@dataclass(frozen=True)
class FrontReference:
    """The surrogate constant matrix B and its eigenvector frame."""

    B: np.ndarray
    P: np.ndarray
    split: FrontSplit


def _end_matrix(a, lam: complex) -> np.ndarray:
    A = a(lam) if callable(a) else a
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigError("end matrices must be square")
    return A


def front_split(a_minus, a_plus, lam: complex) -> FrontSplit:
    """Split the two end matrices into the rates the front kernel keeps.

    Each argument is a constant n x n matrix or a callable lambda ->
    matrix.  The number of unstable rates on the left must match the
    number on the right so the combined list spans n dimensions.
    """
    Am = _end_matrix(a_minus, lam)
    Ap = _end_matrix(a_plus, lam)
    if Am.shape != Ap.shape:
        raise ConfigError("end matrices must have matching dimensions")
    bm = greens.matrix_basis(Am)
    bp = greens.matrix_basis(Ap)
    if bm.k != bp.k:
        raise CountMismatch(
            f"unstable counts differ between the ends: {bm.k} vs {bp.k}")
    return FrontSplit(kappa_minus=bm.roots.plus, tau_plus=bp.roots.minus)


def front_reference(split: FrontSplit) -> FrontReference:
    """Constant matrix with the prescribed mixed spectrum.

    B = P diag(kappa-_1..kappa-_k, tau+_{k+1}..tau+_n) P^-1 with P the
    Vandermonde frame of the combined rates, so B is the companion matrix
    of the polynomial with exactly those roots.
    """
    roots = np.array(split.all, dtype=complex)
    n = roots.size
    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) < 1e-12 * max(1.0, abs(roots[i])):
                raise IllConditioned(
                    f"coincident front rates {roots[i]} and {roots[j]}")
    basis = greens.basis_from_roots(
        RootSplit(plus=tuple(split.kappa_minus),
                  minus=tuple(split.tau_plus)))
    B = basis.P @ (roots[:, None] * basis.Pinv)
    return FrontReference(B=B, P=basis.P, split=split)


def front_Q(system: SystemProblem, x) -> np.ndarray:
    """The recentred potential: R(x) minus the limit of its own half-line,
    at a point or an array of points (shape x.shape + (n, n)).

    Discontinuous at x = 0 (by R+ - R-) but integrable-decaying in both
    tails, which is what the Hilbert-Schmidt theory needs.
    """
    return np.asarray(system.decaying_part(x), dtype=complex)


def front_basis(system, lam: complex) -> UnperturbedBasis:
    """Solution basis generated by the reference matrix B(lambda).

    For a pulse this is exactly the ordinary basis of the constant part,
    so the front pipeline degenerates to the pulse pipeline identically.
    """
    sysm = model.as_system(system)
    if not sysm.is_front:
        return greens.system_basis(sysm, lam)
    A0 = np.asarray(sysm.base_matrix(lam), dtype=complex)
    split = front_split(A0 + sysm.r_minus, A0 + sysm.r_plus, lam)
    return greens.basis_from_roots(
        RootSplit(plus=tuple(split.kappa_minus),
                  minus=tuple(split.tau_plus)))


def reference_system(system) -> SystemProblem:
    """Pulse-type problem the front determinant actually represents.

    Base matrix B(lambda) from ``front_reference``, perturbation Q from
    ``front_Q``, zero asymptotic limits.  ``front_det2`` of the original
    front equals ``fredholm.det2`` of this system, and an Evans
    computation on it provides an independent check of the determinant
    pipeline.  For a pulse the original system is returned unchanged.
    """
    sysm = model.as_system(system)
    if not sysm.is_front:
        return sysm

    def base(lam: complex) -> np.ndarray:
        A0 = np.asarray(sysm.base_matrix(lam), dtype=complex)
        split = front_split(A0 + sysm.r_minus, A0 + sysm.r_plus, lam)
        return front_reference(split).B

    n = sysm.dimension
    zero = np.zeros((n, n), dtype=complex)
    return SystemProblem(dimension=n, base_matrix=base,
                         perturbation=lambda x: front_Q(sysm, x),
                         r_minus=zero, r_plus=zero)


def front_det2(system, lam: complex, grid=None):
    """Regularized determinant of the B-kernel paired with Q.

    Zeros are eigenvalues of ``reference_system(system)`` -- checked
    against an Evans computation on that system they agree to quadrature
    accuracy.  For a genuine front these need not coincide with the
    original problem's eigenvalues (they do in the pulse limit), so treat
    this as a determinant for the reference problem, and fall back on
    ``evans_function`` for the front itself when locations matter.
    The quadrature must place a panel edge at x = 0 where Q jumps.
    """
    sysm = model.as_system(system)
    grid = grid if grid is not None else fredholm.default_grid()
    panels = fredholm._gl_panels(grid)
    if panels is not None:
        edges = panels[0]
        if float(np.min(np.abs(edges))) > 1e-9:
            raise ConfigError(
                "front quadrature needs a panel edge at x = 0; "
                "use a node count divisible into an even panel split")
    basis = front_basis(sysm, lam)
    res = fredholm.det2(sysm, lam, grid, basis=basis)
    return dataclasses.replace(res, kind="front_det2")
