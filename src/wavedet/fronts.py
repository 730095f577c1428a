"""Problems whose ends differ: the reference matrix and its system.

When the perturbation has two distinct limits R- and R+, the constant part
alone no longer describes either end, and the Green's kernel of the actual
asymptotic operators is awkward to assemble.  The workaround replaces both
ends by a single reference matrix B(lambda) built to have exactly the
decay structure the kernel needs: its eigenvalues are the unstable rates
of the left end together with the stable rates of the right end.  Pairing
the B-generated kernel with the recentred potential

    Q(x) = R(x) - R-   (x <= 0),      R(x) - R+   (x > 0)

gives a Hilbert-Schmidt operator whose regularized determinant is the
det2 of a concrete pulse-type problem: dY/dx = (B(lambda) + Q(x)) Y,
exposed here as ``reference_system``.  Everything proved for decaying
perturbations applies to that problem verbatim, so its determinant can be
cross-checked against an Evans computation on the same reference system.

The kernel basis of a front is decided with every other system's, as
stacked arrays: ``greens.end_bases`` splits the two end matrices of a
whole lambda batch, and ``greens.system_bases`` pairs the kept rates in
their Vandermonde frame, so ``fredholm.det2`` and ``determinants_many``
already run on B's kernel, and ``front_det2`` is ``fredholm.det2``
relabelled.  This module adds B itself and the reference problem.

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

import numpy as np

from . import fredholm, greens, model
from .errors import IllConditioned, raise_first
from .model import SystemProblem

__all__ = [
    "FrontReference",
    "front_reference",
    "front_det2",
    "reference_system",
]


@dataclass(frozen=True)
class FrontReference:
    """The surrogate constant matrix B, its eigenvector frame and the kept
    rates that are its eigenvalues."""

    B: np.ndarray
    P: np.ndarray
    split: np.ndarray


def front_reference(rates) -> FrontReference:
    """Constant matrix with the prescribed mixed spectrum.

    rates holds the kept rates, the left end's unstable ones first, as the
    kernel roots of a front in ``greens.system_bases``.  B = P
    diag(kappa-_1..kappa-_k, tau+_{k+1}..tau+_n) P^-1 with P the
    Vandermonde frame of the rates, so B is the companion matrix of the
    polynomial with exactly those roots.
    """
    roots = np.asarray(rates, dtype=complex)
    n = roots.size
    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) < 1e-12 * max(1.0, abs(roots[i])):
                raise IllConditioned(
                    f"coincident front rates {roots[i]} and {roots[j]}")
    refusals = [None]
    P, Pinv, _ = greens._vandermonde(roots[None], refusals)
    raise_first(refusals)
    return FrontReference(B=P[0] @ (roots[:, None] * Pinv[0]), P=P[0],
                          split=roots)


def reference_system(system) -> SystemProblem:
    """Pulse-type problem the front determinant actually represents.

    Base matrix B(lambda) from ``front_reference``, perturbation the
    recentred Q = ``SystemProblem.decaying_part`` (discontinuous at x = 0
    by R+ - R-, integrable in both tails), zero asymptotic limits.
    ``fredholm.det2`` (and so ``front_det2``) of the original front equals
    ``fredholm.det2`` of this system to rounding, and an Evans computation
    on it provides an independent check of the determinant pipeline.
    For a pulse the original system is returned unchanged.
    """
    sysm = model.as_system(system)
    if not sysm.is_front:
        return sysm

    def base(lam: complex) -> np.ndarray:
        kappa, _, _, _, refusals = greens.system_bases(sysm, [lam])
        raise_first(refusals)
        return front_reference(kappa[0]).B

    n = sysm.dimension
    zero = np.zeros((n, n), dtype=complex)
    return SystemProblem(dimension=n, base_matrix=base,
                         perturbation=sysm.decaying_part,
                         r_minus=zero, r_plus=zero)


def front_det2(system, lam: complex, grid=None):
    """``fredholm.det2`` of the front's system, of kind "front_det2": the
    regularized determinant of the B-kernel paired with Q.

    Zeros are eigenvalues of ``reference_system(system)`` -- checked
    against an Evans computation on that system they agree to quadrature
    accuracy.  For a genuine front these need not coincide with the
    original problem's eigenvalues (they do in the pulse limit), so treat
    this as a determinant for the reference problem, and fall back on
    ``evans_function`` for the front itself when locations matter.  The
    grid must place a panel edge at x = 0, where Q jumps, so its panel
    count must be even; ``fredholm.det2`` refuses one that does not.
    """
    res = fredholm.det2(model.as_system(system), lam,
                        grid if grid is not None else fredholm.default_grid())
    return dataclasses.replace(res, kind="front_det2")
