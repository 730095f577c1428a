"""Problems whose ends differ: the pulse-type reference system.

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
their Vandermonde frame P, so ``fredholm.det2`` and ``determinants_many``
already run on B's kernel, and B = P diag(kept rates) P^-1, the companion
matrix of the polynomial with exactly those roots, is read off that basis.

What the reference spectrum says about the original front is a subtler
matter.  In the pulse limit (both limits zero) B reduces to the constant
part and the two problems are identical.  For a genuine front they are
not: reducing the reference system to scalar form introduces a
first-order drift proportional to the sum of the kept rates, which shifts
bound states.  Zero locations of a front's ``fredholm.det2`` are therefore
eigenvalues of the reference problem, and should be compared against an
Evans function for ``reference_system(...)``, not for the original front.
"""

from __future__ import annotations

import numpy as np

from . import greens, model
from .errors import raise_first
from .model import SystemProblem

__all__ = ["reference_system"]


def reference_system(system) -> SystemProblem:
    """Pulse-type problem the front determinant actually represents.

    Base matrix B(lambda) = P diag(kappa) P^-1 of the front's kernel basis
    (``greens.system_bases``), perturbation the recentred Q =
    ``SystemProblem.decaying_part`` (discontinuous at x = 0 by R+ - R-,
    integrable in both tails), zero asymptotic limits.  ``fredholm.det2``
    of the front equals that of this system to rounding, and an Evans
    computation on it checks the determinant pipeline independently.  For
    a pulse the original system is returned unchanged.
    """
    sysm = model.as_system(system)
    if not sysm.is_front:
        return sysm

    def base(lam: complex) -> np.ndarray:
        kappa, _, P, Pinv, refusals = greens.system_bases(sysm, [lam])
        raise_first(refusals)
        return P[0] @ (kappa[0][:, None] * Pinv[0])

    n = sysm.dimension
    zero = np.zeros((n, n), dtype=complex)
    return SystemProblem(dimension=n, base_matrix=base,
                         perturbation=sysm.decaying_part,
                         r_minus=zero, r_plus=zero)
