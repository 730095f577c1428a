"""Evans function by direct integration of the first-order system.

The solutions decaying at -infinity (and at +infinity) are continued across
the support of the perturbation by a fixed-step sixth-order Magnus
integrator: the system Y' = (A0 + R(x)) Y is linear, so each step is the
matrix exponential of a commutator combination of the generator at three
Gauss points (Blanes, Casas & Ros, BIT 40 (2000); Malham & Niesen,
Math. Comp. 77 (2008)).  R is sampled once per run at all Gauss points,
all step exponentials of a run are formed in one batched scaling and
squaring, and the steps between two stored points are multiplied out
pairwise, in batched rounds, to one matrix per segment.  Exponential
growth over the truncated window is stripped on the fly: the integrated
columns are kept O(1) by a QR renormalization after every segment, every
removed factor is logged, and determinant-bearing quantities are
reassembled from the logs, so the ratio E(lambda)/c(lambda) is free of the
arbitrary scalings.  One propagator serves every run.  The matrix
transmission coefficient is the edge pairing D = Z0+(X) Y-(X) of the
unperturbed dual rows with the Jost minus columns at the right end of the
window: (Z0+ Y-)' = Z0+ R Y- and Z0+ Y0- = I at -X, so it equals
I + integral of Z0+ R Y- exactly.  The perturbed dual rows of the Swinton
pairing are the transposed columns of the adjoint system
W' = -(A0 + R)^T W, run leftwards from Z0+(X)^T; its step exponents are
-Omega^T of the plain steps.  So one lambda of a pulse takes three runs:
the minus run over the whole window, sampled at the matching point, serves
E, the transmission matrix and the Swinton pairing; the plus run stops at
the matching point, and the adjoint run reuses its exponents, with the
propagators of both from one batched exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import fredholm, greens, model
from .errors import ConfigError, CountMismatch, StiffnessFailure
from .greens import UnperturbedBasis
from .model import ScalarProblem, SystemProblem

__all__ = [
    "IntegrationParams",
    "JostSolution",
    "EvansResult",
    "jost_minus",
    "jost_plus",
    "evans_function",
    "evans_and_swinton",
    "transmission_matrix",
    "swinton_matrix",
    "born_transmission",
    "identity_report",
]


@dataclass(frozen=True)
class IntegrationParams:
    """Knobs for the Jost integrations.

    half_width is the truncation X shared with the quadrature grids.  rtol
    is the accuracy target that sets the Magnus step: h = theta /
    (max |kappa| + 1) over the characteristic roots of both ends, with
    theta = 0.15 (rtol / 1e-10)^(1/6) for the sixth-order local error.
    renorm_threshold caps the growth allowed between renormalizations (the
    segment length shrinks when the fastest characteristic rate would
    exceed it), and orthogonalize_interval is the largest x-distance
    between the QR sweeps that keep multi-column solutions from collapsing
    onto the fastest-growing mode.
    """

    half_width: float = 20.0
    rtol: float = 1e-10
    renorm_threshold: float = 1e8
    orthogonalize_interval: float = 1.0

    def __post_init__(self):
        if not (self.half_width > 0 and math.isfinite(self.half_width)):
            raise ConfigError("half_width must be positive and finite")
        if not (0.0 < self.rtol < 1e-2):
            raise ConfigError("rtol out of range (0, 1e-2)")
        if self.renorm_threshold < 1e2:
            raise ConfigError("renorm_threshold too small to be useful")
        if self.orthogonalize_interval <= 0:
            raise ConfigError("orthogonalize_interval must be positive")


def _index_of(xs: np.ndarray, x: float) -> int:
    """Index of the stored sample point x of an integration run."""
    i = int(np.argmin(np.abs(xs - x)))
    if abs(float(xs[i]) - x) > 1e-9:
        raise ConfigError(f"x={x} is not a stored sample point")
    return i


@dataclass(frozen=True)
class JostSolution:
    """Scaled samples of a Jost solution along one integration run.

    The raw solution at sample i is

        values[i] @ (transform[i] * exp(renorm_log[i])[None, :])

    with values O(1) (orthonormal after the first renormalization),
    transform upper triangular with unit column maxima, and the whole
    exponential bookkeeping in renorm_log.  At the first sample the
    product reproduces the unperturbed data at the starting boundary
    exactly.  renorm_log - renorm_log[0] is the growth removed during the
    run; its dominant entry approximates (fastest rate) x (distance run).
    An adjoint run (``swinton_matrix``) holds the transposed dual rows in
    the same layout.
    """

    direction: str
    xs: np.ndarray
    values: np.ndarray
    transform: np.ndarray
    renorm_log: np.ndarray
    basis: UnperturbedBasis

    def raw_at(self, x: float) -> np.ndarray:
        """Unscaled n x k solution matrix at a stored sample point."""
        i = _index_of(self.xs, x)
        scale = self.transform[i] * np.exp(self.renorm_log[i])[None, :]
        return self.values[i] @ scale

    @property
    def growth_log(self) -> np.ndarray:
        """Per-column log of the growth removed over the whole run."""
        return self.renorm_log[-1] - self.renorm_log[0]


@dataclass(frozen=True)
class EvansResult:
    """E(lambda), its normalizer c(lambda), and the transmission data.

    transmission / det_transmission are None for fronts, where only the
    scaling-free ratio E/c is meaningful in this module.
    """

    evans: complex
    c_lambda: complex
    ratio: complex
    transmission: Optional[np.ndarray]
    det_transmission: Optional[complex]
    matching_point: float
    truncation_error: float


def _side_bases(system: SystemProblem, lam: complex):
    """Decaying bases at the two ends (identical for pulses)."""
    if not system.is_front:
        b = greens.system_basis(system, lam)
        return b, b
    bm = greens.matrix_basis(system.base_matrix(lam) + system.r_minus)
    bp = greens.matrix_basis(system.base_matrix(lam) + system.r_plus)
    if bm.k != bp.k:
        raise CountMismatch(
            f"unstable dimensions differ between the ends: {bm.k} vs {bp.k}")
    return bm, bp


def _segment_step(params: IntegrationParams, basis: UnperturbedBasis) -> float:
    rate = max(abs(r.real) for r in basis.roots.all) + 1.0
    return min(params.orthogonalize_interval,
               math.log(params.renorm_threshold) / (2.0 * rate))


def _boundaries(x_from: float, x_to: float, step: float,
                extra: Sequence[float] = ()) -> np.ndarray:
    lo, hi = min(x_from, x_to), max(x_from, x_to)
    span = hi - lo
    n_seg = max(1, int(math.ceil(span / step - 1e-12)))
    pts = list(np.linspace(lo, hi, n_seg + 1))
    for e in extra:
        e = float(e)
        if not (lo - 1e-9 <= e <= hi + 1e-9):
            raise ConfigError(f"sample point {e} outside the run [{lo}, {hi}]")
        pts.append(e)
    pts.sort()
    merged = [pts[0]]
    for p in pts[1:]:
        if p - merged[-1] > 1e-10:
            merged.append(p)
    merged[0], merged[-1] = lo, hi
    out = np.array(merged)
    return out if x_from <= x_to else out[::-1].copy()


def _scaled_entries(M: np.ndarray, row_exp: np.ndarray,
                    col_exp: np.ndarray) -> np.ndarray:
    """M[i, j] * exp(row_exp[i] + col_exp[j]) combined in log space.

    The exponents can individually be far outside floating-point range
    while the products stay bounded, so naive exponentiation is not an
    option.
    """
    M = np.asarray(M, dtype=complex)
    out = np.zeros_like(M)
    W = np.asarray(row_exp)[:, None] + np.asarray(col_exp)[None, :]
    nz = M != 0
    out[nz] = np.exp(np.log(M[nz]) + W[nz])
    return out


def _exp_scaled(value: complex, expo: complex) -> complex:
    if value == 0:
        return 0.0 + 0.0j
    return complex(np.exp(np.log(complex(value)) + expo))


_GAUSS3 = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0

# degree-13 Pade coefficients and the 1-norm up to which they need no
# scaling (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(A: np.ndarray) -> np.ndarray:
    """exp of every matrix of a stack (..., d, d) at once: scaling and
    squaring around the degree-13 Pade approximant, each matrix scaled
    by its own power of two."""
    A = np.asarray(A, dtype=complex)
    norm = np.max(np.sum(np.abs(A), axis=-2), axis=-1)
    s = np.maximum(0, np.ceil(np.log2(np.maximum(norm, 1e-300) / _THETA13)))
    s = s.astype(int)
    A = A / (2.0 ** s)[..., None, None]
    b = _PADE13
    ident = np.eye(A.shape[-1], dtype=complex)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    X = np.linalg.solve(V - U, V + U)
    for j in range(int(s.max(initial=0))):
        sq = s > j
        X[sq] = X[sq] @ X[sq]
    return X


def _commutator(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return X @ Y - Y @ X


def _magnus_exponent(G: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Sixth-order Magnus exponent of each step from the generator at
    its three Gauss points, G of shape (steps, 3, d, d); h is signed.

    Blanes, Casas & Ros, BIT 40 (2000): with alpha1 = h A2,
    alpha2 = sqrt(15)/3 h (A3 - A1), alpha3 = 10/3 h (A3 - 2 A2 + A1),
    C1 = [alpha1, alpha2] and C2 = -[alpha1, 2 alpha3 + C1] / 60,
    Omega = alpha1 + alpha3 / 12
            + [-20 alpha1 - alpha3 + C1, alpha2 + C2] / 240.
    """
    h = h[:, None, None]
    A1, A2, A3 = G[:, 0], G[:, 1], G[:, 2]
    a1 = h * A2
    a2 = (math.sqrt(15.0) / 3.0) * h * (A3 - A1)
    a3 = (10.0 / 3.0) * h * (A3 - 2.0 * A2 + A1)
    C1 = _commutator(a1, a2)
    C2 = -_commutator(a1, 2.0 * a3 + C1) / 60.0
    return a1 + a3 / 12.0 + _commutator(-20.0 * a1 - a3 + C1, a2 + C2) / 240.0


def _step_length(system: SystemProblem, A0: np.ndarray,
                 params: IntegrationParams) -> float:
    """Magnus step theta / (max |kappa| + 1) over the roots of both end
    matrices, with theta set by rtol for the sixth-order local error."""
    roots = np.concatenate([np.linalg.eigvals(A0 + system.r_minus),
                            np.linalg.eigvals(A0 + system.r_plus)])
    theta = 0.15 * (params.rtol / 1e-10) ** (1.0 / 6.0)
    return theta / (float(np.max(np.abs(roots))) + 1.0)


def _step_edges(bounds: np.ndarray, h: float) -> tuple[np.ndarray, list]:
    """Edges of the Magnus steps of a run and, per segment, the index of
    its last edge.  Each segment between consecutive stored points is cut
    at x = 0 (where a front's recentred perturbation jumps) and split
    into equal steps of at most h."""
    edges = [float(bounds[0])]
    ends = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        cuts = [a, 0.0, b] if min(a, b) < 0.0 < max(a, b) else [a, b]
        for p, q in zip(cuts[:-1], cuts[1:]):
            m = max(1, int(math.ceil(abs(q - p) / h - 1e-12)))
            edges.extend(np.linspace(p, q, m + 1)[1:])
        ends.append(len(edges) - 1)
    return np.array(edges), ends


def _step_exponents(system: SystemProblem, A0: np.ndarray,
                    edges: np.ndarray) -> np.ndarray:
    """Magnus exponents of the steps between consecutive edges, with R
    sampled once at all Gauss points."""
    h = np.diff(edges)
    t = edges[:-1, None] + h[:, None] * _GAUSS3
    R = np.asarray(system.perturbation(t), dtype=complex)
    return _magnus_exponent(A0 + R, h)


def _step_propagators(Omega: np.ndarray, where: str) -> np.ndarray:
    E = _expm(Omega)
    if not np.all(np.isfinite(E)):
        raise StiffnessFailure(f"non-finite step propagator in the {where}")
    return E


def _segment_products(E: np.ndarray, ends: Sequence[int]) -> np.ndarray:
    """Product of the step propagators of every segment, later steps on
    the left, for a stack of runs E of shape (..., steps, d, d).

    The segments are padded with identities to a common length, and
    neighbouring factors are multiplied pairwise in one batched matmul
    per round until one matrix per segment is left.
    """
    ends = np.asarray(ends)
    starts = np.concatenate(([0], ends[:-1]))
    counts = ends - starts
    j = np.arange(int(counts.max()))
    idx = np.where(j < counts[:, None], starts[:, None] + j, E.shape[-3])
    d = E.shape[-1]
    ident = np.broadcast_to(np.eye(d, dtype=E.dtype),
                            E.shape[:-3] + (1, d, d))
    X = np.concatenate([E, ident], axis=-3)[..., idx, :, :]
    while X.shape[-3] > 1:
        m = X.shape[-3] // 2
        pairs = X[..., 1:2 * m:2, :, :] @ X[..., 0:2 * m:2, :, :]
        X = np.concatenate([pairs, X[..., 2 * m:, :, :]], axis=-3)
    return X[..., 0, :, :]


def _sweep(basis: UnperturbedBasis, direction: str, adjoint: bool,
           x_from: float, bounds: np.ndarray,
           products: np.ndarray) -> JostSolution:
    """Apply the segment products to the starting block of a run, with a
    QR renormalization after every segment."""
    k = basis.k
    # Y0- takes the plus roots and Y0+ the minus roots; the dual rows
    # decaying at the same end belong to the other group
    own = slice(0, k) if (direction == "minus") != adjoint else slice(k, None)
    kappa = np.array(basis.roots.all)[own]
    if adjoint:
        fam, cols = -kappa, np.array(basis.Pinv[own].T, dtype=complex)
    else:
        fam, cols = kappa, np.array(basis.P[:, own], dtype=complex)
    ns, ncols = len(bounds), cols.shape[1]
    values = np.empty((ns,) + cols.shape, dtype=complex)
    transforms = np.empty((ns, ncols, ncols), dtype=complex)
    logs = np.empty((ns, ncols), dtype=complex)

    cur = cols
    T = np.eye(ncols, dtype=complex)
    sig = fam * x_from
    values[0], transforms[0], logs[0] = cur, T, sig
    for s, P in enumerate(products):
        Q, Rtri = np.linalg.qr(P @ cur)
        C = Rtri @ T
        scal = np.max(np.abs(C), axis=0)
        scal[scal == 0.0] = 1.0
        T = C / scal[None, :]
        sig = sig + np.log(scal)
        cur = Q
        values[s + 1], transforms[s + 1], logs[s + 1] = cur, T, sig

    return JostSolution(direction=direction, xs=bounds, values=values,
                        transform=transforms, renorm_log=logs, basis=basis)


def _propagate_runs(system: SystemProblem, lam: complex,
                    basis: UnperturbedBasis, direction: str,
                    params: IntegrationParams,
                    x_stop: Optional[float] = None,
                    sample_points: Sequence[float] = (),
                    adjoints: Sequence[bool] = (False,)
                    ) -> list[JostSolution]:
    """One run per entry of adjoints (see ``_propagate_columns``), all on
    the same bounds, step edges and Magnus exponents Omega; an adjoint
    run takes -Omega^T, and the step propagators of all the runs come
    from one batched exponential."""
    if direction not in ("minus", "plus"):
        raise ConfigError("direction must be 'minus' or 'plus'")
    x_from = params.half_width * (-1.0 if direction == "minus" else 1.0)
    x_to = -x_from if x_stop is None else float(x_stop)
    if abs(x_to) > params.half_width + 1e-9:
        raise ConfigError("stopping point outside the truncated window")
    A0 = np.asarray(system.base_matrix(lam), dtype=complex)
    bounds = _boundaries(x_from, x_to, _segment_step(params, basis),
                         sample_points)
    edges, ends = _step_edges(bounds, _step_length(system, A0, params))
    Omega = _step_exponents(system, A0, edges)
    E = _step_propagators(
        np.stack([-np.swapaxes(Omega, -1, -2) if adj else Omega
                  for adj in adjoints]),
        f"{direction} " + " and ".join("adjoint" if adj else "Jost"
                                       for adj in adjoints) + " run")
    return [_sweep(basis, direction, adj, x_from, bounds, P)
            for adj, P in zip(adjoints, _segment_products(E, ends))]


def _propagate_columns(system: SystemProblem, lam: complex,
                       basis: UnperturbedBasis, direction: str,
                       params: IntegrationParams,
                       x_stop: Optional[float] = None,
                       sample_points: Sequence[float] = (),
                       adjoint: bool = False) -> JostSolution:
    """Continue the decaying column block across the perturbation.

    direction "minus" starts at -X from the data Y0-(-X) and runs right;
    "plus" starts at +X from Y0+(+X) and runs left.  adjoint=True runs
    the adjoint system W' = -(A0 + R)^T W instead, whose solutions are
    transposed dual rows: "plus" then starts from Z0+(+X)^T = Pinv[:k]^T
    at rates -kappa+ ("minus" from Z0-(-X)^T), and every step exponent is
    -Omega^T, since the sixth-order Magnus exponent of -G^T is -Omega^T
    term by term; ``_propagate_runs`` makes a plain run and its adjoint
    from one set of exponents.  The steps between two stored points are
    multiplied out to one matrix (``_segment_products``), which is
    applied to the block before its QR renormalization.
    """
    return _propagate_runs(system, lam, basis, direction, params, x_stop,
                           sample_points, (adjoint,))[0]


def _pairing(rows: np.ndarray, row_log: np.ndarray, jost: JostSolution,
             i: int) -> np.ndarray:
    """rows scaled by exp(row_log) times the raw columns of a Jost run at
    its sample i, combined in log space by ``_scaled_entries``."""
    M = rows @ jost.values[i] @ jost.transform[i]
    return _scaled_entries(M, row_log, jost.renorm_log[i])


def _edge_transmission(jm: JostSolution) -> np.ndarray:
    """The transmission matrix D = Z0+(X) Y-(X) at the right end of a
    minus run over the whole window."""
    basis = jm.basis
    kp = np.array(basis.roots.plus)
    return _pairing(basis.Pinv[:basis.k], -kp * jm.xs[-1], jm, -1)


def jost_minus(system, lam: complex, params: Optional[IntegrationParams] = None,
               basis: Optional[UnperturbedBasis] = None,
               sample_points: Sequence[float] = ()) -> JostSolution:
    """Solutions decaying at -infinity, continued from -X to +X."""
    sysm = model.as_system(system)
    params = params or IntegrationParams()
    if basis is None:
        basis = _side_bases(sysm, lam)[0]
    return _propagate_columns(sysm, lam, basis, "minus", params,
                              sample_points=sample_points)


def jost_plus(system, lam: complex, params: Optional[IntegrationParams] = None,
              basis: Optional[UnperturbedBasis] = None,
              sample_points: Sequence[float] = ()) -> JostSolution:
    """Solutions decaying at +infinity, continued from +X to -X."""
    sysm = model.as_system(system)
    params = params or IntegrationParams()
    if basis is None:
        basis = _side_bases(sysm, lam)[1]
    return _propagate_columns(sysm, lam, basis, "plus", params,
                              sample_points=sample_points)


def _jost_routes(system, lam: complex, matching_point: float,
                 params: Optional[IntegrationParams], swinton: bool
                 ) -> tuple[EvansResult, Optional[np.ndarray]]:
    """E/c, the edge transmission matrix and (with swinton) the Swinton
    pairing of one lambda.

    A pulse's minus run goes over the whole window and is sampled at the
    matching point x0: it serves E, the transmission matrix and the
    pairing.  A front's minus run stops at x0.  The plus run goes from +X
    to x0, and the adjoint run of the pairing shares its exponents.
    """
    sysm = model.as_system(system)
    params = params or IntegrationParams()
    x0 = float(matching_point)
    if abs(x0) > params.half_width:
        raise ConfigError("matching point outside the truncated window")
    bm, bp = _side_bases(sysm, lam)
    if sysm.is_front:
        jm = _propagate_columns(sysm, lam, bm, "minus", params, x_stop=x0)
        trans = None
        det_trans = None
    else:
        jm = _propagate_columns(sysm, lam, bm, "minus", params,
                                sample_points=(x0,))
        trans = _edge_transmission(jm)
        det_trans = complex(np.linalg.det(trans))
    runs = _propagate_runs(sysm, lam, bp, "plus", params, x_stop=x0,
                           adjoints=(False, True) if swinton else (False,))
    jp = runs[0]
    im = _index_of(jm.xs, x0)
    ip = _index_of(jp.xs, x0)
    combined = np.concatenate([jm.values[im], jp.values[ip]], axis=1)
    d0 = (np.linalg.det(combined)
          * np.linalg.det(jm.transform[im])
          * np.linalg.det(jp.transform[ip]))
    ssum = jm.renorm_log[im].sum() + jp.renorm_log[ip].sum()
    evans = _exp_scaled(d0, ssum)
    cmat = np.concatenate([bm.y_minus(x0), bp.y_plus(x0)], axis=1)
    c_lam = complex(np.linalg.det(cmat))
    ratio = _exp_scaled(d0 / c_lam, ssum)
    result = EvansResult(evans=evans, c_lambda=c_lam, ratio=ratio,
                         transmission=trans, det_transmission=det_trans,
                         matching_point=x0,
                         truncation_error=sysm.tail_norm(params.half_width))
    if not swinton:
        return result, None
    adj = runs[1]
    rows = (adj.values[ip] @ adj.transform[ip]).T
    return result, _pairing(rows, adj.renorm_log[ip], jm, im)


def evans_function(system, lam: complex, matching_point: float = 0.0,
                   params: Optional[IntegrationParams] = None) -> EvansResult:
    """E(lambda) = det[Y- Y+] at the matching point, with its normalizer.

    The reported ratio E/c divides out both the matching-point drift (both
    determinants pick up the same Abel factor) and the renormalization
    logs, so it is the quantity to compare across matching points and
    against the Fredholm determinant.  For pulse problems the minus run
    continues to +X, where it yields the transmission matrix as the edge
    pairing Z0+(X) Y-(X).
    """
    return _jost_routes(system, lam, matching_point, params, False)[0]


def evans_and_swinton(system, lam: complex, matching_point: float = 0.0,
                      params: Optional[IntegrationParams] = None
                      ) -> tuple[EvansResult, np.ndarray]:
    """``evans_function`` and ``swinton_matrix`` of one lambda from three
    runs: one minus run, one plus run and the adjoint run on the plus
    run's exponents."""
    return _jost_routes(system, lam, matching_point, params, True)


def transmission_matrix(system, lam: complex,
                        params: Optional[IntegrationParams] = None
                        ) -> np.ndarray:
    """The pairing Z0+(X) Y-(X) of the unperturbed dual rows with the Jost
    minus columns at the right end of the window, which is
    I_k + integral of Z0+ R Y-; its determinant equals the Fredholm
    determinant.

    Only the determinant is accurate to rounding: an entry in the row of
    a slower rate kappa_i is read off columns dominated by the fastest
    growth, so it carries rounding of order
    eps e^((Re kappa_max - Re kappa_i) X).
    """
    sysm = model.as_system(system)
    if sysm.is_front:
        raise ConfigError("transmission matrix needs a decaying perturbation")
    params = params or IntegrationParams()
    basis = greens.system_basis(sysm, lam)
    return _edge_transmission(
        _propagate_columns(sysm, lam, basis, "minus", params))


def swinton_matrix(system, lam: complex,
                   params: Optional[IntegrationParams] = None,
                   matching_point: float = 0.0) -> np.ndarray:
    """Pairing of the perturbed dual rows with the Jost minus columns.

    The product Z+(x) Y-(x) is x-independent, so the result does not
    depend on the matching point; for decaying perturbations it equals the
    transmission matrix.  The rows Z+ are the transposed columns of an
    adjoint run from +X to the matching point, which reuses the step
    exponents of the plus run of ``evans_and_swinton`` as -Omega^T.

    Only the determinant is accurate to rounding: the off-diagonal entries
    are off by about 3e-6 of the largest on ``biharmonic_demo`` at 3+2i,
    as the adjoint run's slower columns pick up its faster ones' rounding.
    """
    return evans_and_swinton(system, lam, matching_point, params)[1]


def born_transmission(system, lam: complex, grid=None) -> np.ndarray:
    """One-term weak-coupling approximation of the transmission matrix.

    Replaces the Jost minus solution in the pairing integral by its
    unperturbed limit and applies the quadrature rule directly.  Only a
    diagnostic: accurate when the perturbation is small, quadratic cost in
    the coupling otherwise.
    """
    sysm = model.as_system(system)
    if sysm.is_front:
        raise ConfigError("weak-coupling route needs a decaying perturbation")
    grid = grid if grid is not None else fredholm.default_grid()
    basis = greens.system_basis(sysm, lam)
    k = basis.k
    kp = np.array(basis.roots.plus)
    Zr = basis.Pinv[:k, :]
    Pc = basis.P[:, :k]
    x = grid.nodes[:, None, None]
    core = Zr @ np.asarray(sysm.perturbation(grid.nodes), dtype=complex) @ Pc
    phase = np.exp((kp[None, :] - kp[:, None]) * x)
    return np.eye(k, dtype=complex) + np.einsum("t,tab->ab", grid.weights,
                                                core * phase)


def identity_report(problem, lam: complex, grid=None,
                    params: Optional[IntegrationParams] = None) -> dict:
    """Evaluate d, det D, E/c, and the trace-corrected det2 product at one
    lambda and report the largest pairwise gap.

    All four numbers are equal in exact arithmetic; the gap is a live
    estimate of the combined quadrature, integration, and truncation
    error.
    """
    if isinstance(problem, SystemProblem):
        if problem.source is None or problem.is_front:
            raise ConfigError("identity report needs a scalar-derived pulse")
        scalar, sysm = problem.source, problem
    elif isinstance(problem, ScalarProblem):
        if problem.profile.is_front:
            raise ConfigError("identity report needs a pulse profile")
        scalar, sysm = problem, model.to_system(problem)
    else:
        raise ConfigError("expected a ScalarProblem or SystemProblem")
    grid = grid if grid is not None else fredholm.default_grid()
    d_val = fredholm.det1(scalar, lam, grid).value
    er = evans_function(sysm, lam, params=params)
    d2 = fredholm.det2(sysm, lam, grid)
    product = _exp_scaled(d2.value, d2.trace_used)
    vals = [d_val, er.det_transmission, er.ratio, product]
    gap = max(abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1:])
    return {
        "d": d_val,
        "det_transmission": er.det_transmission,
        "evans_ratio": er.ratio,
        "det2_product": product,
        "max_pairwise_gap": float(gap),
    }
