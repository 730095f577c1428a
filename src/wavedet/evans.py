"""Evans function by direct integration of the first-order system.

The solutions decaying at -infinity (and at +infinity) are continued across
the support of the perturbation by a sixth-order Magnus integrator: the
system Y' = (A0 + R(x)) Y is linear, so each step is the matrix exponential
of a commutator combination of the generator at three Gauss points
(Blanes, Casas & Ros, BIT 40 (2000); Malham & Niesen, Math. Comp. 77
(2008)).  The steps of a lambda are sized by the integrator's own error: a
pilot sets one step over every piece of the grid of stored points against
two half steps, and the Richardson estimate of their gap gives each piece
the steps that meet rtol (Blanes, Casas, Oteo & Ros, Phys. Rep. 470
(2009), section 5).  Each step exponential comes from a Pade approximant of
the least degree its own norm needs (Higham, SIAM J. Matrix Anal. Appl. 26
(2005)), and the steps between two stored points are multiplied out
pairwise to one matrix per segment.  Growth is stripped on the fly: the
columns are kept O(1) by a QR renormalization after every segment, every
removed factor is logged, and E(lambda)/c(lambda) is reassembled from the
logs.  The runs of a slice of lambdas share one sweep of stacked QRs and
start from the rows of one stacked ``greens.end_bases`` call, whose two
ends are one basis for a pulse.  The transmission matrix is the edge
pairing D = Z0+(X) Y-(X), which equals I + integral of Z0+ R Y- exactly.  The perturbed dual rows of the Swinton
pairing are the transposed columns of the adjoint system
W' = -(A0 + R)^T W, run leftwards from Z0+(X)^T.  So a pulse takes three
runs per lambda on one set of exponents Omega: the minus run over the whole
window takes exp(Omega) and serves E, D and the Swinton pairing; the plus
run takes exp(-Omega) and its adjoint exp(Omega)^T, and both stop at the
matching point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import greens, model
from .errors import ConfigError, StiffnessFailure
# IntegrationParams lives in model, so a command validates it before
# loading this module; it is re-exported here under its old name
from .model import IntegrationParams, SystemProblem

__all__ = [
    "IntegrationParams",
    "EvansResult",
    "evans_function",
    "evans_function_many",
    "evans_and_swinton",
    "evans_and_swinton_many",
    "swinton_matrix",
    "identity_report",
]


def _index_of(xs: np.ndarray, x: float) -> int:
    """Index of the stored sample point x of an integration run."""
    i = int(np.argmin(np.abs(xs - x)))
    if abs(float(xs[i]) - x) > 1e-9:
        raise ConfigError(f"x={x} is not a stored sample point")
    return i


@dataclass(frozen=True)
class JostSolution:
    """Scaled samples of a Jost solution along one integration run of
    ``_sweep``, at the stored points xs in the order run (a plus run's xs
    decrease).  It stays inside this module: the routes return values
    read off it, never the run.

    The raw solution at sample i is

        values[i] @ (transform[i] * exp(renorm_log[i])[None, :])

    with values O(1) (orthonormal after the first renormalization),
    transform upper triangular with unit column maxima, and the whole
    exponential bookkeeping in renorm_log.  At the first sample the
    product reproduces the unperturbed data at the starting boundary
    exactly.  renorm_log - renorm_log[0] is the growth removed during the
    run; its dominant entry approximates (fastest rate) x (distance run).
    The routes read the three factors at a stored point (``_index_of``)
    and never form the raw solution, whose columns grow with the run.  An
    adjoint run (``swinton_matrix``) holds the transposed dual rows in the
    same layout.
    """

    xs: np.ndarray
    values: np.ndarray
    transform: np.ndarray
    renorm_log: np.ndarray


@dataclass(frozen=True, slots=True)
class EvansResult:
    """E(lambda), its normalizer c(lambda), and the transmission data.

    transmission / det_transmission are None for fronts, where only the
    scaling-free ratio E/c is meaningful in this module.  transmission is
    the edge pairing Z0+(X) Y-(X), which is I_k + integral of Z0+ R Y-;
    its determinant equals the Fredholm determinant.  Only that
    determinant is accurate to rounding: an entry in the row of a slower
    rate kappa_i is read off columns dominated by the fastest growth, so
    it carries rounding of order eps e^((Re kappa_max - Re kappa_i) X).
    """

    evans: complex
    c_lambda: complex
    ratio: complex
    transmission: Optional[np.ndarray]
    det_transmission: Optional[complex]
    matching_point: float
    truncation_error: float


def _segment_step(*bases: tuple) -> float:
    """The longest renormalization segment: at most 1 long, and short
    enough that the fastest rate of the end bases (plus 1) grows a
    solution by at most 1e4 over it."""
    rate = max(float(np.max(np.abs(kappa.real))) for kappa, *_ in bases)
    return min(1.0, math.log(1e8) / (2.0 * (rate + 1.0)))


# the most renormalization segments a window takes, refused before its
# stored points are formed: every step array grows with the count
MAX_SEGMENTS = 100_000


def _boundaries(half_width: float, step: float,
                extra: Sequence[float] = ()) -> np.ndarray:
    """Stored points of the window [-X, X], ascending: equal segments of
    at most step, the extra points merged in.  A run stores a part."""
    extra = np.asarray(extra, dtype=float)
    if np.any(np.abs(extra) > half_width + 1e-9):
        raise ConfigError(f"sample point outside the window {extra}")
    segments = 2.0 * half_width / step - 1e-12
    if not segments <= MAX_SEGMENTS:
        raise ConfigError(f"half_width {half_width:g} needs {segments:.3g} "
                          f"renormalization segments of length {step:.3g}, "
                          f"more than {MAX_SEGMENTS}")
    n_seg = max(1, math.ceil(segments))
    pts = np.sort(np.concatenate([
        np.linspace(-half_width, half_width, n_seg + 1), extra]))
    pts = pts[np.concatenate(([True], np.diff(pts) > 1e-10))]
    pts[0], pts[-1] = -half_width, half_width
    return pts


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

# the Pade degrees m of exp tried in turn, the 1-norm theta_m up to which
# each needs no scaling, and its coefficients b_j = (2m - j)! / (j! (m - j)!)
# (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 5.371920351148152}
_PADE = {m: [float(math.factorial(2 * m - j) // math.factorial(j)
                   // math.factorial(m - j)) for j in range(m + 1)]
         for m in _THETA}


def _norm1(A: np.ndarray) -> np.ndarray:
    return np.max(np.sum(np.abs(A), axis=-2), axis=-1)


def _expm(A: np.ndarray) -> np.ndarray:
    """The pair [exp(A), exp(-A^T)] of every matrix of a stack (..., d, d),
    shape (2,) + A.shape, each from the Pade approximant
    r_m = (V - U)^-1 (V + U) of the least degree m in 3, 5, 7, 9 whose
    theta_m bounds its own 1-norm; the matrices of one degree go through
    together.  Above theta_9 it is degree 13, each matrix scaled by its
    own power of two and squared back.  U is odd in A and V even, so
    r_m(-A^T) = ((V + U)^-1 (V - U))^T takes one more solve."""
    A = np.asarray(A, dtype=complex)
    norm = _norm1(A)
    degree = np.select([norm <= _THETA[m] for m in (3, 5, 7, 9)],
                       [3, 5, 7, 9], 13)
    s = np.ceil(np.log2(norm / _THETA[13] + 1e-300)).clip(0).astype(int)
    A = A / (2.0 ** s)[..., None, None]
    X = np.empty((2,) + A.shape, dtype=complex)
    for m in set(degree.ravel().tolist()):
        group = degree == m
        B = A[group]
        powers = [np.eye(A.shape[-1], dtype=complex), B @ B]
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ powers[1])
        U = B @ sum(_PADE[m][2 * j + 1] * P for j, P in enumerate(powers))
        V = sum(_PADE[m][2 * j] * P for j, P in enumerate(powers))
        X[0][group] = np.linalg.solve(V - U, V + U)
        X[1][group] = np.swapaxes(np.linalg.solve(V + U, V - U), -1, -2)
    for j in range(int(s.max(initial=0))):
        sq = s > j
        X[:, sq] = X[:, sq] @ X[:, sq]
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


def _step_exponents(system: SystemProblem, A0: np.ndarray, x: np.ndarray,
                    h: np.ndarray) -> np.ndarray:
    """Magnus exponents of the steps from x of signed lengths h, with R
    sampled once at all Gauss points."""
    t = x[:, None] + h[:, None] * _GAUSS3
    R = np.asarray(system.perturbation(t), dtype=complex)
    return _magnus_exponent(A0 + R, h)


# the share of rtol the steps aim at: the local estimates miss some error
_SAFETY = 0.5


def _window_steps(system: SystemProblem, lam: complex,
                  params: IntegrationParams,
                  bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Magnus steps over the ascending stored points bounds, as pairs
    [exp(Omega), exp(-Omega^T)] (2, steps, d, d), and the index of the
    first step after every stored point.

    Every segment is cut at x = 0 (where a front's recentred perturbation
    jumps).  On every piece of length L a pilot sets one step against two
    half steps: their relative 1-norm gap g is 63/64 of the full step's
    error C L^7.  Steps of C h^7 add up to the share L / 2X of _SAFETY *
    rtol when the piece takes m = (128 X g / (63 _SAFETY rtol L))^(1/6) of
    them, rounded up; a piece that needs two or fewer takes the pilot's.
    """
    A0 = np.asarray(system.base_matrix(lam), dtype=complex)
    cut = np.flatnonzero(np.sign(bounds[:-1]) * np.sign(bounds[1:]) < 0.0)
    pts = np.insert(bounds, cut + 1, 0.0)
    x, L, n = pts[:-1], np.diff(pts), pts.size - 1
    pilot = _expm(_step_exponents(system, A0,
                                  np.concatenate([x, x, x + L / 2]),
                                  np.concatenate([L, L / 2, L / 2])))
    halves = pilot[0, 2 * n:] @ pilot[0, n:2 * n]
    gap = _norm1(pilot[0, :n] - halves) / _norm1(halves)
    if not np.all(np.isfinite(gap)):
        raise StiffnessFailure(f"non-finite Magnus step estimate at {lam}")
    m = np.ceil((128.0 * params.half_width * gap
                 / (63.0 * _SAFETY * params.rtol * L)) ** (1.0 / 6.0) - 1e-12)
    count = np.where(m > 2, m, 2).astype(int)
    piece = np.repeat(np.arange(n), count)
    j = np.arange(piece.size) - np.repeat(np.cumsum(count) - count, count)
    own = count[piece] > 2
    h = L[piece[own]] / count[piece[own]]
    steps = np.empty((2, piece.size) + A0.shape, dtype=complex)
    steps[:, own] = _expm(_step_exponents(
        system, A0, x[piece[own]] + j[own] * h, h))
    steps[:, ~own] = pilot[:, (1 + j[~own]) * n + piece[~own]]
    if not np.all(np.isfinite(steps)):
        raise StiffnessFailure(f"non-finite step propagator at {lam}")
    ends = np.delete(np.cumsum(count), cut + np.arange(cut.size))
    return steps, np.concatenate(([0], ends))


def _segment_products(E: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Product of the steps E (..., steps, d, d) of every segment, given
    its number of steps, later steps on the left: neighbouring factors of
    a segment are multiplied pairwise, one batched matmul per round."""
    while np.any(counts > 1):
        j = np.arange(E.shape[-3]) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
        first = j % 2 == 0
        paired = first & (j + 1 < np.repeat(counts, counts))
        i = np.flatnonzero(paired)
        X = E[..., first, :, :]
        X[..., paired[first], :, :] = E[..., i + 1, :, :] @ E[..., i, :, :]
        E, counts = X, (counts + 1) // 2
    return E


def _leftward(products: np.ndarray) -> np.ndarray:
    """A leftward run's segment products, in its order, from the other
    half of the pair's rightward ones: a Gauss-Magnus step reversed has the
    exponent -Omega term by term (a1, a3, C1 odd, a2, C2 even)."""
    return np.swapaxes(products[::-1], -1, -2)


def _run(direction: str, basis: tuple, xs: np.ndarray,
         products: np.ndarray, adjoint: bool = False) -> tuple:
    """The tuple that ``_sweep`` takes for a run from xs[0], given one
    lambda's rows (kappa, k, P, Pinv) of ``greens.end_bases`` at the end it
    starts from: "minus" starts at the left end from Y0-, "plus" at the
    right end from Y0+.  An adjoint run starts from the dual rows Z0^T
    decaying at the same end, at rates -kappa, and its products are the
    transposed steps of -Omega^T."""
    kappa, k, P, Pinv = basis
    # Y0- takes the plus roots and Y0+ the minus roots; the dual rows
    # decaying at the same end belong to the other group
    own = slice(0, k) if (direction == "minus") != adjoint else slice(k, None)
    cols = Pinv[own].T if adjoint else P[:, own]
    return (xs, np.array(cols, dtype=complex),
            (-kappa[own] if adjoint else kappa[own]) * xs[0], products)


def _sweep(runs: Sequence[tuple]) -> list[JostSolution]:
    """Apply the segment products of every run of ``_run`` to its
    starting block, with a QR renormalization after every segment.  Runs of
    one block shape share one stacked ``np.linalg.qr`` per segment; shorter
    runs are padded with identity segments, whose samples are dropped."""
    out: list = [None] * len(runs)
    for shape in sorted({run[1].shape for run in runs}):
        group = [i for i, run in enumerate(runs) if run[1].shape == shape]
        counts = [len(runs[i][3]) for i in group]
        (n, c), G = shape, len(group)
        products = np.tile(np.eye(n, dtype=complex), (max(counts), G, 1, 1))
        for g, i in enumerate(group):
            products[:counts[g], g] = runs[i][3]
        cur = np.stack([runs[i][1] for i in group])
        T = np.tile(np.eye(c, dtype=complex), (G, 1, 1))
        sig = np.stack([runs[i][2] for i in group])
        steps = [(cur, T, sig)]
        for P in products:
            Q, Rtri = np.linalg.qr(P @ cur)
            C = Rtri @ T
            scal = np.max(np.abs(C), axis=-2)
            scal[scal == 0.0] = 1.0
            cur, T, sig = Q, C / scal[:, None, :], sig + np.log(scal)
            steps.append((cur, T, sig))
        values, transforms, logs = (np.stack(x, axis=1) for x in zip(*steps))
        for g, i in enumerate(group):
            keep = slice(counts[g] + 1)
            out[i] = JostSolution(xs=runs[i][0], values=values[g, keep],
                                  transform=transforms[g, keep],
                                  renorm_log=logs[g, keep])
    return out


def _pairing(rows: np.ndarray, row_log: np.ndarray, jost: JostSolution,
             i: int) -> np.ndarray:
    """rows scaled by exp(row_log) times the raw columns of a Jost run at
    its sample i, combined in log space by ``_scaled_entries``."""
    M = rows @ jost.values[i] @ jost.transform[i]
    return _scaled_entries(M, row_log, jost.renorm_log[i])


def _edge_transmission(jm: JostSolution, basis: tuple) -> np.ndarray:
    """The transmission matrix D = Z0+(X) Y-(X) at the right end of a
    minus run over the whole window, from the pulse's basis rows."""
    kappa, k, _, Pinv = basis
    return _pairing(Pinv[:k], -kappa[:k] * jm.xs[-1], jm, -1)


def _normalizer(bm: tuple, bp: tuple, x: float) -> complex:
    """c(lambda) = det[y0-(x) y0+(x)]: the columns of the minus end's basis
    that decay towards -infinity beside those of the plus end's that decay
    towards +infinity, at x."""
    (km, k, Pm, _), (kp, j, Pp, _) = bm, bp
    return complex(np.linalg.det(np.concatenate(
        [Pm[:, :k] * np.exp(km[:k] * x), Pp[:, j:] * np.exp(kp[j:] * x)],
        axis=1)))


def _lambda_runs(system: SystemProblem, lam: complex,
                 params: IntegrationParams, x0: float, swinton: bool,
                 bm: tuple, bp: tuple) -> list[tuple]:
    """The minus run, the plus run and (with swinton) the plus run's
    adjoint of one lambda, from its minus-end and plus-end rows bm and bp
    of ``greens.end_bases``, on one grid of stored points over the window
    with x0 among them and one set of Magnus steps.  A pulse's minus run
    spans the window, a front's stops at x0; the other two go from +X to
    x0 on exp(-Omega) and on the transposed exp(Omega)."""
    bounds = _boundaries(params.half_width, _segment_step(bm, bp), (x0,))
    j = _index_of(bounds, x0)
    steps, at = _window_steps(system, lam, params, bounds)
    right, left = _segment_products(steps, np.diff(at))
    stop = j if system.is_front else len(right)
    runs = [_run("minus", bm, bounds[:stop + 1], right[:stop]),
            _run("plus", bp, bounds[j:][::-1], _leftward(left[j:]))]
    if swinton:
        runs.append(_run("plus", bp, bounds[j:][::-1], _leftward(right[j:]),
                         adjoint=True))
    return runs


# lambdas whose Jost runs share one QR sweep: their segment products and
# samples are held together, so the working set stays flat in the length
# of the lambda list
_SWEEP_SLICE = 8


def _jost_routes(system, lams: Sequence[complex], matching_point: float,
                 params: Optional[IntegrationParams], swinton: bool
                 ) -> list[tuple[EvansResult, Optional[np.ndarray]]]:
    """E/c, the edge transmission matrix and (with swinton) the Swinton
    pairing of every lambda, in input order, from ``_lambda_runs``.  A
    refused lambda raises before a later one is started."""
    sysm = model.as_system(system)
    params = params or IntegrationParams()
    x0 = float(matching_point)
    if abs(x0) > params.half_width:
        raise ConfigError("matching point outside the truncated window")
    truncation = sysm.tail_norm(params.half_width)
    out = []
    for start in range(0, len(lams), _SWEEP_SLICE):
        some = lams[start:start + _SWEEP_SLICE]
        # the slice's end bases come from one stacked split, refused in turn
        minus, plus, refusals = greens.end_bases(sysm, some)
        ends, runs = [], []
        for i, lam in enumerate(some):
            if refusals[i] is not None:
                raise refusals[i]
            ends.append([tuple(rows[i] for rows in side)
                         for side in (minus, plus)])
            runs += _lambda_runs(sysm, lam, params, x0, swinton, *ends[-1])
        sols = _sweep(runs)
        for (bm, bp), r in zip(ends, range(0, len(sols), 2 + swinton)):
            jm, jp, *adj = sols[r:r + 2 + swinton]
            trans = None if sysm.is_front else _edge_transmission(jm, bm)
            im = _index_of(jm.xs, x0)
            ip = _index_of(jp.xs, x0)
            combined = np.concatenate([jm.values[im], jp.values[ip]], axis=1)
            d0 = (np.linalg.det(combined)
                  * np.linalg.det(jm.transform[im])
                  * np.linalg.det(jp.transform[ip]))
            ssum = jm.renorm_log[im].sum() + jp.renorm_log[ip].sum()
            c_lam = _normalizer(bm, bp, x0)
            result = EvansResult(
                evans=_exp_scaled(d0, ssum), c_lambda=c_lam,
                ratio=_exp_scaled(d0 / c_lam, ssum), transmission=trans,
                det_transmission=(None if trans is None
                                  else complex(np.linalg.det(trans))),
                matching_point=x0, truncation_error=truncation)
            pairing = None
            if adj:     # the Swinton rows at x0 pair with the minus run
                rows = (adj[0].values[ip] @ adj[0].transform[ip]).T
                pairing = _pairing(rows, adj[0].renorm_log[ip], jm, im)
            out.append((result, pairing))
        del runs, sols, jm, jp, adj     # before the next slice's are built
    return out


def evans_function_many(system, lams: Sequence[complex],
                        matching_point: float = 0.0,
                        params: Optional[IntegrationParams] = None
                        ) -> list[EvansResult]:
    """``evans_function`` of every lambda, in input order; a refused lambda
    raises the typed error of the first one in input order."""
    return [res for res, _ in _jost_routes(system, lams, matching_point,
                                           params, False)]


def evans_and_swinton_many(system, lams: Sequence[complex],
                           matching_point: float = 0.0,
                           params: Optional[IntegrationParams] = None
                           ) -> list[tuple[EvansResult, np.ndarray]]:
    """``evans_and_swinton`` of every lambda, as ``evans_function_many``."""
    return _jost_routes(system, lams, matching_point, params, True)


def evans_function(system, lam: complex, matching_point: float = 0.0,
                   params: Optional[IntegrationParams] = None) -> EvansResult:
    """E(lambda) = det[Y- Y+] at the matching point, with its normalizer.

    The reported ratio E/c divides out the renormalization logs and, for
    a pulse, the matching-point drift (both determinants pick up the same
    Abel factor), so a pulse's E/c is the quantity to compare across
    matching points and against the Fredholm determinant.  On a front,
    c(lambda) pairs the left end's y- with the right end's y+, which solve
    different constant systems, so E/c moves with the matching point;
    its zeros, those of E, do not.  For pulse problems the minus run
    continues to +X, where it yields the transmission matrix as the edge
    pairing Z0+(X) Y-(X).  ``evans_function_many`` of one lambda.
    """
    return evans_function_many(system, [lam], matching_point, params)[0]


def evans_and_swinton(system, lam: complex, matching_point: float = 0.0,
                      params: Optional[IntegrationParams] = None
                      ) -> tuple[EvansResult, np.ndarray]:
    """``evans_function`` and ``swinton_matrix`` of one lambda from three
    runs on one set of step exponents: one minus run, one plus run and
    the plus run's adjoint."""
    return evans_and_swinton_many(system, [lam], matching_point, params)[0]


def swinton_matrix(system, lam: complex,
                   params: Optional[IntegrationParams] = None,
                   matching_point: float = 0.0) -> np.ndarray:
    """Pairing of the perturbed dual rows with the Jost minus columns.

    The product Z+(x) Y-(x) is x-independent, so the result does not
    depend on the matching point; for decaying perturbations it equals the
    transmission matrix ``EvansResult.transmission``.  The rows Z+ are the
    transposed columns of an adjoint run from +X to the matching point on
    the transposed exp(Omega) of the minus run's steps (``_lambda_runs``).

    Only the determinant is accurate to rounding: the off-diagonal entries
    differ from the transmission matrix's by about 6e-7 of the largest on
    ``biharmonic_demo`` at 3+2i, as the adjoint run's slower columns pick up
    its faster ones' rounding.
    """
    return evans_and_swinton(system, lam, matching_point, params)[1]


def identity_report(problem, lam: complex, grid=None,
                    params: Optional[IntegrationParams] = None) -> dict:
    """Evaluate d, det D, E/c, and the trace-corrected det2 product at one
    lambda and report the largest pairwise gap; d and det2 come from one
    ``fredholm.determinants_many`` call.

    All four numbers are equal in exact arithmetic; the gap is a live
    estimate of the combined quadrature, integration, and truncation
    error.
    """
    from . import fredholm
    sysm = model.as_system(problem)
    if sysm.source is None or sysm.is_front:
        raise ConfigError("identity report needs a scalar-derived pulse")
    grid = grid if grid is not None else model.default_grid()
    d1, d2 = fredholm.determinants_many(sysm, [lam], grid,
                                        {"det1": 1, "det2": 2})[0]
    er = evans_function(sysm, lam, params=params)
    product = _exp_scaled(d2.value, d2.trace_used)
    vals = [d1.value, er.det_transmission, er.ratio, product]
    gap = max(abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1:])
    return {
        "d": d1.value,
        "det_transmission": er.det_transmission,
        "evans_ratio": er.ratio,
        "det2_product": product,
        "max_pairwise_gap": float(gap),
    }
