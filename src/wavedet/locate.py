"""Counting and locating eigenvalues from determinant-like evaluators.

Any of the equivalent functions (Fredholm determinant, Evans ratio, front
det2) can be fed to the argument-principle counter: they are analytic off
the essential spectrum and vanish exactly at eigenvalues.  The winding
number accumulates the phase around a rectangle with adaptive bisection so
no step ever jumps by half a turn; the contour moments of that walk seed
the roots, with an interior scan as the fallback.  Root refinement is a
plain Muller iteration, which needs no derivatives and converges fast on
simple zeros.

An evaluator is a callable on one lambda.  It may also carry
``many(lams)``, the values at a list of lambdas from one call (a
``Batched`` evaluator does); the contour samples of the first pass of the
walk, the starting triple of each Muller run and the scan then take one
call each instead of one per lambda.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import model
from .errors import ConfigError, EssentialSpectrum, NoConvergence, PhaseJump
from .model import ScalarProblem

__all__ = [
    "Batched",
    "Contour",
    "RootReport",
    "refine_root",
    "scan",
    "locate_roots",
]

MAX_BISECTION_DEPTH = 12
PENCIL_COND_LIMIT = 1e8   # a Hankel pencil this ill-conditioned is singular
_MULLER_STEPS = 50


@dataclass(frozen=True)
class Contour:
    """Axis-aligned rectangle in the lambda plane, traversed once
    counterclockwise."""

    corner_low: complex
    corner_high: complex
    samples_per_edge: int = 16

    def __post_init__(self):
        if self.samples_per_edge < 2:
            raise ConfigError("need at least 2 samples per edge")
        if (self.corner_high.real <= self.corner_low.real
                or self.corner_high.imag <= self.corner_low.imag):
            raise ConfigError(
                "corner_high must lie strictly up-right of corner_low")

    def vertices(self) -> tuple:
        a, b = self.corner_low, self.corner_high
        return (a, complex(b.real, a.imag), b, complex(a.real, b.imag))

    def points(self) -> np.ndarray:
        """Boundary samples, counterclockwise, closed (last = first)."""
        verts = self.vertices()
        pts = []
        for i in range(4):
            seg = np.linspace(verts[i], verts[(i + 1) % 4],
                              self.samples_per_edge, endpoint=False)
            pts.extend(seg.tolist())
        pts.append(verts[0])
        return np.array(pts)


@dataclass(frozen=True)
class RootReport:
    """Outcome of counting plus refining inside one contour.

    roots holds the refined locations as plain complex numbers, at most
    one per counted zero.
    """

    winding: int
    roots: tuple
    function_used: str
    multiplicity_gap: bool = False
    abs_values: tuple = ()    # |f| at each root, from its last polish step


class Batched:
    """An evaluator from a function of a list of lambdas: many(lams) is
    that function, and a call on one lambda evaluates [lam]."""

    def __init__(self, many: Callable[[list], list]):
        self.many = many

    def __call__(self, lam: complex) -> complex:
        return self.many([lam])[0]


def _values(f, lams: list) -> list:
    """f at every lambda: one ``f.many`` call when f carries it, one call
    per lambda otherwise."""
    many = getattr(f, "many", None)
    values = many(lams) if many is not None else [f(lam) for lam in lams]
    return [complex(value) for value in values]


def _check_resolvent(problem: Optional[ScalarProblem], lams: list):
    if problem is None:
        return
    for point in model.classify_points(problem, lams):
        if point.domain_status != "resolvent":
            raise EssentialSpectrum(f"contour sample {point.lam} is "
                                    f"{point.domain_status} for the given "
                                    "problem")


def _phase_step(f, za, fa, zb, fb, depth, problem) -> list:
    """The samples (z, f(z)) strictly between za and zb, in order, from
    bisecting until each phase step is below pi/2."""
    if fb == 0 or not np.isfinite(abs(fb)):
        raise PhaseJump(f"evaluator vanished or blew up on the contour "
                        f"at {zb}")
    dphi = cmath.phase(fb / fa)
    if abs(dphi) < 0.5 * math.pi:
        return []
    if depth >= MAX_BISECTION_DEPTH:
        raise PhaseJump(
            f"phase still jumps by {dphi:.3f} rad between {za} and {zb} "
            f"after {depth} bisections - a zero may sit on the contour")
    zm = 0.5 * (za + zb)
    _check_resolvent(problem, [zm])
    fm = complex(f(zm))
    return (_phase_step(f, za, fa, zm, fm, depth + 1, problem) + [(zm, fm)]
            + _phase_step(f, zm, fm, zb, fb, depth + 1, problem))


def _walk(f, contour: Contour,
          problem: Optional[ScalarProblem]) -> tuple[int, list]:
    """Winding number of f around the contour (argument principle) and
    the samples (z, f(z)) of its walk in contour order, bisection points
    included, closed.  With a problem, every sample is checked to sit in
    the resolvent region first; a phase that does not land within 0.1
    turns of an integer is a PhaseJump, not rounded away."""
    pts = [complex(z) for z in contour.points()[:-1]]
    _check_resolvent(problem, pts)
    samples = list(zip(pts, _values(f, pts)))
    if any(v == 0 or not np.isfinite(abs(v)) for _, v in samples):
        raise PhaseJump("evaluator vanished or blew up on the contour")
    walk = samples[:1]
    for (za, fa), (zb, fb) in zip(samples, samples[1:] + samples[:1]):
        walk += _phase_step(f, za, fa, zb, fb, 0, problem) + [(zb, fb)]
    turns = sum(cmath.phase(fb / fa) for (_, fa), (_, fb)
                in zip(walk, walk[1:])) / (2.0 * math.pi)
    nearest = round(turns)
    if abs(turns - nearest) > 0.1:
        raise PhaseJump(
            f"accumulated phase is {turns:.4f} turns, not close to an "
            f"integer")
    return int(nearest), walk


def refine_root(f: Callable[[complex], complex], lam0: complex,
                tol: float = 1e-10) -> complex:
    """Polish a root guess by Muller's method.

    Stops when |f| falls below tol times the reference scale max(1,
    |f(lam0)|); a flat or non-decreasing function, or one still above
    that after 50 steps, raises NoConvergence instead of returning the
    starting point.
    """
    h = 1e-3 * max(1.0, abs(lam0))
    z0, z1, z2 = lam0 - h, lam0 + h, complex(lam0)
    f0, f1, f2 = _values(f, [z0, z1, z2])
    scale = max(1.0, abs(f2))
    for _ in range(_MULLER_STEPS):
        if abs(f2) < tol * scale:
            return z2
        h1, h2 = z1 - z0, z2 - z1
        if h1 == 0 or h2 == 0 or (h2 + h1) == 0:
            raise NoConvergence("Muller nodes collapsed")
        d1 = (f1 - f0) / h1
        d2 = (f2 - f1) / h2
        a = (d2 - d1) / (h2 + h1)
        b = d2 + h2 * a
        disc = cmath.sqrt(b * b - 4.0 * f2 * a)
        den = b + disc if abs(b + disc) > abs(b - disc) else b - disc
        if den == 0:
            raise NoConvergence("flat evaluator - no quadratic step exists")
        step = -2.0 * f2 / den
        z0, f0 = z1, f1
        z1, f1 = z2, f2
        z2 = z2 + step
        f2 = complex(f(z2))
    raise NoConvergence(
        f"no root to residual {tol:g} x scale within {_MULLER_STEPS} "
        f"iterations (last |f| = {abs(f2):.3g})")


def scan(f: Callable[[complex], complex], corner_low: complex,
         corner_high: complex, nx: int, ny: Optional[int] = None) -> list:
    """Tabulate f on a rectangular lambda grid, row-major from the bottom.

    Returns (lambda, f(lambda)) pairs; single-row scans (ny = 1 or a flat
    rectangle) walk the real direction only.
    """
    ny = nx if ny is None else ny
    if nx < 1 or ny < 1:
        raise ConfigError("scan needs at least a 1 x 1 grid")
    res = np.linspace(corner_low.real, corner_high.real, nx)
    ims = np.linspace(corner_low.imag, corner_high.imag, ny)
    lams = [complex(re, im) for im in ims for re in res]
    return list(zip(lams, _values(f, lams)))


def _moment_seeds(walk: list, contour: Contour, w: int):
    """The w zeros inside the contour as the eigenvalues of the Hankel
    pencil H0^-1 H1, (H0)_ij = s_(i+j), (H1)_ij = s_(i+j+1), of the
    moments s_p = (1/2 pi i) sum_seg zbar_seg^p (log|f_b / f_a| + i dphi)
    over the walk's segments, z centred and scaled to the rectangle
    (Delves and Lyness 1967; Kravanja and Van Barel 2000).  No seeds if
    the pencil is singular or a seed is not finite."""
    a, b = contour.corner_low, contour.corner_high
    centre, radius = 0.5 * (a + b), 0.5 * abs(b - a)
    z, fz = np.array(walk).T
    z = (z - centre) / radius
    s = ((0.5 * (z[1:] + z[:-1])) ** np.arange(2 * w)[:, None]
         @ np.log(fz[1:] / fz[:-1]) / (2j * math.pi))
    idx = np.add.outer(np.arange(w), np.arange(w))
    try:
        if np.linalg.cond(s[idx]) > PENCIL_COND_LIMIT:
            return ()
        seeds = np.linalg.eigvals(np.linalg.solve(s[idx], s[idx + 1]))
    except np.linalg.LinAlgError:
        return ()
    return centre + radius * seeds if np.isfinite(seeds).all() else ()


def _polish(f, seeds, contour: Contour, w: int) -> list:
    """(root, |f| there) pairs from polishing the seeds in turn by
    refine_root, until w distinct interior roots are known."""
    a, b = contour.corner_low, contour.corner_high
    roots, values = [], {}

    def record(lams):
        out = _values(f, lams)
        values.update(zip(lams, out))
        return out
    recorded = Batched(record)
    for seed in seeds:
        try:
            z = refine_root(recorded, complex(seed))
        except NoConvergence:
            continue
        # the polish stops at |f| < tol * scale, which pins a double zero
        # only to ~sqrt(tol); polished points closer than that are
        # indistinguishable from one multiple zero and must merge
        if (a.real < z.real < b.real and a.imag < z.imag < b.imag
                and all(abs(z - r) > 1e-5 * max(1.0, abs(z))
                        for r, _ in roots)):
            roots.append((complex(z), abs(values[z])))
        if len(roots) == w:
            break
    return roots


def _scan_seeds(f, contour: Contour, w: int):
    """The fallback seeds, scanned only when first asked for: the points of
    a 7 x 7 interior grid, its discrete local minima of |f| (no smaller
    value among the up to 8 neighbours) first, each group by ascending
    |f|, at most max(2 w, 4) of them."""
    n = 7
    pad = 0.05 * (contour.corner_high - contour.corner_low)
    table = scan(f, contour.corner_low + pad, contour.corner_high - pad, n)
    mags = np.abs([val for _, val in table]).reshape(-1, n)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(mags, 1, constant_values=np.inf), (3, 3))
    local_min = (mags <= windows.min(axis=(-2, -1))).ravel()
    for i in np.lexsort((mags.ravel(), ~local_min))[:max(2 * w, 4)]:
        yield table[i][0]


def locate_roots(f: Callable[[complex], complex], contour: Contour,
                 problem: Optional[ScalarProblem] = None,
                 function_used: str = "det1") -> RootReport:
    """Count zeros inside the contour, then hunt them down.

    The contour-moment seeds of the winding walk are polished first; only
    if they leave fewer than w distinct interior roots (a singular pencil,
    multiple or clustered zeros, a seed that does not converge) does the
    7 x 7 interior scan of ``_scan_seeds`` run.  A shortfall is reported, not
    padded.
    """
    w, walk = _walk(f, contour, problem)
    if w == 0:
        return RootReport(winding=0, roots=(), function_used=function_used)
    seeds = _moment_seeds(walk, contour, w) if w > 0 else ()
    roots = _polish(f, itertools.chain(seeds, _scan_seeds(f, contour, w)),
                    contour, w)
    return RootReport(winding=w, roots=tuple(z for z, _ in roots),
                      function_used=function_used,
                      multiplicity_gap=len(roots) != w,
                      abs_values=tuple(v for _, v in roots))
