"""Counting and locating eigenvalues from determinant-like evaluators.

Any of the equivalent functions (Fredholm determinant, Evans ratio, front
det2) can be fed to the argument-principle counter: they are analytic off
the essential spectrum and vanish exactly at eigenvalues.  The winding
number accumulates the phase around a rectangle with adaptive bisection so
no step ever jumps by half a turn; root refinement is a plain Muller
iteration, which needs no derivatives and converges fast on simple zeros.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import model
from .errors import ConfigError, EssentialSpectrum, NoConvergence, PhaseJump
from .model import ScalarProblem

__all__ = [
    "Contour",
    "RootReport",
    "winding_number",
    "refine_root",
    "scan",
    "locate_roots",
]

MAX_BISECTION_DEPTH = 12


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


def _check_resolvent(problem: Optional[ScalarProblem], lam: complex):
    if problem is None:
        return
    status = model.classify_point(problem, lam).domain_status
    if status != "resolvent":
        raise EssentialSpectrum(
            f"contour sample {lam} is {status} for the given problem")


def _phase_step(f, za, fa, zb, fb, depth, problem):
    """Phase increment from za to zb, bisecting until each piece < pi/2."""
    if fb == 0 or not np.isfinite(abs(fb)):
        raise PhaseJump(f"evaluator vanished or blew up on the contour "
                        f"at {zb}")
    dphi = cmath.phase(fb / fa)
    if abs(dphi) < 0.5 * math.pi:
        return dphi
    if depth >= MAX_BISECTION_DEPTH:
        raise PhaseJump(
            f"phase still jumps by {dphi:.3f} rad between {za} and {zb} "
            f"after {depth} bisections - a zero may sit on the contour")
    zm = 0.5 * (za + zb)
    _check_resolvent(problem, zm)
    fm = complex(f(zm))
    return (_phase_step(f, za, fa, zm, fm, depth + 1, problem)
            + _phase_step(f, zm, fm, zb, fb, depth + 1, problem))


def winding_number(f: Callable[[complex], complex], contour: Contour,
                   problem: Optional[ScalarProblem] = None) -> int:
    """Number of zeros of f enclosed by the contour (argument principle).

    With a problem supplied, every sample is checked to sit in the
    resolvent region first.  The accumulated phase must land within 0.1
    turns of an integer; anything else means the bookkeeping failed and is
    reported as a PhaseJump rather than rounded away.
    """
    pts = contour.points()
    for z in pts[:-1]:
        _check_resolvent(problem, complex(z))
    vals = [complex(f(complex(z))) for z in pts[:-1]]
    vals.append(vals[0])
    if any(v == 0 or not np.isfinite(abs(v)) for v in vals):
        raise PhaseJump("evaluator vanished or blew up on the contour")
    total = 0.0
    for i in range(len(pts) - 1):
        total += _phase_step(f, complex(pts[i]), vals[i],
                             complex(pts[i + 1]), vals[i + 1], 0, problem)
    turns = total / (2.0 * math.pi)
    nearest = round(turns)
    if abs(turns - nearest) > 0.1:
        raise PhaseJump(
            f"accumulated phase is {turns:.4f} turns, not close to an "
            f"integer")
    return int(nearest)


def refine_root(f: Callable[[complex], complex], lam0: complex,
                tol: float = 1e-10, max_iter: int = 50) -> complex:
    """Polish a root guess by Muller's method.

    Stops when |f| falls below tol times the reference scale max(1,
    |f(lam0)|); a flat or non-decreasing function raises NoConvergence
    instead of returning the starting point.
    """
    h = 1e-3 * max(1.0, abs(lam0))
    z0, z1, z2 = lam0 - h, lam0 + h, complex(lam0)
    f0, f1, f2 = complex(f(z0)), complex(f(z1)), complex(f(z2))
    scale = max(1.0, abs(f2))
    for _ in range(max_iter):
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
        f"no root to residual {tol:g} x scale within {max_iter} iterations "
        f"(last |f| = {abs(f2):.3g})")


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
    out = []
    for im in ims:
        for re in res:
            lam = complex(re, im)
            out.append((lam, complex(f(lam))))
    return out


def locate_roots(f: Callable[[complex], complex], contour: Contour,
                 problem: Optional[ScalarProblem] = None,
                 function_used: str = "det1",
                 interior_resolution: int = 7) -> RootReport:
    """Count zeros inside the contour, then hunt them down.

    Starting points come from a coarse interior grid: first its discrete
    local minima of |f| (no smaller value among the up to 8 neighbours),
    then the remaining grid points, each group by ascending |f|; at most
    max(2 w, 4) of them are tried.  Each is polished by refine_root and
    near-duplicates are merged.  If fewer distinct roots than the winding
    number survive (multiple zeros, clustered zeros), the report says so
    instead of padding the list.
    """
    w = winding_number(f, contour, problem)
    if w == 0:
        return RootReport(winding=0, roots=(), function_used=function_used)
    a, b = contour.corner_low, contour.corner_high
    pad_re = 0.05 * (b.real - a.real)
    pad_im = 0.05 * (b.imag - a.imag)
    table = scan(f, complex(a.real + pad_re, a.imag + pad_im),
                 complex(b.real - pad_re, b.imag - pad_im),
                 interior_resolution)
    mags = np.abs([val for _, val in table]).reshape(-1, interior_resolution)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(mags, 1, constant_values=np.inf), (3, 3))
    local_min = (mags <= windows.min(axis=(-2, -1))).ravel()
    table = [table[i] for i in np.lexsort((mags.ravel(), ~local_min))]
    roots = []
    for lam, _ in table[:max(2 * w, 4)]:
        try:
            z = refine_root(f, lam)
        except NoConvergence:
            continue
        if not (a.real < z.real < b.real and a.imag < z.imag < b.imag):
            continue
        # the polish stops at |f| < tol * scale, which pins a double zero
        # only to ~sqrt(tol); polished points closer than that are
        # indistinguishable from one multiple zero and must merge
        if all(abs(z - r) > 1e-5 * max(1.0, abs(z)) for r in roots):
            roots.append(complex(z))
        if len(roots) == w:
            break
    return RootReport(winding=w, roots=tuple(roots),
                      function_used=function_used,
                      multiplicity_gap=len(roots) != w)
