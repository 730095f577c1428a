"""The three benchmark workloads: their inputs, drawn from a seed, and the
oracle that checks every output row.

A workload is a list of `wavedet` invocations that make one round.  Every
round of a run repeats the same invocations on the same inputs, so the
share of failed operations is the same in every run.  An operation is one
lambda row of `det` / `evans`, or one rectangle of `locate`.

The oracle is computed apart from the command under test and outside the
timed region:

* det_pt800 checks det1, det2 and det3 of Poschl-Teller against closed
  forms (`pt_det1`, `pt_det2`, `pt_det3`).
* evans_bh checks that the Evans ratio, the transmission determinant and
  det(Swinton) agree pairwise, and that the ratio equals det1 from the
  Fredholm route (the paper's identity), evaluated in this process.
* locate_pt2 checks the winding number and the roots against the known
  bound states lambda = j^2, j = 1..N.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import NamedTuple

DET_TOL = 1e-6          # closed forms, as advertised
IDENTITY_TOL = 1e-5     # cross-route identities, as advertised
ROOT_TOL = 1e-6

PT_N = 2
BH_ORACLE_POINTS = 200  # det1 matches the Evans ratio to ~1e-10 here
# the three Evans-route values agree pairwise; the ratio equals det1
EVANS_PAIRS = (("ratio", "det_transmission"), ("ratio", "swinton"),
               ("det_transmission", "swinton"), ("ratio", "det1"))


# ---------------------------------------------------------------------------
# closed forms for the Poschl-Teller well v = N(N+1) sech^2


def _sqrt_right(lam: complex) -> complex:
    s = cmath.sqrt(complex(lam))
    return -s if s.real < 0 else s


def pt_det1(n: int, lam: complex) -> complex:
    """det1 = prod_{j=1..N} (s - j) / (s + j) with s = sqrt(lam), Re s > 0."""
    s = _sqrt_right(lam)
    out = 1.0 + 0.0j
    for j in range(1, n + 1):
        out *= (s - j) / (s + j)
    return out


def pt_det2(n: int, lam: complex) -> complex:
    """det2 = det1 exp(-tr T), with tr T = -N(N+1) / s."""
    s = _sqrt_right(lam)
    return pt_det1(n, lam) * cmath.exp(n * (n + 1) / s)


def pt_trace_t2(n: int, lam: complex) -> complex:
    """tr T^2 = (2 pi)^-1 int v_hat(k)^2 / (s (4 s^2 + k^2)) dk over the
    line, with v_hat(k) = N(N+1) pi k / sinh(pi k / 2)."""
    from scipy.integrate import quad

    s = _sqrt_right(lam)
    c = n * (n + 1)

    def vhat(k):
        return 2.0 * c if k == 0.0 else c * math.pi * k / math.sinh(
            math.pi * k / 2.0)

    def integrand(k):
        return vhat(k) ** 2 / (s * (4.0 * s * s + k * k))

    # even integrand, decaying like k^2 exp(-pi k): [0, 60] is the line
    re = quad(lambda k: integrand(k).real, 0.0, 60.0, limit=200,
              epsabs=1e-15, epsrel=1e-13)[0]
    im = quad(lambda k: integrand(k).imag, 0.0, 60.0, limit=200,
              epsabs=1e-15, epsrel=1e-13)[0]
    return 2.0 * complex(re, im) / (2.0 * math.pi)


def pt_det3(n: int, lam: complex) -> complex:
    """det3 = det2 exp(tr T^2 / 2)."""
    return pt_det2(n, lam) * cmath.exp(0.5 * pt_trace_t2(n, lam))


# ---------------------------------------------------------------------------
# helpers


def _cplx(value) -> complex:
    return complex(value["re"], value["im"])


def _pair(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _close(got: complex, want: complex, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


class Invocation(NamedTuple):
    """One `wavedet` command line: the command, its config and the number
    of operations it carries."""

    command: str
    config: dict
    ops: int


class Workload:
    name = ""
    probes = 1          # set-up probes per round

    def invocations(self) -> list[Invocation]:
        raise NotImplementedError

    def check(self, index: int, doc: dict) -> list[str]:
        """Problems found in the output of invocation `index`, one per
        failed operation (empty when every operation passed)."""
        raise NotImplementedError


def _rows(doc, ops):
    rows = doc.get("rows")
    if not isinstance(rows, list) or len(rows) != ops:
        return None
    return rows


class DetPt800(Workload):
    """`wavedet det` (p = 3) on poschl_teller N=2 at 800 nodes."""

    name = "det_pt800"
    probes = 2
    quad_points = 800

    def __init__(self, seed: int):
        rng = random.Random(f"det_pt800:{seed}")
        # Re lam in [5.5, 8.5], |Im lam| in [0.5, 2.5]: clear of the bound
        # states 1 and 4 and of the essential spectrum (-inf, 0]
        self.lambdas = [complex(rng.uniform(5.5, 8.5),
                                rng.choice((-1, 1)) * rng.uniform(0.5, 2.5))
                        for _ in range(2)]
        self._want = None

    def invocations(self):
        config = {"problem": {"name": "poschl_teller",
                              "params": {"N": PT_N}},
                  "domain": {"quad_points": self.quad_points},
                  "lambdas": [_pair(z) for z in self.lambdas],
                  "output": {"format": "json"}}
        return [Invocation("det", config, len(self.lambdas))]

    def check(self, index, doc):
        if self._want is None:
            self._want = [(pt_det1(PT_N, z), pt_det2(PT_N, z),
                           pt_det3(PT_N, z)) for z in self.lambdas]
        rows = _rows(doc, len(self.lambdas))
        if rows is None:
            return ["det output does not hold one row per lambda"] * len(
                self.lambdas)
        problems = []
        for z, row, want in zip(self.lambdas, rows, self._want):
            got = (_cplx(row["det1"]), _cplx(row["det2"]),
                   _cplx(row["det3"]))
            bad = [f"{label} {g} vs {w}"
                   for label, g, w in zip(("det1", "det2", "det3"), got, want)
                   if not _close(g, w, DET_TOL)]
            if _cplx(row["lambda"]) != z or bad:
                problems.append(f"lambda {z}: " + "; ".join(bad))
        return problems


class EvansBh(Workload):
    """`wavedet evans` on biharmonic_demo, lambda off [0, inf)."""

    name = "evans_bh"
    probes = 1

    def __init__(self, seed: int):
        rng = random.Random(f"evans_bh:{seed}")
        # |lam| in [3, 5] keeps the Jost work per lambda within a few
        # percent; the angle keeps lam away from the essential spectrum
        # [0, inf).  The Evans ratio has no zero here (|ratio| ~ 1).
        self.lambdas = [cmath.rect(rng.uniform(3.0, 5.0),
                                   math.pi * rng.uniform(0.3, 1.7))
                        for _ in range(4)]
        self._det1 = None

    def invocations(self):
        config = {"problem": {"name": "biharmonic_demo"},
                  "lambdas": [_pair(z) for z in self.lambdas],
                  "output": {"format": "json"}}
        return [Invocation("evans", config, len(self.lambdas))]

    def _fredholm_det1(self):
        if self._det1 is None:
            import wavedet as wd
            problem = wd.builtin_problem("biharmonic_demo")
            grid = wd.build_grid(20.0, BH_ORACLE_POINTS)
            self._det1 = [wd.det1(problem, z, grid).value
                          for z in self.lambdas]
        return self._det1

    def check(self, index, doc):
        rows = _rows(doc, len(self.lambdas))
        if rows is None:
            return ["evans output does not hold one row per lambda"] * len(
                self.lambdas)
        problems = []
        for z, row, d1 in zip(self.lambdas, rows, self._fredholm_det1()):
            vals = {key: _cplx(row[key])
                    for key in ("ratio", "det_transmission", "swinton")}
            vals["det1"] = d1
            bad = [f"{a} {vals[a]} vs {b} {vals[b]}"
                   for a, b in EVANS_PAIRS
                   if not _close(vals[a], vals[b], IDENTITY_TOL)]
            if _cplx(row["lambda"]) != z or bad:
                problems.append(f"lambda {z}: " + "; ".join(bad))
        return problems


class LocatePt2(Workload):
    """`wavedet locate` (det1) on poschl_teller N=2, one rectangle around
    each bound state."""

    name = "locate_pt2"
    probes = 3
    quad_points = 200
    samples_per_edge = 6
    # (corner_low, corner_high) around lambda = 1 and lambda = 4
    base = ((complex(0.55, -0.45), complex(1.6, 0.45)),
            (complex(3.1, -0.5), complex(4.9, 0.5)))
    jitter = 0.05   # far smaller than any root-to-edge distance

    def __init__(self, seed: int):
        rng = random.Random(f"locate_pt2:{seed}")

        def shake(z):
            return complex(z.real + rng.uniform(-self.jitter, self.jitter),
                           z.imag + rng.uniform(-self.jitter, self.jitter))

        self.rectangles = [(shake(lo), shake(hi)) for lo, hi in self.base]

    def invocations(self):
        out = []
        for lo, hi in self.rectangles:
            config = {"problem": {"name": "poschl_teller",
                                  "params": {"N": PT_N}},
                      "domain": {"quad_points": self.quad_points},
                      "rectangle": {"corner_low": _pair(lo),
                                    "corner_high": _pair(hi)},
                      "samples_per_edge": self.samples_per_edge,
                      "function": "det1",
                      "output": {"format": "json"}}
            out.append(Invocation("locate", config, 1))
        return out

    def check(self, index, doc):
        lo, hi = self.rectangles[index]
        eigen = [complex(j * j) for j in range(1, PT_N + 1)]
        inside = [e for e in eigen
                  if lo.real < e.real < hi.real and lo.imag < e.imag < hi.imag]
        report = doc.get("report", {})
        roots = [_cplx(r) for r in report.get("roots", [])]
        bad = []
        if report.get("winding") != len(inside):
            bad.append(f"winding {report.get('winding')} != {len(inside)}")
        if report.get("multiplicity_gap"):
            bad.append("multiplicity_gap reported")
        for r in roots:
            if min(abs(r - e) for e in eigen) > ROOT_TOL:
                bad.append(f"root {r} is not an eigenvalue")
        return [f"rectangle {lo}..{hi}: " + "; ".join(bad)] if bad else []


WORKLOADS = {cls.name: cls for cls in (DetPt800, EvansBh, LocatePt2)}
