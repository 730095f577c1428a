import numpy as np
import pytest

import wavedet as wd
from wavedet import locate
from wavedet.locate import Contour, locate_roots, refine_root, scan
from wavedet.errors import ConfigError, EssentialSpectrum, NoConvergence, \
    PhaseJump


# ---------------------------------------------------------------------------
# contours


def test_contour_validation():
    with pytest.raises(ConfigError):
        Contour(0.0 + 0.0j, 1.0 + 1.0j, samples_per_edge=1)
    with pytest.raises(ConfigError):
        Contour(0.0 + 0.0j, -1.0 + 1.0j)
    with pytest.raises(ConfigError):
        Contour(0.0 + 0.0j, 1.0 + 0.0j)  # flat rectangle


def test_contour_points_closed_and_counterclockwise():
    c = Contour(0.0 + 0.0j, 2.0 + 1.0j, samples_per_edge=4)
    pts = c.points()
    assert len(pts) == 17
    assert pts[0] == pts[-1] == 0.0 + 0.0j
    # shoelace area of the polygon is positive for ccw traversal
    area = 0.5 * np.sum(np.real(pts[:-1]) * np.imag(pts[1:])
                        - np.real(pts[1:]) * np.imag(pts[:-1]))
    assert area == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# winding numbers on analytic functions


def _winding(f, contour):
    """The zeros of f enclosed by the contour, from its phase walk."""
    return locate._walk(f, contour)[0]


def test_winding_counts_polynomial_zeros():
    def f(lam):
        return (lam - 1.0) * (lam - (0.5 + 0.2j))

    assert _winding(f, Contour(0.0 - 1.0j, 2.0 + 1.0j)) == 2
    assert _winding(f, Contour(3.0 - 1.0j, 4.0 + 1.0j)) == 0
    assert _winding(f, Contour(0.9 - 0.1j, 1.1 + 0.1j)) == 1


def test_winding_counts_multiplicity():
    assert _winding(lambda lam: (lam - 1.0) ** 2,
                          Contour(0.0 - 1.0j, 2.0 + 1.0j)) == 2


def test_winding_checks_resolvent_when_problem_given(pt, coarse_grid):
    # the bottom edge runs along the negative real axis, through the
    # essential spectrum of the constant part; the walk itself checks
    # nothing, and det1 of the problem refuses the sample through its own
    # root split
    c = Contour(complex(-3.0, 0.0), complex(-1.0, 1.0))
    with pytest.raises(EssentialSpectrum):
        _winding(lambda lam: wd.det1(pt, lam, coarse_grid).value, c)


def test_zero_on_contour_is_reported():
    # the zero sits exactly on the right edge; either a sample hits it or
    # the bisection walks into it, never a silently wrong count
    c = Contour(0.0 - 1.0j, 1.0 + 1.0j, samples_per_edge=3)
    with pytest.raises(PhaseJump):
        _winding(lambda lam: lam - 1.0, c)


# ---------------------------------------------------------------------------
# refinement


def test_refine_root_polynomial():
    z = refine_root(lambda lam: lam * lam - 1.0, 1.2 + 0.1j)
    assert abs(z - 1.0) < 1e-9


def test_refine_root_needs_variation():
    with pytest.raises(NoConvergence):
        refine_root(lambda lam: 1.0, 1.0)


def test_refine_root_on_determinant(pt, coarse_grid):
    z = refine_root(lambda lam: wd.det1(pt, lam, coarse_grid).value, 1.2)
    assert abs(z - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# scanning


def test_scan_row_major_from_bottom():
    rows = scan(lambda lam: lam, complex(0, 0), complex(1, 1), 3, 2)
    assert len(rows) == 6
    lams = [r[0] for r in rows]
    assert lams[0] == 0.0 + 0.0j and lams[2] == 1.0 + 0.0j
    assert lams[3] == 0.0 + 1.0j and lams[5] == 1.0 + 1.0j
    assert all(val == lam for lam, val in rows)


def test_scan_single_row_and_validation():
    rows = scan(lambda lam: lam ** 2, complex(0, 0), complex(2, 0), 5, 1)
    assert len(rows) == 5
    assert rows[-1] == (2.0 + 0.0j, 4.0 + 0.0j)
    with pytest.raises(ConfigError):
        scan(lambda lam: lam, complex(0, 0), complex(1, 1), 0)


# ---------------------------------------------------------------------------
# the full counting + hunting loop


def test_locate_roots_two_simple_zeros():
    def f(lam):
        return (lam - 1.0) * (lam - (0.5 + 0.2j))

    rep = locate_roots(f, Contour(0.0 - 1.0j, 2.0 + 1.0j),
                       function_used="poly")
    assert rep.winding == 2
    assert rep.function_used == "poly"
    assert not rep.multiplicity_gap
    found = sorted(rep.roots, key=lambda z: z.real)
    assert abs(found[0] - (0.5 + 0.2j)) < 1e-8
    assert abs(found[1] - 1.0) < 1e-8


def test_locate_roots_empty_region():
    rep = locate_roots(lambda lam: lam - 10.0, Contour(0.0 - 1.0j,
                                                       2.0 + 1.0j))
    assert rep.winding == 0 and rep.roots == ()


def test_locate_roots_flags_multiplicity():
    rep = locate_roots(lambda lam: (lam - 1.0) ** 2,
                       Contour(0.0 - 1.0j, 2.0 + 1.0j))
    assert rep.winding == 2
    assert len(rep.roots) == 1
    assert rep.multiplicity_gap
    assert abs(rep.roots[0] - 1.0) < 1e-6


def test_locate_roots_on_determinant(pt, coarse_grid):
    def f(lam):
        return wd.det1(pt, lam, coarse_grid).value

    inside = Contour(0.5 - 0.5j, 1.5 + 0.5j, samples_per_edge=8)
    rep = locate_roots(f, inside)
    assert rep.winding == 1
    assert abs(rep.roots[0] - 1.0) < 1e-6

    empty = Contour(2.0 - 0.5j, 3.0 + 0.5j, samples_per_edge=8)
    assert locate_roots(f, empty).winding == 0


def test_locate_roots_finds_both_bound_states():
    """Both bound states of the N=2 well sit in one rectangle; the seeds
    must come from separate local minima of |det1|, not all from the
    deeper one near lambda = 4."""
    p2 = wd.builtin_problem("poschl_teller", N=2)
    g = wd.build_grid(20.0, 200)
    rep = locate_roots(lambda lam: wd.det1(p2, lam, g).value,
                       Contour(0.5 - 1.0j, 5.0 + 1.0j))
    assert rep.winding == 2
    assert not rep.multiplicity_gap
    found = sorted(rep.roots, key=lambda z: z.real)
    assert abs(found[0] - 1.0) < 1e-6
    assert abs(found[1] - 4.0) < 1e-6


# ---------------------------------------------------------------------------
# moment seeds first, the interior scan as the fallback


def _p2_det1(nodes=200):
    p2 = wd.builtin_problem("poschl_teller", N=2)
    g = wd.build_grid(20.0, nodes)
    return lambda lam: wd.det1(p2, lam, g).value


def test_scan_fallback_finds_both_bound_states():
    f = _p2_det1()
    contour = Contour(0.5 - 1.0j, 5.0 + 1.0j)
    roots = locate._polish(f, locate._scan_seeds(f, contour, 2), contour, 2)
    found = sorted((z for z, _ in roots), key=lambda z: z.real)
    assert len(found) == 2
    assert abs(found[0] - 1.0) < 1e-6
    assert abs(found[1] - 4.0) < 1e-6


def test_double_zero_falls_back_to_the_scan(monkeypatch):
    scans = []

    def counted(*args, **kwargs):
        scans.append(1)
        return scan(*args, **kwargs)

    monkeypatch.setattr(locate, "scan", counted)
    rep = locate_roots(lambda lam: (lam - 1.0) ** 2,
                       Contour(0.0 - 1.0j, 2.0 + 1.0j))
    assert scans == [1]
    assert rep.winding == 2 and len(rep.roots) == 1
    assert rep.multiplicity_gap
    assert abs(rep.roots[0] - 1.0) < 1e-6


def test_moment_seeds_skip_the_scan(monkeypatch):
    """On a benchmark-like rectangle around lambda = 1 the moment seeds
    polish to the root at once: no scan, and at most 12 evaluations
    beyond the contour walk."""

    def no_scan(*args, **kwargs):
        raise AssertionError("the interior scan ran")

    monkeypatch.setattr(locate, "scan", no_scan)
    det1 = _p2_det1()
    calls = []

    def f(lam):
        calls.append(lam)
        return det1(lam)

    contour = Contour(0.55 - 0.45j, 1.6 + 0.45j, samples_per_edge=6)
    rep = locate_roots(f, contour)
    used = len(calls)
    _, samples = locate._walk(det1, contour)
    assert rep.winding == 1 and not rep.multiplicity_gap
    assert abs(rep.roots[0] - 1.0) < 1e-6
    assert used <= len(samples) - 1 + 12
    assert rep.abs_values[0] == abs(det1(rep.roots[0]))


def test_batched_evaluator_takes_lists():
    """A Batched evaluator gets the first pass of the walk, each Muller
    starting triple and the scan as one list each, the remaining points
    one at a time, and gives the plain evaluator's report."""
    det1 = _p2_det1()
    lists = []

    def many(lams):
        lists.append(len(lams))
        return [det1(lam) for lam in lams]

    f = locate.Batched(many)
    contour = Contour(0.55 - 0.45j, 1.6 + 0.45j, samples_per_edge=6)
    assert locate_roots(f, contour) == locate_roots(det1, contour)
    assert lists[0] == 24 and lists[1] == 3 and set(lists[2:]) == {1}
    lists.clear()
    assert scan(f, 0.5 - 0.5j, 1.5 + 0.5j, 3, 2) == scan(
        det1, 0.5 - 0.5j, 1.5 + 0.5j, 3, 2)
    assert lists == [6]
    lists.clear()
    seeds = list(locate._scan_seeds(f, contour, 1))
    assert lists == [49] and seeds == list(locate._scan_seeds(det1, contour,
                                                              1))
