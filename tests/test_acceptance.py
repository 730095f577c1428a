"""End-to-end accuracy battery.

Every advertised tolerance of the package is pinned here, one test per
claim, each printing a single PASS/FAIL verdict line (pushed past the
output capture so the battery reads as a checklist in the test log).
"""

import time

import numpy as np
import pytest

import wavedet as wd
from wavedet import evans, fredholm, fronts, greens, locate
from wavedet.errors import EssentialSpectrum, IllConditioned, \
    NearMultipleRoots

import oracles

_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdicts_reach_the_terminal(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _maxabs(a):
    return float(np.max(np.abs(a))) if a.size else 0.0


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" - {detail}"
    if _CAPSYS is None:
        print(line, flush=True)
    else:
        with _CAPSYS.disabled():
            print(line, flush=True)
    assert ok, line


def _closed_form(lam):
    s = np.sqrt(complex(lam))
    if s.real < 0:
        s = -s
    return (s - 1.0) / (s + 1.0)


# ---------------------------------------------------------------------------
# 1: interface identities of the unperturbed kernel, randomized


def test_interface_identities_random_battery():
    rng = np.random.default_rng(20260821)
    t0 = time.perf_counter()
    prof = wd.make_profile("sech2", amplitude=1.0)
    done = 0
    worst_jump = worst_moment = worst_basis = worst_green = 0.0
    while done < 100:
        n = int(rng.integers(2, 7))
        coeffs = tuple(complex(a, b)
                       for a, b in rng.uniform(-1.5, 1.5, (n, 2)))
        problem = wd.ScalarProblem(order=n, coeffs=coeffs, profile=prof)
        lam = complex(rng.uniform(0.5, 6.0), rng.uniform(-3.0, 3.0))
        try:
            kall, k, alpha, _ = oracles.green_row(problem, lam)
            basis = oracles.basis(wd.to_system(problem), lam)
        except (EssentialSpectrum, NearMultipleRoots, IllConditioned):
            continue
        done += 1
        signs = np.array([1.0] * k + [-1.0] * (n - k))
        M = (kall[None, :] ** np.arange(n)[:, None]) * signs[None, :]
        rhs = np.zeros(n, dtype=complex)
        rhs[-1] = -1.0
        resid = M @ alpha - rhs
        worst_jump = max(worst_jump,
                         abs(resid[-1]) / np.max(np.abs(alpha)))
        if n > 1:
            worst_moment = max(worst_moment, float(np.max(np.abs(
                resid[:-1]))))
        for x in np.linspace(-2.0, 2.0, 50):
            ym, yp = basis.y_minus(x), basis.y_plus(x)
            zp, zm = oracles.dual_rows(basis, x)
            worst_basis = max(worst_basis,
                              _maxabs(zp @ ym - np.eye(k)),
                              _maxabs(zm @ yp - np.eye(n - k)),
                              _maxabs(zp @ yp), _maxabs(zm @ ym))
        x = float(rng.uniform(-1.0, 1.0))
        jump = (oracles.matrix_green(x + 1e-14, x, basis)
                - oracles.matrix_green(x - 1e-14, x, basis))
        worst_green = max(worst_green,
                          float(np.max(np.abs(jump - np.eye(n)))))
    elapsed = time.perf_counter() - t0
    ok = (worst_jump < 1e-12 and worst_moment < 1e-10
          and worst_basis < 1e-10 and worst_green < 1e-10
          and elapsed < 10.0)
    _report("interface identities (100 random instances, n = 2..6)", ok,
            f"jump {worst_jump:.1e}, moments {worst_moment:.1e}, "
            f"basis products {worst_basis:.1e}, kernel jump "
            f"{worst_green:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2: the order-2 free kernel against its closed form


def test_free_kernel_closed_form():
    rng = np.random.default_rng(7)
    prof = wd.make_profile("sech2", amplitude=1.0)
    free = wd.ScalarProblem(order=2, coeffs=(0.0, 0.0), profile=prof)
    worst = 0.0
    for _ in range(20):
        x, xi = rng.uniform(-3.0, 3.0, 2)
        lam = complex(rng.uniform(0.5, 8.0), rng.uniform(-2.0, 2.0))
        got = oracles.scalar_green(float(x), float(xi),
                                   *oracles.green_row(free, lam)[:3])
        s = np.sqrt(lam)
        if s.real < 0:
            s = -s
        want = -np.exp(-s * abs(x - xi)) / (2.0 * s)
        worst = max(worst, abs(got - want))
    _report("order-2 free kernel closed form (20 random triples)",
            worst < 1e-12, f"worst gap {worst:.1e}")


# ---------------------------------------------------------------------------
# 3: reflectionless determinant closed form and its root


def test_reflectionless_determinant_closed_form(pt, grid):
    gaps = {lam: abs(wd.det1(pt, lam, grid).value - _closed_form(lam))
            for lam in (4.0, 9.0, 2.0 + 1.0j)}
    at_one = abs(wd.det1(pt, 1.0, grid).value)
    root = locate.refine_root(lambda lam: wd.det1(pt, lam, grid).value, 1.2)
    ok = (max(gaps.values()) < 1e-6 and at_one < 1e-6
          and abs(root - 1.0) < 1e-6)
    _report("reflectionless closed form (X=20, N=400)", ok,
            f"worst value gap {max(gaps.values()):.1e}, |det(1)| "
            f"{at_one:.1e}, refined root {root.real:.8f}")


# ---------------------------------------------------------------------------
# 4-6 share one battery of identity reports


BATTERY_LAMBDAS = [2.5, 4.0, 9.0, 0.5 + 1.5j, 2.0 + 1.0j, 3.0 - 2.0j,
                   1.5 + 0.5j, 6.0 + 2.0j, 5.0 - 1.0j, 0.8 - 0.6j]


@pytest.fixture(scope="module")
def battery(grid):
    problems = {"poschl_teller": wd.builtin_problem("poschl_teller"),
                "gaussian_pulse": wd.builtin_problem("gaussian_pulse")}
    t0 = time.perf_counter()
    reports = {name: [evans.identity_report(prob, lam, grid)
                      for lam in BATTERY_LAMBDAS]
               for name, prob in problems.items()}
    elapsed = time.perf_counter() - t0
    return problems, reports, elapsed


def test_scattering_determinant_matches_fredholm(battery):
    _, reports, elapsed = battery
    worst = max(abs(r["det_transmission"] - r["d"]) / abs(r["d"])
                for rows in reports.values() for r in rows)
    _report("det of the transmission problem = Fredholm det "
            "(10 lambdas x 2 problems)",
            worst < 1e-5 and elapsed < 60.0,
            f"worst relative gap {worst:.1e}, battery {elapsed:.1f}s")


def test_evans_ratio_matches_fredholm(battery):
    problems, reports, _ = battery
    worst = max(abs(r["evans_ratio"] - r["d"]) / abs(r["d"])
                for rows in reports.values() for r in rows)
    invariance = 0.0
    for prob in problems.values():
        sysm = wd.to_system(prob)
        for lam in (4.0, 9.0, 2.0 + 1.0j):
            a = wd.evans_function(sysm, lam, matching_point=0.0).ratio
            b = wd.evans_function(sysm, lam, matching_point=1.0).ratio
            invariance = max(invariance, abs(a - b) / abs(a))
    _report("Evans ratio = Fredholm det, matching-point invariant",
            worst < 1e-5 and invariance < 1e-8,
            f"worst relative gap {worst:.1e}, matching drift "
            f"{invariance:.1e}")


def test_trace_corrected_det2_identity(battery, pt_system, grid):
    _, reports, _ = battery
    rows = reports["poschl_teller"][:5]
    worst = max(abs(r["det2_product"] - r["det_transmission"])
                / abs(r["det_transmission"]) for r in rows)
    d2 = wd.detp(pt_system, 4.0, grid, p=2).value
    d3 = wd.detp(pt_system, 4.0, grid, p=3).value
    t2, _ = oracles.trace_powers(pt_system, 4.0, grid)
    correction = abs(d3 - d2 * np.exp(t2 / 2.0))
    _report("exp(trace) x det2 = det, higher-order correction",
            worst < 1e-5 and correction < 1e-6,
            f"worst relative residual {worst:.1e}, p=3 vs p=2 "
            f"{correction:.1e}")


# ---------------------------------------------------------------------------
# 7: first-order series term = trace, along every route


def test_first_order_trace_consistency(pt, pt_system, grid):
    worst_series = worst_system = worst_pair = 0.0
    for lam in (4.0, 2.0 + 1.0j):
        exact = wd.det1(pt, lam, grid).trace_used
        worst_series = max(worst_series, abs(
            oracles.series_coefficients(pt, lam, grid)[0] - exact))
        worst_system = max(worst_system, abs(
            wd.det2(pt_system, lam, grid).trace_used - exact))
        tp, tm = oracles.sign_traces(pt_system, lam, grid)
        worst_pair = max(worst_pair, abs(tp - tm))
    ok = max(worst_series, worst_system, worst_pair) < 1e-8
    _report("first series coefficient = trace (scalar, system, both signs)",
            ok, f"series {worst_series:.1e}, system {worst_system:.1e}, "
            f"signs {worst_pair:.1e}")


# ---------------------------------------------------------------------------
# 8: normalization at large lambda


def test_determinant_normalization_at_infinity(pt, grid):
    got = [abs(res.value - 1.0)
           for res in fredholm.det1_many(pt, [1e2, 1e3, 1e4], grid)]
    want = [0.182, 0.0613, 0.0198]
    gaps = [abs(g - w) for g, w in zip(got, want)]
    ok = max(gaps) < 2e-3 and got[0] > got[1] > got[2]
    _report("drift to 1 along the positive axis", ok,
            "|det-1| = " + ", ".join(f"{g:.4f}" for g in got))


# ---------------------------------------------------------------------------
# 9: both pipelines count the same zeros


def test_winding_numbers_agree(pt, pt_system, coarse_grid):
    def f_det(lam):
        return wd.det1(pt, lam, coarse_grid).value

    def f_ev(lam):
        return wd.evans_function(pt_system, lam).ratio

    inside = locate.Contour(0.5 - 0.5j, 1.5 + 0.5j, samples_per_edge=8)
    outside = locate.Contour(2.0 - 0.5j, 3.0 + 0.5j, samples_per_edge=8)
    results = {}
    for label, contour in (("around the eigenvalue", inside),
                           ("zero-free region", outside)):
        wd_det = locate._walk(f_det, contour)[0]
        wd_ev = locate._walk(f_ev, contour)[0]
        results[label] = (wd_det, wd_ev)
    ok = (results["around the eigenvalue"] == (1, 1)
          and results["zero-free region"] == (0, 0))
    _report("winding numbers: Fredholm det vs Evans ratio", ok,
            f"counts {results}")


# ---------------------------------------------------------------------------
# 10: the front pipeline


def test_front_pipeline(pt_system, grid):
    # pulse limit: the front route must reproduce the pulse det2 exactly
    pulse_gap = abs(fredholm.det2(fronts.reference_system(pt_system), 4.0,
                                  grid).value
                    - fredholm.det2(pt_system, 4.0, grid).value)

    # reference matrix for step ends with rates (+-2, +-1)
    steps = oracles.constant_front(np.array([[0.0, 1.0], [4.0, 0.0]]),
                                   np.array([[0.0, 1.0], [1.0, 0.0]]))
    B = fronts.reference_system(steps).base_matrix(0.0)
    b_gap = float(np.max(np.abs(B - np.array([[0.0, 1.0], [2.0, 1.0]]))))

    # determinant zero vs Evans zero of the problem the determinant
    # represents, both inside (1, 4) on the real axis
    front = wd.to_system(wd.builtin_problem("tanh_front", amplitude=1.5,
                                            offset=-2.5, well=8.0))
    ref = fronts.reference_system(front)
    z_det = locate.refine_root(
        lambda lam: fredholm.det2(front, lam, grid).value, 3.3,
        tol=1e-12)
    z_ev = locate.refine_root(lambda lam: wd.evans_function(ref, lam).ratio,
                              3.3, tol=1e-12)
    in_window = 1.0 < z_det.real < 4.0 and 1.0 < z_ev.real < 4.0
    zero_gap = abs(z_det - z_ev)
    ok = pulse_gap < 1e-8 and b_gap < 1e-14 and in_window \
        and zero_gap < 1e-4
    _report("front pipeline: pulse limit, reference matrix, zero location",
            ok, f"pulse gap {pulse_gap:.1e}, B gap {b_gap:.1e}, zeros "
            f"{z_det.real:.6f} vs {z_ev.real:.6f} (gap {zero_gap:.1e})")


# ---------------------------------------------------------------------------
# 11: self-convergence and analyticity of the computed determinant


def test_self_convergence_and_analyticity(pt):
    vals = {n: wd.det1(pt, 4.0, wd.build_grid(20.0, n)).value
            for n in (100, 200, 400)}
    gap_coarse = abs(vals[100] - vals[200])
    gap_fine = abs(vals[200] - vals[400])
    width_gap = abs(wd.det1(pt, 4.0, wd.build_grid(15.0, 400)).value
                    - wd.det1(pt, 4.0, wd.build_grid(25.0, 400)).value)

    grid = wd.build_grid(20.0, 400)
    h = 1e-3

    def f(lam):
        return wd.det1(pt, lam, grid).value

    fx = (f(4.0 + h) - f(4.0 - h)) / (2.0 * h)
    fy = (f(4.0 + 1j * h) - f(4.0 - 1j * h)) / (2.0 * h)
    cr = abs(fx + 1j * fy)
    ok = (gap_coarse > 10.0 * gap_fine and width_gap < 1e-8 and cr < 1e-6)
    _report("self-convergence and analyticity", ok,
            f"doubling ratio {gap_coarse / gap_fine:.0f}x, window drift "
            f"{width_gap:.1e}, Cauchy-Riemann residual {cr:.1e}")


# ---------------------------------------------------------------------------
# 12: the routes agree on high orders with derivative coupling


@pytest.mark.parametrize("order,m", [(5, 3), (6, 4)])
def test_routes_agree_with_derivative_coupling(order, m):
    """v^(1)..v^(m) enter the first-order form's bottom row, so det2 and
    E/c see every derivative of the sech^2 profile that det1 never does."""
    prob = wd.ScalarProblem(order=order, coeffs=(1.0,) + (0.0,) * (order - 1),
                            profile=wd.make_profile("sech2", amplitude=4.0),
                            deriv_order=m)
    sysm = wd.to_system(prob)
    lam = 2.0 + 1.0j
    grid = wd.build_grid(20.0, 800)
    d1 = wd.det1(prob, lam, grid).value
    r2 = wd.det2(sysm, lam, grid)
    det2_gap = abs(r2.value * np.exp(r2.trace_used) - d1) / abs(d1)
    evans_gap = abs(wd.evans_function(sysm, lam).ratio - d1) / abs(d1)
    _report(f"det2 and E/c = det1 at order {order}, m = {m}",
            det2_gap <= 1e-9 and evans_gap <= 1e-5,
            f"det2 gap {det2_gap:.1e}, E/c gap {evans_gap:.1e}")


# ---------------------------------------------------------------------------
# 13: E/c meets its rtol, from steps sized by the integrator's own error


def _closed_form_pt2(lam):
    s = np.sqrt(complex(lam))
    if s.real < 0:
        s = -s
    return (s - 1.0) * (s - 2.0) / ((s + 1.0) * (s + 2.0))


def test_evans_ratio_meets_rtol_on_the_closed_form():
    """Poschl-Teller N = 2 at 1.3 + 0.2i against the reflectionless
    determinant prod (s - j) / (s + j)."""
    lam = 1.3 + 0.2j
    sysm = wd.to_system(wd.builtin_problem("poschl_teller", N=2))
    rtol = evans.IntegrationParams().rtol
    want = _closed_form_pt2(lam)
    gap = abs(wd.evans_function(sysm, lam).ratio - want) / abs(want)
    _report("E/c within rtol of the closed form (N = 2, 1.3+0.2i)",
            gap <= rtol, f"gap {gap:.1e}, rtol {rtol:.0e}")


def test_evans_ratio_meets_rtol_with_derivative_coupling():
    """Order 6, m = 4 (the problem of test_routes_agree_with_derivative_
    coupling) against det1 at 1600 nodes, which moves 5e-12 from 800."""
    prob = wd.ScalarProblem(order=6, coeffs=(1.0,) + (0.0,) * 5,
                            profile=wd.make_profile("sech2", amplitude=4.0),
                            deriv_order=4)
    lam = 2.0 + 1.0j
    rtol = evans.IntegrationParams().rtol
    d1 = wd.det1(prob, lam, wd.build_grid(20.0, 1600)).value
    gap = abs(wd.evans_function(wd.to_system(prob), lam).ratio - d1) / abs(d1)
    _report("E/c within rtol of det1 at order 6, m = 4", gap <= rtol,
            f"gap {gap:.1e}, rtol {rtol:.0e}")


def test_evans_step_count_is_bounded(monkeypatch):
    """biharmonic_demo at 3+2i: the Magnus exponents of one
    evans_function, the pilot's included, against the 960 of one uniform
    step per lambda."""
    count = []
    magnus = evans._magnus_exponent

    def counted(G, h):
        count.append(len(h))
        return magnus(G, h)
    monkeypatch.setattr(evans, "_magnus_exponent", counted)
    wd.evans_function(wd.to_system(wd.builtin_problem("biharmonic_demo")),
                      3.0 + 2.0j)
    _report("Magnus exponents per evans_function (biharmonic, 3+2i)",
            sum(count) <= 500, f"{sum(count)} in {len(count)} calls")
