import numpy as np
import pytest
from hypothesis import given, strategies as st

import wavedet as wd
from wavedet import fredholm, fronts, greens
from wavedet.errors import ConfigError, EssentialSpectrum, SignMismatch


def _pt_exact(lam):
    s = np.sqrt(complex(lam))
    if s.real < 0:
        s = -s
    return (s - 1.0) / (s + 1.0)


# ---------------------------------------------------------------------------
# grids


def test_gauss_legendre_grid_totals():
    g = wd.build_grid(20.0, 400)
    assert g.nodes.size == 400
    assert np.sum(g.weights) == pytest.approx(40.0)
    assert g.rule == "gauss_legendre"
    assert g.signature == (20.0, 400, "gauss_legendre")


def test_grid_rounds_up_to_full_panels():
    g = wd.build_grid(10.0, 95)
    assert g.nodes.size == 100


def test_trapezoid_grid():
    g = wd.build_grid(5.0, 11, rule="trapezoid")
    assert g.nodes.size == 11
    assert np.sum(g.weights) == pytest.approx(10.0)
    assert g.nodes[0] == -5.0 and g.nodes[-1] == 5.0


def test_grid_validation():
    with pytest.raises(ConfigError):
        wd.build_grid(-1.0, 100)
    with pytest.raises(ConfigError):
        wd.build_grid(10.0, 3)
    with pytest.raises(ConfigError):
        wd.build_grid(10.0, 100, rule="simpson")


@given(n=st.integers(10, 300), x=st.floats(5.0, 30.0))
def test_grid_weight_sum_is_interval_length(n, x):
    g = wd.build_grid(x, n)
    assert np.sum(g.weights) == pytest.approx(2.0 * x)
    assert np.all(np.abs(g.nodes) <= x)


# ---------------------------------------------------------------------------
# scalar determinant against the reflectionless closed form


@pytest.mark.parametrize("lam", [4.0, 9.0, 2.0 + 1.0j])
def test_det1_poschl_teller_closed_form(pt, grid, lam):
    got = wd.det1(pt, lam, grid).value
    assert abs(got - _pt_exact(lam)) < 1e-6


def test_det1_vanishes_at_bound_state(pt, grid):
    assert abs(wd.det1(pt, 1.0, grid).value) < 1e-6


def test_det1_result_fields(pt, grid):
    res = wd.det1(pt, 4.0, grid)
    assert res.kind == "det1"
    assert res.grid_signature == grid.signature
    assert res.trace_used == pytest.approx(-1.0, abs=1e-10)
    assert np.isfinite(res.condition_hint) and res.condition_hint >= 0.0
    # the Hadamard-ratio hint of det1 and det2 away from eigenvalues
    pt2 = wd.builtin_problem("poschl_teller", N=2)
    g200 = wd.build_grid(20.0, 200)
    for lam in (1.3 + 0.2j, 7.0 + 2.0j):
        for res in (wd.det1(pt2, lam, g200),
                    wd.det2(wd.to_system(pt2), lam, g200)):
            assert np.isfinite(res.condition_hint)
            assert res.condition_hint >= 0.0
    # a singular I + S (a zero row, two equal rows) is an inf hint and a
    # zero value, not an exception
    for rows in ([[0.0, 0.0], [3.0, 1.5]], [[1.0, 2.0], [1.0, 2.0]]):
        S = np.array(rows, dtype=complex) - np.eye(2)
        (value,), hint = fredholm._corrected_det(S, {}, (1,))
        assert value == 0 and hint == np.inf


def test_det1_convergence_per_doubling(pt):
    errs = []
    for n in (100, 200, 400):
        g = wd.build_grid(20.0, n)
        errs.append(abs(wd.det1(pt, 4.0, g).value - 1.0 / 3.0))
    assert errs[0] > 10 * errs[1] > 100 * errs[2]


def test_det1_trapezoid_agrees(pt):
    g = wd.build_grid(20.0, 1200, rule="trapezoid")
    assert abs(wd.det1(pt, 4.0, g).value - 1.0 / 3.0) < 1e-4


def test_det1_rejects_essential_lambda(pt, grid):
    with pytest.raises(EssentialSpectrum):
        wd.det1(pt, -2.0, grid)


def test_det1_higher_family(grid):
    """The N=2 reflectionless well keeps the same closed form squared."""
    p2 = wd.builtin_problem("poschl_teller", N=2)
    s = 2.0  # sqrt(4)
    want = (s - 1.0) * (s - 2.0) / ((s + 1.0) * (s + 2.0))
    assert abs(wd.det1(p2, 4.0, grid).value - want) < 1e-6


# ---------------------------------------------------------------------------
# traces


def test_trace_scalar_poschl_teller(pt):
    assert wd.trace_scalar(pt, 4.0) == pytest.approx(-1.0, abs=1e-12)


def test_trace_scalar_matches_kernel_integral(pt, grid):
    tau = wd.series_coefficient(pt, 4.0, order=1, grid=grid)
    assert tau == pytest.approx(wd.trace_scalar(pt, 4.0), abs=1e-8)


def test_trace_system_matches_scalar(pt, pt_system, grid):
    for lam in (4.0, 2.0 + 1.0j):
        assert wd.trace_system(pt_system, lam, grid) == pytest.approx(
            wd.trace_scalar(pt, lam), abs=1e-8)


def test_trace_sign_choices_agree(pt_system, grid):
    tp, tm = fredholm.trace_system_pair(pt_system, 4.0, grid)
    assert tp == pytest.approx(tm, abs=1e-8)


def test_trace_sign_mismatch_detected(grid):
    """A diagonal perturbation with nonzero integral trips the guard."""

    def base(lam):
        return np.array([[0.0, 1.0], [lam, 0.0]], dtype=complex)

    def perturbation(x):
        x = np.asarray(x, dtype=float)
        R = np.zeros(x.shape + (2, 2), dtype=complex)
        R[..., 0, 0] = 1.0 / np.cosh(x) ** 2
        return R

    zero = np.zeros((2, 2), dtype=complex)
    sysm = wd.SystemProblem(dimension=2, base_matrix=base,
                            perturbation=perturbation,
                            r_minus=zero, r_plus=zero)
    with pytest.raises(SignMismatch):
        wd.trace_system(sysm, 4.0, grid)


def test_trace_power_scalar_vs_system(pt, pt_system, grid):
    for power in (2, 3):
        a = fredholm.trace_power_scalar(pt, 4.0, grid, power)
        b = fredholm.trace_power_system(pt_system, 4.0, grid, power)
        assert a == pytest.approx(b, abs=1e-8)


def test_series_expansion_small_amplitude(grid):
    """det(I + K) = 1 + d1 + d2 + O(amplitude^3) for a weak potential."""
    weak = wd.builtin_problem("sech_pulse", amplitude=0.01)
    lam = 2.0
    d1 = wd.series_coefficient(weak, lam, order=1, grid=grid)
    d2 = wd.series_coefficient(weak, lam, order=2, grid=grid)
    det = wd.det1(weak, lam, grid).value
    # the truncation error is third order, so far below the second term
    assert abs(det - (1.0 + d1 + d2)) < 1e-2 * abs(d2)


# ---------------------------------------------------------------------------
# regularized determinants


def test_det2_poschl_teller_value(pt_system, grid):
    res = wd.det2(pt_system, 4.0, grid)
    assert res.kind == "det2"
    # det2 = det1 * exp(-trace); the analytic trace here is -1
    assert abs(res.value - np.exp(1.0) / 3.0) < 1e-6
    assert res.trace_used == pytest.approx(-1.0, abs=1e-8)


def test_det2_times_exp_trace_is_det1(pt, pt_system, grid):
    for lam in (4.0, 9.0, 2.0 + 1.0j):
        d1 = wd.det1(pt, lam, grid).value
        r2 = wd.det2(pt_system, lam, grid)
        assert abs(r2.value * np.exp(r2.trace_used) - d1) < 1e-8


def test_detp_p2_equals_det2(pt_system, grid):
    a = wd.detp(pt_system, 4.0, grid, p=2).value
    b = wd.det2(pt_system, 4.0, grid).value
    assert a == pytest.approx(b, abs=1e-10)


def test_detp_correction_identity(pt_system, grid):
    """Moving from p=2 to p=3 multiplies by exp(tr K^2 / 2)."""
    d2 = wd.detp(pt_system, 4.0, grid, p=2).value
    d3 = wd.detp(pt_system, 4.0, grid, p=3).value
    t2 = fredholm.trace_power_system(pt_system, 4.0, grid, 2)
    assert abs(d3 - d2 * np.exp(t2 / 2.0)) < 1e-6


def test_detp_order_bounds(pt_system, grid):
    with pytest.raises(ConfigError):
        wd.detp(pt_system, 4.0, grid, p=1)
    with pytest.raises(ConfigError):
        wd.detp(pt_system, 4.0, grid, p=7)


@pytest.mark.parametrize("s, n", [(-0.5, 1200), (1.0, 1100)],
                         ids=["underflow", "overflow"])
def test_corrected_det_outside_float_range(s, n):
    """det(I + S) = (1 + s)^n leaves float64, the order-2 value
    prod (1 + s_i) e^(-s_i) does not."""
    assert abs(n * np.log1p(s)) > 745.2   # beyond float64, subnormals too
    S = np.diag(np.full(n, s)).astype(complex)
    (value,), hint = fredholm._corrected_det(S, {}, (2,))
    want = np.exp(n * (np.log1p(s) - s))
    assert abs(value - want) <= 1e-12 * want
    assert hint == 0.0


def test_limit_normalization_decays(pt, grid):
    vals = wd.limit_normalization_check(pt, [100.0, 1000.0], grid)
    assert vals[0] > vals[1]
    with pytest.raises(ConfigError):
        wd.limit_normalization_check(pt, [-5.0], grid)


def test_det2_system_route_matches_scalar_route(grid):
    """Same regularized determinant from the n x n and scalar kernels."""
    gp = wd.builtin_problem("gaussian_pulse", amplitude=1.0)
    gs = wd.to_system(gp)
    lam = 3.0 + 0.5j
    d1 = wd.det1(gp, lam, grid).value
    r2 = wd.det2(gs, lam, grid)
    assert abs(r2.value * np.exp(r2.trace_used) - d1) < 1e-8


# ---------------------------------------------------------------------------
# batched diagonal-panel assembly against a per-row reference


def _lagrange_rows(panel_nodes, pts):
    L = np.ones((pts.size, panel_nodes.size))
    for j, tj in enumerate(panel_nodes):
        for r, tr in enumerate(panel_nodes):
            if r != j:
                L[:, j] *= (pts - tr) / (tj - tr)
    return L


def _reference_panel_blocks(grid, integrand):
    """Product integration of the diagonal panels one row at a time.

    integrand(x, pts, side) is the left (xi <= x) or right (xi >= x)
    analytic branch of the kernel at row point x times the weight at pts;
    returns the rows of every diagonal panel block, indexed
    [row node, column within the panel, ...].
    """
    q = grid.panel_order
    ref_x, ref_w = np.polynomial.legendre.leggauss(q)
    panels = grid.nodes.size // q
    edges = np.linspace(-grid.half_width, grid.half_width, panels + 1)
    rows = []
    for p in range(panels):
        pn = grid.nodes[p * q:(p + 1) * q]
        for x in pn:
            row = 0.0
            for lo, hi, side in ((edges[p], x, "left"),
                                 (x, edges[p + 1], "right")):
                half = (hi - lo) / 2.0
                pts = (lo + hi) / 2.0 + half * ref_x
                vals = integrand(x, pts, side)
                row = row + np.einsum("t,t...,tj->j...", half * ref_w, vals,
                                      _lagrange_rows(pn, pts))
            rows.append(row)
    return np.array(rows)


def _diagonal_panel_rows(matrix, grid, n):
    q = grid.panel_order
    N = grid.nodes.size
    M = matrix.reshape(N // q, q, n, N // q, q, n)
    idx = np.arange(N // q)
    # [panel, row, a, col, b] -> [node, col, a, b]
    blocks = M[idx, :, :, idx, :, :].transpose(0, 1, 3, 2, 4)
    return blocks.reshape(N, q, n, n).squeeze()


def _scalar_branch(problem, lam):
    roots, coeff = greens.green_data(problem, lam)
    a = np.array(coeff.alpha)
    m = problem.deriv_order

    def branch(x, pts, side):
        if side == "right":
            ks, cs = roots.plus, a[:roots.k]
        else:
            ks, cs = roots.minus, a[roots.k:]
        return sum(c * kap ** m * np.exp(kap * (x - pts))
                   for c, kap in zip(cs, ks))
    return branch


_SECH2 = wd.make_profile("sech2", amplitude=1.0)
PANEL_PROBLEMS = {
    "poschl_teller": (wd.builtin_problem("poschl_teller", N=2), 2.0 + 1.0j),
    "deriv_order_1": (wd.ScalarProblem(order=4, coeffs=(0.0,) * 4,
                                       profile=_SECH2, deriv_order=1),
                      3.0 + 1.0j),
    "complex_coeffs": (wd.ScalarProblem(
        order=4, coeffs=(1.0 + 0.5j, 0.2, 0.3 - 0.1j, 0.0), profile=_SECH2,
        deriv_order=2), -2.0 + 2.5j),
}


@pytest.mark.parametrize("name", sorted(PANEL_PROBLEMS))
def test_discretize_scalar_matches_per_row_reference(name):
    problem, lam = PANEL_PROBLEMS[name]
    g = wd.build_grid(8.0, 40, panel_order=8)
    got = _diagonal_panel_rows(
        fredholm.discretize_scalar(problem, lam, g).matrix, g, 1)
    branch = _scalar_branch(problem, lam)
    want = _reference_panel_blocks(
        g, lambda x, pts, side: branch(x, pts, side) * problem.potential(pts))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_discretize_system_matches_per_row_reference(pt_system):
    lam = 2.0 + 1.0j
    g = wd.build_grid(8.0, 40, panel_order=8)
    basis = greens.system_basis(pt_system, lam)
    k = basis.k

    def integrand(x, pts, side):
        sel = range(k) if side == "right" else range(k, basis.roots.n)
        sign = -1.0 if side == "right" else 1.0
        green = sign * sum(
            np.exp(basis.roots.all[j] * (x - pts))[:, None, None]
            * np.outer(basis.P[:, j], basis.Pinv[j, :]) for j in sel)
        W = np.array([-pt_system.decaying_part(float(t)) for t in pts])
        return green @ W

    want = _reference_panel_blocks(g, integrand)
    got = _diagonal_panel_rows(
        fredholm.discretize_system(pt_system, lam, g, basis).matrix, g, 2)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_discretize_scalar_root_split_once_per_lambda(monkeypatch, pt):
    calls = []
    green_data = greens.green_data

    def counted(*args, **kwargs):
        calls.append(1)
        return green_data(*args, **kwargs)

    monkeypatch.setattr(greens, "green_data", counted)
    counts = []
    for n_points in (40, 160):
        calls.clear()
        fredholm.discretize_scalar(pt, 2.0 + 1.0j,
                                   wd.build_grid(8.0, n_points))
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 3


def test_det1_splits_the_roots_once(monkeypatch, pt):
    """tau, the discretization and both iterated traces of one det1 share
    one root split."""
    calls = []
    green_data = greens.green_data

    def counted(*args, **kwargs):
        calls.append(1)
        return green_data(*args, **kwargs)

    monkeypatch.setattr(greens, "green_data", counted)
    g = wd.build_grid(8.0, 40, panel_order=8)
    for lam in (2.0 + 1.0j, 0.5 - 0.2j):
        calls.clear()
        fredholm.det1(pt, lam, g)
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# vectorized iterated traces against the per-panel reference


class _PanelCumulative:
    """F(t) = integral_{-X}^{t} e^(mu (x - t)) f(x) dx, one panel at a
    time: full panels left of t through moments anchored at their own
    right edge, the partial panel by a mapped Gauss rule."""

    def __init__(self, grid, mu, f):
        q = grid.panel_order
        P = grid.nodes.size // q
        self.edges = np.linspace(-grid.half_width, grid.half_width, P + 1)
        self.mu, self.f = mu, f
        self.ref_x, self.ref_w = np.polynomial.legendre.leggauss(q)
        fn = f(grid.nodes)
        self.moment = np.array([
            np.sum(grid.weights[s] * fn[s]
                   * np.exp(mu * (grid.nodes[s] - self.edges[p + 1])))
            for p, s in ((p, slice(p * q, (p + 1) * q)) for p in range(P))])

    def __call__(self, pts):
        edges, mu = self.edges, self.mu
        out = np.zeros(pts.size, dtype=complex)
        pidx = np.clip(np.searchsorted(edges, pts, side="right") - 1,
                       0, edges.size - 2)
        for p in np.unique(pidx):
            sel = pidx == p
            t = pts[sel]
            if p > 0:
                E = np.exp(mu * (edges[1:p + 1][None, :] - t[:, None]))
                out[sel] += E @ self.moment[:p]
            half = (t - edges[p])[:, None] / 2.0
            sub = (edges[p] + t)[:, None] / 2.0 + half * self.ref_x
            fw = self.f(sub.ravel()).reshape(sub.shape)
            out[sel] += np.sum(half * self.ref_w * fw
                               * np.exp(mu * (sub - t[:, None])), axis=1)
        return out


def _panel_traces(terms, grid):
    """tr T^2 and tr T^3 as sums of ordered chain integrals, one root
    pair at a time."""

    def e(a, b):
        return lambda x: np.einsum("c,...cd,d->...", terms.r[a],
                                   terms.weight(np.asarray(x, float)),
                                   terms.u[b])

    def chain2(mu, f_first, f_second):
        inner = _PanelCumulative(grid, mu, f_first)(grid.nodes)
        return np.sum(grid.weights * f_second(grid.nodes) * inner)

    kap = terms.kappa
    plus, minus = range(terms.k), range(terms.k, kap.size)
    tr2 = 2.0 * sum(chain2(kap[j] - kap[i], e(i, j), e(j, i))
                    for j in plus for i in minus)
    tr3 = 0.0
    for j1 in plus:
        for i3 in minus:
            F1 = _PanelCumulative(grid, kap[j1] - kap[i3], e(i3, j1))
            for mu, f2, f3 in (
                    [(kap[j2] - kap[i3], e(j1, j2), e(j2, i3))
                     for j2 in plus]
                    + [(kap[j1] - kap[i2], e(i2, i3), e(j1, i2))
                       for i2 in minus]):
                tr3 += chain2(mu, lambda x, f2=f2: f2(x) * F1(x), f3)
    return complex(tr2), complex(3.0 * tr3)


def _trace_cases():
    cases = [(f"scalar-{name}", problem, lam)
             for name, (problem, lam) in sorted(PANEL_PROBLEMS.items())]
    cases.append(("scalar-biharmonic_demo",
                  wd.builtin_problem("biharmonic_demo"), 3.2 + 1.1j))
    cases.append(("system-poschl_teller",
                  wd.to_system(wd.builtin_problem("poschl_teller")),
                  2.0 + 1.0j))
    front = wd.to_system(wd.builtin_problem(
        "tanh_front", amplitude=1.5, offset=-2.5, well=8.0))
    cases.append(("system-tanh_front_reference",
                  fronts.reference_system(front), 2.0 + 0.5j))
    return cases


@pytest.mark.parametrize("name,problem,lam", _trace_cases(),
                         ids=[c[0] for c in _trace_cases()])
def test_trace_power_matches_per_panel_reference(name, problem, lam):
    """Relative to the larger trace: the m = 1 scalar tr T^3 is zero to
    quadrature accuracy."""
    g = wd.build_grid(8.0, 40, panel_order=8)
    if name.startswith("scalar"):
        terms = fredholm._scalar_terms(problem, lam)
        got = [fredholm.trace_power_scalar(problem, lam, g, p)
               for p in (2, 3)]
    else:
        terms = fredholm._system_terms(problem,
                                       greens.system_basis(problem, lam))
        got = [fredholm.trace_power_system(problem, lam, g, p)
               for p in (2, 3)]
    want = _panel_traces(terms, g)
    scale = max(abs(w) for w in want)
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-13 * scale
