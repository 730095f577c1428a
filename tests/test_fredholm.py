import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import wavedet as wd
from wavedet import fredholm, fronts, greens, model
from wavedet.errors import (ConfigError, EssentialSpectrum, NearMultipleRoots,
                            SignMismatch)

import oracles


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
    assert g.signature == (20.0, 400)


def test_grid_rounds_up_to_full_panels():
    g = wd.build_grid(10.0, 95)
    assert g.nodes.size == 100


def test_grid_validation():
    with pytest.raises(ConfigError):
        wd.build_grid(-1.0, 100)
    with pytest.raises(ConfigError):
        wd.build_grid(10.0, 3)
    for order in (0, -3):
        with pytest.raises(ConfigError, match="panel_order"):
            wd.build_grid(10.0, 100, panel_order=order)


def test_equal_layouts_are_equal_grids():
    """A grid is its panel layout: equal (X, panels, q) compare equal and
    hash alike, and the derived arrays stay out of ==, hash and repr."""
    a, b = wd.build_grid(20.0, 95), model.QuadratureGrid(20.0, 10, 10)
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert repr(a) == ("QuadratureGrid(half_width=20.0, panels=10, "
                       "panel_order=10)")
    assert a != model.QuadratureGrid(20.0, 10, 9)
    assert a != model.QuadratureGrid(20.5, 10, 10)


@pytest.mark.parametrize("layout,message", [
    ((10.0, 0, 10), "need at least 4 quadrature points"),
    ((10.0, -2, 10), "need at least 4 quadrature points"),
    ((10.0, 10, 0), "panel_order must be at least 1"),
    ((10.0, 10, -3), "panel_order must be at least 1"),
    ((10.0, 1, 3), "need at least 4 quadrature points"),
    ((10.0, 3, 1), "need at least 4 quadrature points"),
    ((1e308, 10, 10), "half_width is too large"),
    ((-1.0, 10, 10), "half_width must be positive"),
    ((20.0, 2.5, 10), "panels must be an integer"),
    ((20.0, 8, 10.0), "panel_order must be an integer"),
    ((20.0, True, 10), "panels must be an integer"),
    (("build_grid", 20.0, 400.0), "n_points must be an integer, not 400.0"),
    (("build_grid", 20.0, True), "n_points must be an integer, not True"),
    (("build_grid", 20.0, "400"), "n_points must be an integer, not '400'"),
    (("build_grid", 20.0, 400, 10.0),
     "panel_order must be an integer, not 10.0"),
    (("build_grid", 20.0, 400, False),
     "panel_order must be an integer, not False"),
    ((20.0, 10 ** 8, 10), "need at most 100000 quadrature points, not "
                          "1000000000"),
    (("build_grid", 20.0, 100_001),
     "need at most 100000 quadrature points, not 100010")])
def test_grid_refuses_a_layout_it_cannot_build(layout, message):
    """QuadratureGrid refuses each layout, and build_grid the arguments of
    a row that names it, with the count that the caller passed."""
    build = model.QuadratureGrid
    if layout[0] == "build_grid":
        build, layout = model.build_grid, layout[1:]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        build(*layout)


@pytest.mark.parametrize("x,n,q", [
    (20.0, 400, 10), (20.0, 41, 10), (10.0, 95, 10), (8.0, 42, 7),
    (8.0, 40, 8), (5.0, 9, 1), (3.0, 4, 1), (1e5, 400, 10),
    (0.25, 13, 5)])
def test_grid_layout_is_the_composite_rule(x, n, q):
    """build_grid's layout and its nodes and weights, bit for bit, against
    the composite Gauss-Legendre rule on ceil(N / q) equal panels."""
    panels = -(-n // q)
    ref_x, ref_w = np.polynomial.legendre.leggauss(q)
    edges = np.linspace(-x, x, panels + 1)
    mid = (edges[1:] + edges[:-1]) / 2.0
    rad = (edges[1:] - edges[:-1]) / 2.0
    g = wd.build_grid(x, n, q)
    assert (g.half_width, g.panels, g.panel_order) == (x, panels, q)
    assert g.signature == (x, panels * q)
    assert np.array_equal(g.edges, edges)
    assert np.array_equal(
        g.nodes, (mid[:, None] + rad[:, None] * ref_x[None, :]).ravel())
    assert np.array_equal(g.weights, (rad[:, None] * ref_w[None, :]).ravel())


def test_one_gauss_rule_per_order_is_shared(monkeypatch):
    """``model.gauss_rule(q)`` is numpy's leggauss(q) bit for bit, built
    once and read-only.  Grids, the panel tables and, through build_grid,
    ``SystemProblem.tail_norm`` then call leggauss no more."""
    for q in (1, 2, 7, 10, 16, 50):
        t, w = model.gauss_rule(q)
        want_t, want_w = np.polynomial.legendre.leggauss(q)
        assert np.array_equal(t, want_t) and np.array_equal(w, want_w)
        assert not (t.flags.writeable or w.flags.writeable)
        assert model.gauss_rule(q)[0] is t
    calls = []
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda q: calls.append(q))
    fredholm._panel_tables.cache_clear()
    fredholm._fitted_tables.cache_clear()
    for q in (7, 10, 16):
        wd.build_grid(20.0, 400, panel_order=q)
        assert fredholm._panel_tables(q)[0] is model.gauss_rule(q)[0]
        assert fredholm._panel_tables(q)[1] is model.gauss_rule(q)[1]
        fredholm._fitted_tables(q)
    wd.to_system(wd.builtin_problem("poschl_teller")).tail_norm(20.0)
    assert calls == []


@given(n=st.integers(10, 300), x=st.floats(5.0, 30.0))
def test_grid_weight_sum_is_interval_length(n, x):
    g = wd.build_grid(x, n)
    assert np.sum(g.weights) == pytest.approx(2.0 * x)
    assert np.all(np.abs(g.nodes) <= x)


# ---------------------------------------------------------------------------
# structured determinant entry


def _block_diagonal(diag):
    """``_Blocks`` of one lambda's block-diagonal matrix with blocks diag,
    (P, m, m): no plus or minus generators."""
    P, m = diag.shape[:2]
    none = np.zeros((1, P, m, 0), dtype=complex)
    return fredholm._Blocks(diag[None], none, none.swapaxes(-1, -2), none,
                            none.swapaxes(-1, -2), np.zeros((1, P, 0)),
                            np.zeros((1, P, 0)))


def _structured(blocks, orders):
    """Regularized determinants, without exact traces, of the one lambda
    of the blocks from the QR sweep and the generator traces."""
    sign, logabs, traces = fredholm._sweep(blocks)
    values = fredholm._corrected_det(sign, logabs, traces, {}, orders)
    return [value[0] for value in values]


def _kernel(problem, lam):
    """The kernel terms of one lambda, a batch of one, and the weight W
    of a scalar problem or a system."""
    if isinstance(problem, wd.SystemProblem):
        return _system_kernel(problem, lam)
    (_, terms), = fredholm._scalar_terms(problem, [lam])
    return terms, fredholm._scalar_weight(problem)


def _system_kernel(system, lam):
    """The unreduced matrix kernel of one lambda: all n columns, W = -(R -
    R_inf)."""
    *basis, refusals = greens.system_bases(system, [lam])
    assert refusals == [None]
    (_, terms), = fredholm._system_terms(*basis, slice(None))
    return terms, lambda x: -system.decaying_part(x)


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
    assert [f.name for f in dataclasses.fields(res)] == [
        "value", "kind", "trace_used", "grid_signature"]
    # a singular I + S (a zero row, two equal rows, in the first, middle
    # or last block) is a zero value, not an exception
    for rows in ([[0.0, 0.0], [3.0, 1.5]], [[1.0, 2.0], [1.0, 2.0]]):
        for at in range(3):
            diag = np.tile(np.diag([0.5, -0.25]).astype(complex), (3, 1, 1))
            diag[at] = np.array(rows) - np.eye(2)
            value, = _structured(_block_diagonal(diag), (1,))
            assert value == 0


def test_det1_convergence_per_doubling(pt):
    errs = []
    for n in (100, 200, 400):
        g = wd.build_grid(20.0, n)
        errs.append(abs(wd.det1(pt, 4.0, g).value - 1.0 / 3.0))
    assert errs[0] > 10 * errs[1] > 100 * errs[2]


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


def test_trace_scalar_poschl_teller(pt, grid):
    assert wd.det1(pt, 4.0, grid).trace_used == pytest.approx(-1.0,
                                                              abs=1e-12)


def test_trace_scalar_matches_kernel_integral(pt, grid):
    tau, _ = oracles.series_coefficients(pt, 4.0, grid)
    assert tau == pytest.approx(wd.det1(pt, 4.0, grid).trace_used, abs=1e-8)


def test_trace_system_matches_scalar(pt, pt_system, grid):
    for lam in (4.0, 2.0 + 1.0j):
        assert wd.det2(pt_system, lam, grid).trace_used == pytest.approx(
            wd.det1(pt, lam, grid).trace_used, abs=1e-8)


def test_trace_sign_choices_agree(pt_system, grid):
    tp, tm = oracles.sign_traces(pt_system, 4.0, grid)
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
        wd.det2(sysm, 4.0, grid)


def test_trace_power_scalar_vs_system(pt, pt_system, grid):
    scalar = oracles.trace_powers(pt, 4.0, grid)
    system = oracles.trace_powers(pt_system, 4.0, grid)
    for a, b in zip(scalar, system):
        assert a == pytest.approx(b, abs=1e-8)


def test_series_expansion_small_amplitude(grid):
    """det(I + K) = 1 + d1 + d2 + O(amplitude^3) for a weak potential."""
    weak = wd.builtin_problem("sech_pulse", amplitude=0.01)
    lam = 2.0
    d1, d2 = oracles.series_coefficients(weak, lam, grid)
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
    t2, _ = oracles.trace_powers(pt_system, 4.0, grid)
    assert abs(d3 - d2 * np.exp(t2 / 2.0)) < 1e-6


def test_detp_order_bounds(pt_system, grid):
    with pytest.raises(ConfigError):
        wd.detp(pt_system, 4.0, grid, p=1)
    with pytest.raises(ConfigError):
        wd.detp(pt_system, 4.0, grid, p=5)
    with pytest.raises(ConfigError):
        wd.detp(pt_system, 4.0, grid, p=7)


@pytest.mark.parametrize("s, n", [(-0.5, 1200), (1.0, 1100)],
                         ids=["underflow", "overflow"])
def test_corrected_det_outside_float_range(s, n):
    """det(I + S) = (1 + s)^n leaves float64, the order-2 value
    prod (1 + s_i) e^(-s_i) does not."""
    assert abs(n * np.log1p(s)) > 745.2   # beyond float64, subnormals too
    diag = np.tile(np.diag(np.full(10, s)).astype(complex), (n // 10, 1, 1))
    value, = _structured(_block_diagonal(diag), (2,))
    want = np.exp(n * (np.log1p(s) - s))
    assert abs(value - want) <= 1e-12 * want


def test_limit_normalization_decays(pt, grid):
    vals = [abs(res.value - 1.0)
            for res in fredholm.det1_many(pt, [100.0, 1000.0], grid)]
    assert vals[0] > vals[1]


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
    kappa, k, a, _ = oracles.green_row(problem, lam)
    m = problem.deriv_order

    def branch(x, pts, side):
        if side == "right":
            ks, cs = kappa[:k], a[:k]
        else:
            ks, cs = kappa[k:], a[k:]
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
    got = _diagonal_panel_rows(_dense_matrix(_kernel(problem, lam), g), g, 1)
    branch = _scalar_branch(problem, lam)
    want = _reference_panel_blocks(
        g, lambda x, pts, side: branch(x, pts, side) * problem.potential(pts))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_discretize_system_matches_per_row_reference(pt_system):
    lam = 2.0 + 1.0j
    g = wd.build_grid(8.0, 40, panel_order=8)
    basis = oracles.basis(pt_system, lam)
    k = basis.k

    def integrand(x, pts, side):
        sel = range(k) if side == "right" else range(k, basis.kappa.size)
        sign = -1.0 if side == "right" else 1.0
        green = sign * sum(
            np.exp(basis.kappa[j] * (x - pts))[:, None, None]
            * np.outer(basis.P[:, j], basis.Pinv[j, :]) for j in sel)
        W = np.array([-pt_system.decaying_part(float(t)) for t in pts])
        return green @ W

    want = _reference_panel_blocks(g, integrand)
    got = _diagonal_panel_rows(
        _dense_matrix(_system_kernel(pt_system, lam), g), g, 2)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _count_root_splits(monkeypatch):
    """The lambdas of every characteristic-root call, one entry per
    lambda."""
    calls = []
    char_roots = model.char_roots

    def counted(coeffs, lam):
        calls.extend(np.ravel(lam))
        return char_roots(coeffs, lam)

    monkeypatch.setattr(model, "char_roots", counted)
    return calls


def test_discretize_scalar_root_split_once_per_lambda(monkeypatch, pt):
    """The root splits of det1's discretization do not grow with the
    grid: one per lambda."""
    calls = _count_root_splits(monkeypatch)
    counts = []
    for n_points in (40, 160):
        calls.clear()
        fredholm.det1(pt, 2.0 + 1.0j, wd.build_grid(8.0, n_points))
        counts.append(len(calls))
    assert counts[0] == counts[1] == 1


def test_det1_splits_the_roots_once(monkeypatch, pt):
    """tau, the discretization and both iterated traces of one det1 share
    one root split, and a batch splits each lambda once."""
    calls = _count_root_splits(monkeypatch)
    g = wd.build_grid(8.0, 40, panel_order=8)
    for lam in (2.0 + 1.0j, 0.5 - 0.2j):
        calls.clear()
        fredholm.det1(pt, lam, g)
        assert calls == [lam]
    calls.clear()
    lams = [2.0 + 1.0j, 0.5 - 0.2j, 3.0 + 0.1j]
    fredholm.det1_many(pt, lams, g)
    assert calls == lams


def test_lagrange_table_is_the_per_node_product():
    """One vectorised step per node gives the per-polynomial product bit
    for bit: every factor is the same, taken in the same order."""
    for q in range(2, 17):
        t, _, sub = fredholm._panel_tables(q)[:3]
        want = _lagrange_rows(t, sub.ravel()).reshape(sub.shape + (q,))
        assert np.array_equal(fredholm._lagrange_at(t, sub), want)


@pytest.mark.parametrize("q", [3, 4, 8, 10, 12, 16])
def test_panel_samples_are_the_weight_at_every_point(q):
    """W at the panel sub-nodes, evaluated once per distinct reference
    coordinate and gathered, is W at every point bit for bit: a scalar
    weight, an m = 1 system weight and a front's.  A counting weight sees
    the nodes, then each distinct coordinate once per panel, and nothing
    else."""
    grid = wd.build_grid(20.0, 8 * q, panel_order=q)
    sub = fredholm._panel_tables(q)[2]
    pt2 = fredholm._scalar_weight(wd.builtin_problem("poschl_teller", N=2))
    m1 = wd.to_system(PANEL_PROBLEMS["deriv_order_1"][0])
    front = wd.to_system(wd.builtin_problem(
        "tanh_front", amplitude=1.5, offset=-2.5, well=8.0))
    for weight in (pt2, fredholm._system_weight(m1, grid),
                   fredholm._system_weight(front, grid)):
        samples = fredholm._sample(weight, grid)
        want = weight(fredholm._panel_points(grid, sub))
        assert np.array_equal(samples.panel, want)
    seen = []
    fredholm._sample(lambda x: seen.append(x) or pt2(x), grid)
    assert len(seen) == 2 and np.array_equal(seen[0], grid.nodes)
    assert seen[1].shape == (len(set(sub.ravel().tolist())), 8)
    assert (set(seen[1].ravel().tolist()) == set(
        fredholm._panel_points(grid, sub).ravel().tolist()))


# ---------------------------------------------------------------------------
# vectorized iterated traces against the per-panel reference


def _fine_rule():
    """4 equal pieces of the 12-point Gauss rule on [-1, 1].  It integrates
    a panel interpolant times an exponential of the test rates to
    rounding; numpy's leggauss(40) was off by 4.6e-15 on such an
    integral."""
    x, w = np.polynomial.legendre.leggauss(12)
    return ((np.arange(4)[:, None] + x / 2.0) / 2.0 - 0.75).ravel(), np.tile(
        w / 4.0, 4)


def _panel_cumulative(grid, mu, fn):
    """F(t) = integral_{-X}^{t} e^(mu (x - t)) f(x) dx at every node, one
    node and one panel at a time, from f at the nodes, fn, with f on each
    panel its interpolant on the panel's nodes: full panels left of t
    through moments anchored at their own right edge, the partial panel by
    ``_fine_rule`` of the interpolant times the exponential."""
    q = grid.panel_order
    P = grid.nodes.size // q
    edges = np.linspace(-grid.half_width, grid.half_width, P + 1)
    x, fn = grid.nodes.reshape(P, q), fn.reshape(P, q)
    ref_x, ref_w = _fine_rule()

    def part(p, t):
        half = (t - edges[p]) / 2.0
        pts = edges[p] + half * (ref_x + 1.0)
        return np.sum(half * ref_w * np.exp(mu * (pts - t))
                      * (_lagrange_rows(x[p], pts) @ fn[p]))

    moment = [part(p, edges[p + 1]) for p in range(P)]
    return np.array([
        part(p, t) + sum(moment[s] * np.exp(mu * (edges[s + 1] - t))
                         for s in range(p))
        for p in range(P) for t in x[p]])


def _panel_traces(kernel, grid):
    """tr T^2 and tr T^3 of one lambda's kernel as sums of ordered chain
    integrals, one root pair at a time."""
    terms, weight = kernel
    W = weight(grid.nodes)

    def e(a, b):
        return np.einsum("c,...cd,d->...", terms.r[0, a], W, terms.u[0, b])

    def chain2(mu, f_first, f_second):
        inner = _panel_cumulative(grid, mu, f_first)
        return np.sum(grid.weights * f_second * inner)

    kap = terms.kappa[0]
    plus, minus = range(terms.k), range(terms.k, kap.size)
    tr2 = 2.0 * sum(chain2(kap[j] - kap[i], e(i, j), e(j, i))
                    for j in plus for i in minus)
    tr3 = 0.0
    for j1 in plus:
        for i3 in minus:
            F1 = _panel_cumulative(grid, kap[j1] - kap[i3], e(i3, j1))
            for mu, f2, f3 in (
                    [(kap[j2] - kap[i3], e(j1, j2), e(j2, i3))
                     for j2 in plus]
                    + [(kap[j1] - kap[i2], e(i2, i3), e(j1, i2))
                       for i2 in minus]):
                tr3 += chain2(mu, f2 * F1, f3)
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
    got = oracles.trace_powers(problem, lam, g)
    want = _panel_traces(_kernel(problem, lam), g)
    scale = max(abs(w) for w in want)
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# structured determinants and traces against the dense matrix


def _dense_matrix(kernel, grid):
    """The Nystrom matrix S of one lambda's kernel (terms, weight),
    assembled: the node matrix, with the diagonal panels by product
    integration."""
    terms, weight = kernel
    samples = fredholm._sample(weight, grid)
    S = oracles.node_matrix(terms, grid, samples.nodes)[0]
    blocks = fredholm._panel_blocks(terms, samples)[0]
    P, q, b = blocks.shape[:3]
    idx = np.arange(P)
    S.reshape(P, q, b, P, q, b)[idx, :, :, idx] = blocks
    return S


def _dense_logdet(S):
    """(sign, log|det(I + S)|) by numpy's LU of I + S with unit rows."""
    mat = S + np.eye(len(S))
    norms = np.linalg.norm(mat, axis=1)
    sign, logabs = np.linalg.slogdet(mat / norms[:, None])
    return complex(sign), float(logabs + np.sum(np.log(norms)))


def _dense_traces(S):
    """tr S^l for l = 1, 2, 3; tr(A B) is sum(A * B.T)."""
    return {1: complex(np.trace(S)), 2: complex(np.sum(S * S.T)),
            3: complex(np.sum((S @ S) * S.T))}


def _dense_reference(kernel, grid, exact, orders):
    """Regularized determinants from the assembled Nystrom matrix, one LU
    of I + S and the matrix traces of S and S @ S."""
    S = _dense_matrix(kernel, grid)
    sign, logabs = _dense_logdet(S)
    t = _dense_traces(S)
    values = []
    for p in orders:
        correction = sum((-1.0) ** l / l * t[l] for l in range(1, p))
        correction += sum((-1.0) ** (l + 1) / l * (exact[l] - t[l])
                          for l in exact if l >= p)
        values.append(sign * np.exp(logabs + correction))
    return values


def _exact_traces(kernel, grid):
    return dict(zip((2, 3), oracles.kernel_traces(kernel, grid)))


def _dense_det1(problem, lam, grid):
    kernel = _kernel(problem, lam)
    exact = {1: wd.det1(problem, lam, grid).trace_used,
             **_exact_traces(kernel, grid)}
    return _dense_reference(kernel, grid, exact, (1,))[0]


def _dense_system(system, lam, grid, orders):
    kernel = _system_kernel(system, lam)
    exact = _exact_traces(kernel, grid) if min(orders) <= 3 else {}
    return _dense_reference(kernel, grid, exact, orders)


def _oracle_grids():
    return {
        "gauss": wd.build_grid(20.0, 200),
        # a non-default panel order; 30 panels, so a front has an edge at 0
        "order_7": wd.build_grid(20.0, 210, panel_order=7),
    }


_BATTERY_LAMBDAS = [2.5, 4.0, 9.0, 0.5 + 1.5j, 2.0 + 1.0j, 3.0 - 2.0j,
                    1.5 + 0.5j, 6.0 + 2.0j, 5.0 - 1.0j, 0.8 - 0.6j]
_BATTERY = ("poschl_teller", "gaussian_pulse")


def _close(got, want, rtol=1e-12):
    return abs(got - want) <= rtol * abs(want)


@pytest.mark.parametrize("grid_name", sorted(_oracle_grids()))
def test_structured_det1_matches_dense(grid_name):
    g = _oracle_grids()[grid_name]
    cases = [(wd.builtin_problem(name), lam)
             for name in _BATTERY for lam in _BATTERY_LAMBDAS]
    cases += list(PANEL_PROBLEMS.values())
    cases.append((wd.builtin_problem("biharmonic_demo"), 3.2 + 1.1j))
    for problem, lam in cases:
        got = wd.det1(problem, lam, g).value
        assert _close(got, _dense_det1(problem, lam, g)), (problem, lam)


def _full_weight_system():
    """A 2 x 2 system with no scalar source and a complex R - R_inf that
    fills every column (c = n); its diagonal integrates to zero, so the
    analytic trace passes the sign check."""
    def base(lam):
        return np.array([[0.0, 1.0], [lam, 0.0]], dtype=complex)

    def perturbation(x):
        x = np.asarray(x, dtype=float)
        s = 1.0 / np.cosh(x)
        R = np.empty(x.shape + (2, 2), dtype=complex)
        R[..., 0, 0] = (0.4 + 0.3j) * s ** 2
        R[..., 1, 1] = -R[..., 0, 0]
        R[..., 0, 1] = (0.5 - 0.2j) * s ** 2 * (1.0 + 0.5 * np.tanh(x))
        R[..., 1, 0] = -1.5 * s
        return R

    zero = np.zeros((2, 2), dtype=complex)
    return wd.SystemProblem(dimension=2, base_matrix=base,
                            perturbation=perturbation, r_minus=zero,
                            r_plus=zero)


@pytest.mark.parametrize("grid_name", sorted(_oracle_grids()))
def test_structured_det2_det3_match_dense(grid_name):
    """The engine runs on the column support of R - R_inf (c = 1 for the
    battery, c = 2 and 3 for the order-4 m = 1 and m = 2 problems, c = n
    for the general system) against the dense n-column Nystrom matrix."""
    g = _oracle_grids()[grid_name]
    cases = [(wd.to_system(wd.builtin_problem(name)), lam)
             for name in _BATTERY for lam in _BATTERY_LAMBDAS]
    bh = wd.to_system(wd.builtin_problem("biharmonic_demo"))
    cases += [(bh, 3.2 + 1.1j), (bh, -1.0 + 2.0j)]
    order4 = [(wd.to_system(problem), lam)
              for problem, lam in (PANEL_PROBLEMS["deriv_order_1"],
                                   PANEL_PROBLEMS["complex_coeffs"])]
    assert [s.column_support.stop for s, _ in order4] == [2, 3]
    cases += order4
    full = _full_weight_system()
    assert full.column_support == slice(0, 2)
    cases += [(full, 2.0 + 1.0j), (full, 5.0 - 1.5j)]
    for system, lam in cases:
        d2, d3 = fredholm.determinants_many(system, [lam], g,
                                            {"det2": 2, "det3": 3})[0]
        want = _dense_system(system, lam, g, (2, 3))
        assert _close(d2.value, want[0]) and _close(d3.value, want[1]), lam


@pytest.mark.parametrize("grid_name", sorted(_oracle_grids()))
def test_structured_front_det2_matches_dense(grid_name):
    g = _oracle_grids()[grid_name]
    front = wd.to_system(wd.builtin_problem(
        "tanh_front", amplitude=1.5, offset=-2.5, well=8.0))
    for lam in (2.0 + 0.5j, 3.3, 6.0 - 1.0j):
        got = fredholm.det2(front, lam, g).value
        want, = _dense_system(front, lam, g, (2,))
        assert _close(got, want), lam


def _seeded_terms(n, k, b, seed):
    """Random semi-separable terms of one lambda, k of n roots plus, and a
    complex b x b weight."""
    rng = np.random.default_rng(seed)
    kappa = (np.where(np.arange(n) < k, 1.0, -1.0) * rng.uniform(0.3, 3.0, n)
             + 1j * rng.uniform(-2.0, 2.0, n))

    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    u, r, A = cnormal(n, b), cnormal(n, b), cnormal(b, b)
    centre = rng.uniform(-2.0, 2.0)

    def weight(x):
        x = np.asarray(x, dtype=float)[..., None, None]
        return A * np.exp(-(x - centre) ** 2) * (1.0 + 0.5j * np.sin(x))
    return fredholm._Terms(kappa[None], k, u[None], r[None]), weight


@st.composite
def _random_terms(draw):
    """``_seeded_terms`` on a Gauss grid of 20 to 60 nodes with panels of
    1 to 9 nodes."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n))
    b = draw(st.integers(1, 2))
    terms = _seeded_terms(n, k, b, draw(st.integers(0, 2 ** 32 - 1)))
    grid = wd.build_grid(6.0, draw(st.integers(20, 60)),
                         panel_order=draw(st.integers(1, 9)))
    return terms, grid


@given(case=_random_terms())
def test_structured_logdet_and_traces_match_dense(case):
    kernel, grid = case
    terms, weight = kernel
    S = _dense_matrix(kernel, grid)
    blocks = fredholm._blocks(terms, fredholm._sample(weight, grid))
    sign, logabs = _dense_logdet(S)
    (got_sign,), (got_logabs,), got = fredholm._sweep(blocks)
    assert abs(got_logabs - logabs) <= 1e-12 * max(1.0, abs(logabs))
    assert abs(got_sign - sign) <= 1e-12
    want = _dense_traces(S)
    scale = 1.0 + np.linalg.norm(S)
    for l in (1, 2, 3):
        assert abs(got[l][0] - want[l]) <= 1e-12 * scale ** l


def test_minus_only_kernel_is_the_block_product():
    """With only minus roots S is block lower triangular, and det(I + S)
    is the product of the det(I + D_p) of its diagonal blocks.  The
    off-diagonal blocks of this draw alone make cond(I + S) about 2e8; a
    sweep that mixed rows across blocks would lose about eps cond."""
    kernel = _seeded_terms(2, 0, 2, 564533598)
    terms, weight = kernel
    grid = wd.build_grid(6.0, 60, panel_order=5)
    blocks = fredholm._blocks(terms, fredholm._sample(weight, grid))
    S = _dense_matrix(kernel, grid)
    assert np.linalg.cond(S + np.eye(len(S))) > 1e7
    signs, logs = np.linalg.slogdet(blocks.diag[0] + np.eye(10))
    (sign,), (logabs,), _ = fredholm._sweep(blocks)
    assert abs(logabs - np.sum(logs)) <= 1e-12 * max(1.0, abs(logabs))
    assert abs(sign - np.prod(signs)) <= 1e-12


def test_default_path_assembles_no_dense_matrix():
    """Every determinant kind runs on the structured path on both oracle
    grids, the package having no dense node matrix to fall back on, and
    p = 5 is refused."""
    pt2 = wd.builtin_problem("poschl_teller", N=2)
    sysm = wd.to_system(pt2)
    for g in _oracle_grids().values():
        for lam in (2.0 + 1.0j, 3.0, 6.0 - 1.5j):
            wd.det1(pt2, lam, g)
            wd.det2(sysm, lam, g)
            fredholm.determinants_many(sysm, [lam], g,
                                       {"det2": 2, "det3": 3})
            wd.detp(sysm, lam, g, p=4)
    with pytest.raises(ConfigError):
        wd.detp(sysm, 2.0 + 1.0j, wd.build_grid(20.0, 200), p=5)


def test_half_line_eigenvalue_needs_no_dense_matrix():
    """At lambda = 5/2 the N = 2 Poschl-Teller kernel cut off at x = 0, a
    block edge of these grids, is singular: a leading block of I + S is
    singular, and an elimination without pivoting across blocks grows by
    2e7 at 200 nodes and 1e15 at 800.  The QR sweep keeps det1 and det2 at
    the dense value and the closed form without forming the node
    matrix."""
    pt2 = wd.builtin_problem("poschl_teller", N=2)
    sysm = wd.to_system(pt2)
    s = np.sqrt(2.5)
    closed = (s - 1.0) * (s - 2.0) / ((s + 1.0) * (s + 2.0))
    for n in (200, 800):
        g = wd.build_grid(20.0, n)
        want1 = _dense_det1(pt2, 2.5, g)
        want2 = _dense_system(sysm, 2.5, g, (2,))[0]
        d1 = wd.det1(pt2, 2.5, g).value
        d2 = wd.det2(sysm, 2.5, g)
        assert _close(d1, want1) and _close(d2.value, want2)
        assert abs(d1 - closed) < 1e-6
        assert abs(d2.value * np.exp(d2.trace_used) - closed) < 1e-6


# ---------------------------------------------------------------------------
# lambda batches against one lambda at a time


_BATCH_LAMBDAS = [2.0 + 1.0j, 0.5 + 1.5j, 6.0 - 1.0j, 3.0 + 0.4j, 1.5 + 0.5j,
                  9.0 - 2.0j, 0.8 - 0.6j, 4.4 - 0.3j, 2.5 + 0.5j, 7.0 + 2.0j]
# drift 2 kappa: k = 0 at -0.5 and -0.3 + 0.2i, k = 1 elsewhere
_DRIFT = wd.ScalarProblem(order=2, coeffs=(0.0, 2.0), profile=_SECH2)
_DRIFT_LAMBDAS = [3.0, -0.5, 2.0 + 1.0j, -0.3 + 0.2j, 6.0 - 1.0j]


def _assert_rows_agree(batch, singles):
    """Rows of a batch against the same lambdas run one at a time, to
    1e-14 relative, in input order."""
    assert len(batch) == len(singles)
    for got, want in zip(batch, singles):
        for a, b in zip(got, want):
            assert a.kind == b.kind
            assert abs(a.value - b.value) <= 1e-14 * abs(b.value)
            assert abs(a.trace_used - b.trace_used) <= 1e-14 * max(
                1.0, abs(b.trace_used))


@pytest.mark.parametrize("grid_name", sorted(_oracle_grids()))
def test_det1_batch_matches_one_lambda_at_a_time(grid_name):
    """Ten lambdas are two slices at 200 nodes; the drift problem's list
    spans k = 0 and k = 1."""
    g = _oracle_grids()[grid_name]
    cases = [(wd.builtin_problem("poschl_teller", N=2), _BATCH_LAMBDAS),
             (PANEL_PROBLEMS["deriv_order_1"][0], _BATCH_LAMBDAS),
             (PANEL_PROBLEMS["complex_coeffs"][0], _BATCH_LAMBDAS),
             (_DRIFT, _DRIFT_LAMBDAS)]
    for problem, lams in cases:
        batch = fredholm.det1_many(problem, lams, g)
        _assert_rows_agree([[res] for res in batch],
                           [[wd.det1(problem, lam, g)] for lam in lams])


@pytest.mark.parametrize("grid_name", sorted(_oracle_grids()))
def test_system_batch_matches_one_lambda_at_a_time(grid_name):
    """det2, det3 and det4 of the matrix kernel, two lambdas per slice at
    200 nodes."""
    g = _oracle_grids()[grid_name]
    cases = [(wd.to_system(wd.builtin_problem("poschl_teller")),
              _BATCH_LAMBDAS[:5]),
             (wd.to_system(wd.builtin_problem("biharmonic_demo")),
              [3.2 + 1.1j, -1.0 + 2.0j, 2.0 + 1.0j]),
             (wd.to_system(_DRIFT), _DRIFT_LAMBDAS)]
    for system, lams in cases:
        for p in (3, 4):
            orders = {"det2": 2, "detp": p}
            _assert_rows_agree(
                fredholm.determinants_many(system, lams, g, orders),
                [fredholm.determinants_many(system, [lam], g, orders)[0]
                 for lam in lams])
        _assert_rows_agree(fredholm.determinants_many(system, lams, g,
                                                      {"det2": 2}),
                           [[wd.det2(system, lam, g)] for lam in lams])


def test_batch_refuses_like_its_first_failing_lambda():
    """kappa^2 + 2 kappa + 1 - lambda has a double root at lambda = 0 and
    a root on the imaginary axis at lambda = 1: a batch raises the error
    of whichever comes first."""
    double = wd.ScalarProblem(order=2, coeffs=(1.0, 2.0), profile=_SECH2)
    system = wd.to_system(double)
    g = wd.build_grid(20.0, 200)
    for lams, error in (([3.0, 1.0, 0.0], EssentialSpectrum),
                        ([3.0, 0.0, 1.0], NearMultipleRoots)):
        with pytest.raises(error):
            fredholm.det1_many(double, lams, g)
        with pytest.raises(error):
            fredholm.determinants_many(system, lams, g, {"det2": 2})
    assert fredholm.det1_many(double, [], g) == []


def test_batch_working_set_stays_flat():
    """det1 at the 24 contour samples of the first locate_pt2 benchmark
    rectangle (seed 1) at 200 nodes.  The lambdas run in slices, so the
    traced peak over all 24 is that of the first 8.  W is sampled once, at
    the nodes and sub-nodes, so that peak, 1.24 MiB, is the sweep's stack
    of the slice; one lambda alone peaks at 0.29 MiB."""
    import tracemalloc

    pt2 = wd.builtin_problem("poschl_teller", N=2)
    g = wd.build_grid(20.0, 200)
    contour = wd.locate.Contour(0.5790706033274334 - 0.47768660426233894j,
                                1.6378919824672669 + 0.49829306386281425j,
                                samples_per_edge=6)
    lams = [complex(z) for z in contour.points()[:-1]]

    def peak(lams):
        tracemalloc.start()
        try:
            fredholm.det1_many(pt2, lams, g)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(lams)      # caches and lazy imports
    assert len(lams) == 24
    all24, first8 = peak(lams), peak(lams[:8])
    assert all24 <= 1.2 * first8
    assert all24 <= 1.3 * 2 ** 20


def test_system_det_working_set_is_bounded():
    """det2 and det3 of poschl_teller N=2 at 800 nodes, two lambdas in one
    slice (c = 1).  The m = 0 form runs on the scalar terms, so R - R_inf
    is sampled at the nodes alone, and v at the nodes and sub-nodes only:
    the traced peak is 1.42 MiB.  With v also at the 80,000 sub-sub-nodes
    that the traces once read it was 2.38 MiB.  The bound leaves a 48%
    margin over 1.42 MiB."""
    import tracemalloc

    sysm = wd.to_system(wd.builtin_problem("poschl_teller", N=2))
    g = wd.build_grid(20.0, 800)
    lams = [6.2 + 1.3j, 7.7 - 0.8j]
    orders = {"det2": 2, "det3": 3}
    fredholm.determinants_many(sysm, lams, g, orders)  # caches, lazy imports
    tracemalloc.start()
    try:
        fredholm.determinants_many(sysm, lams, g, orders)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * 2 ** 20


def test_system_det_samples_each_distinct_point_once(monkeypatch):
    """det1, det2 and det3 of poschl_teller N=2 at 800 nodes (80 panels of
    10), two lambdas: v at the nodes twice (the system trace and the
    scalar samples) and once per panel at each distinct sub-node
    coordinate, 12,960 points.  The traces read W at the nodes only."""
    points = []
    potential = wd.ScalarProblem.potential
    monkeypatch.setattr(wd.ScalarProblem, "potential", lambda self, x: (
        points.append(np.size(x)) or potential(self, x)))
    sysm = wd.to_system(wd.builtin_problem("poschl_teller", N=2))
    g = wd.build_grid(20.0, 800)
    fredholm.determinants_many(sysm, [6.2 + 1.3j, 7.7 - 0.8j], g,
                               {"det1": 1, "det2": 2, "det3": 3})
    sub = fredholm._panel_tables(10)[5].size
    assert sum(points) == 2 * 800 + 80 * sub == 12960


def _matrix_dets(system, lams, grid, orders):
    """The order-p determinants of the matrix kernel from the system
    terms, W = -(R - R_inf) on the column support at every point set: the
    engine as it runs for m >= 1, and for m = 0 before it took the scalar
    terms.  Values (len(orders), L)."""
    kappa, k, P, Pinv, refusals = greens.system_bases(system, lams)
    assert refusals == [None] * len(lams)
    samples = fredholm._sample(fredholm._system_weight(system, grid), grid)
    return fredholm._regularized(
        fredholm._system_terms(kappa, k, P, Pinv, system.column_support),
        samples, {}, orders)


_M0_PULSES = {"poschl_teller": [2.5 + 0.5j, 6.0 - 1.0j],
              "biharmonic_demo": [-1.0 + 1.0j, 3.0 + 2.0j],
              "sech_pulse": [2.0 + 1.0j, -0.3 + 0.2j],
              "gaussian_pulse": [2.0 + 1.0j, 0.5 + 0.5j]}


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(_M0_PULSES))
def test_m0_form_reads_every_order_off_one_sweep(monkeypatch, name, p):
    """An m = 0 form's det1, det2 and detp of two lambdas at 800 nodes come
    from one sweep of the scalar terms: det1 is ``det1_many`` bit for bit,
    det2 and detp are the system terms' values to 1e-14, and the reported
    system trace is unchanged."""
    problem = wd.builtin_problem(name)
    system = wd.to_system(problem)
    g = wd.build_grid(20.0, 800)
    lams = _M0_PULSES[name]
    sweeps = []
    sweep = fredholm._sweep
    monkeypatch.setattr(fredholm, "_sweep",
                        lambda blocks: sweeps.append(1) or sweep(blocks))
    rows = fredholm.determinants_many(system, lams, g,
                                      {"det1": 1, "det2": 2, "detp": p})
    assert len(sweeps) == 1
    monkeypatch.undo()
    want2, wantp = _matrix_dets(system, lams, g, (2, p))
    for (d1, d2, dp), one, lam, v2, vp in zip(
            rows, fredholm.det1_many(problem, lams, g), lams, want2, wantp):
        assert (d1.kind, d2.kind, dp.kind) == ("det1", "det2", "detp")
        assert d1 == one
        assert abs(d2.value - v2) <= 1e-14 * abs(v2)
        assert abs(dp.value - vp) <= 1e-14 * abs(vp)
        assert d2.trace_used == dp.trace_used == fredholm.det2(
            system, lam, g).trace_used


def test_m1_form_keeps_its_system_sweep(monkeypatch):
    """For m >= 1 the matrix kernel is a different discretization from the
    scalar one, so det1 and the system orders take one sweep each, with
    the values of the two separate engine runs bit for bit."""
    problem = PANEL_PROBLEMS["deriv_order_1"][0]
    system = wd.to_system(problem)
    g = wd.build_grid(20.0, 200)
    lams = [3.0 + 1.0j, 2.0 - 0.5j]
    sweeps = []
    sweep = fredholm._sweep
    monkeypatch.setattr(fredholm, "_sweep",
                        lambda blocks: sweeps.append(1) or sweep(blocks))
    rows = fredholm.determinants_many(system, lams, g,
                                      {"det1": 1, "det2": 2, "det3": 3})
    assert len(sweeps) == 2
    monkeypatch.undo()
    want2, want3 = _matrix_dets(system, lams, g, (2, 3))
    for (d1, d2, d3), one, v2, v3 in zip(
            rows, fredholm.det1_many(problem, lams, g), want2, want3):
        assert (d1.value, d1.trace_used) == (one.value, one.trace_used)
        assert (d2.value, d3.value) == (v2, v3)


def test_determinants_many_splits_each_lambda_once(monkeypatch):
    """det1, det2 and det3 of an m = 0 and an m = 1 form take one stacked
    root split of the lambda list: the scalar terms read alpha off the
    bases that the system orders use."""
    calls = []
    split = greens._split
    monkeypatch.setattr(greens, "_split",
                        lambda *args: calls.append(1) or split(*args))
    g = wd.build_grid(20.0, 200)
    for problem in (wd.builtin_problem("poschl_teller", N=2),
                    PANEL_PROBLEMS["deriv_order_1"][0]):
        calls.clear()
        fredholm.determinants_many(wd.to_system(problem),
                                   [3.0 + 1.0j, 2.0 - 0.5j], g,
                                   {"det1": 1, "det2": 2, "det3": 3})
        assert len(calls) == 1


def test_det1_is_refused_up_front_without_a_decaying_source(monkeypatch):
    """det1 of a system with no scalar source, or of a front, is a
    ConfigError raised before the bases are built."""
    def no_bases(*args):
        raise AssertionError("bases built before the refusal")

    monkeypatch.setattr(greens, "system_bases", no_bases)
    g = wd.build_grid(20.0, 200)
    with pytest.raises(ConfigError, match="scalar source"):
        fredholm.determinants_many(_full_weight_system(), [2.0 + 1.0j], g,
                                   {"det1": 1, "det2": 2})
    with pytest.raises(ConfigError, match="undefined for front profiles"):
        wd.det1(wd.builtin_problem("tanh_front"), 2.0 + 1.0j, g)


# the exact traces on absolute offsets: one lambda, every chain of a level
# at once


def _reference_edges(grid):
    return np.linspace(-grid.half_width, grid.half_width,
                       grid.nodes.size // grid.panel_order + 1)


def _reference_cumulative(grid, mu, f):
    """F at the nodes, shape (M, N), of M chains at rates mu from f at the
    nodes, shape (M, N).  Each panel's interpolant of f on its nodes times
    e^(mu (x - t)) is integrated from the panel's left edge to each node
    and to its right edge t by ``_fine_rule`` on absolute offsets; the
    full panels carry over through their moments."""
    edges, q = _reference_edges(grid), grid.panel_order
    M, P = mu.size, edges.size - 1
    x = grid.nodes.reshape(P, q)
    ends = np.concatenate([x, edges[1:, None]], axis=1)
    ref_x, ref_w = _fine_rule()
    half = ((ends - edges[:-1, None]) / 2.0)[..., None]
    pts = edges[:-1, None, None] + half * (ref_x + 1.0)
    lag = np.stack([_lagrange_rows(x[p], pts[p].ravel()).reshape(
        q + 1, -1, q) for p in range(P)])
    grow = np.exp(mu[:, None, None, None] * (pts - ends[..., None]))
    part = np.einsum("mprg,prg,prgj,mpj->mpr", grow, half * ref_w, lag,
                     f.reshape(M, P, q))
    decay = np.exp(-mu[:, None] * np.diff(edges))
    C = np.zeros((M, P), dtype=complex)
    for p in range(1, P):
        C[:, p] = decay[:, p - 1] * C[:, p - 1] + part[:, p - 1, q]
    anchor = np.exp(mu[:, None, None] * (edges[:-1, None] - x))
    return (part[..., :q] + C[..., None] * anchor).reshape(M, -1)


def _reference_traces(kernel, grid):
    terms, weight = kernel
    kap, k, r, u = terms.kappa[0], terms.k, terms.r[0], terms.u[0]
    N = grid.nodes.size
    E = np.einsum("ac,...cd,bd->ab...", r, weight(grid.nodes), u)
    j, i = np.ogrid[:k, k:kap.size]
    mu = kap[j] - kap[i]
    F = _reference_cumulative(grid, mu.ravel(), E[i, j].reshape(mu.size, N))
    F = F.reshape(mu.shape + (1, N))
    tr2 = 2.0 * np.sum(grid.weights * E[j, i] * F[:, :, 0])
    j, i, c = np.ogrid[:k, k:kap.size, :kap.size]
    plus = c < k
    mu = np.where(plus, kap[c] - kap[i], kap[j] - kap[c])
    mid = np.where(plus, j, c), np.where(plus, c, i)
    last = np.where(plus, c, j), np.where(plus, i, c)
    G = _reference_cumulative(grid, mu.ravel(), (E[mid] * F).reshape(-1, N))
    tr3 = 3.0 * np.sum(grid.weights * E[last].reshape(-1, N) * G)
    return complex(tr2), complex(tr3)


@pytest.mark.parametrize("name,problem,lam", _trace_cases(),
                         ids=[c[0] for c in _trace_cases()])
def test_lean_traces_match_the_chain_element_traces(name, problem, lam):
    """The engine's traces, from fitted rules on the reference panel,
    against the chain elements' interpolants integrated on absolute
    offsets, relative to the larger trace."""
    for g in (wd.build_grid(8.0, 40, panel_order=8), wd.build_grid(20.0, 200)):
        kernel = _kernel(problem, lam)
        want = _reference_traces(kernel, g)
        got = _exact_traces(kernel, g)
        scale = max(abs(w) for w in want)
        assert abs(got[2] - want[0]) <= 1e-14 * scale
        assert abs(got[3] - want[1]) <= 1e-14 * scale


@pytest.mark.parametrize("P", [1, 2, 3, 7, 20, 80, 81])
@pytest.mark.parametrize("axis", [-1, 1])
@pytest.mark.parametrize("per_panel", [False, True],
                         ids=["row_decay", "panel_decay"])
def test_scan_is_the_sequential_recurrence(P, axis, per_panel):
    """``_scan`` against C_p = decay_(p-1) C_(p-1) + b_(p-1), one p at a
    time, within 1e-14 of the sum of |terms| of each C_p: complex decays
    with |decay| <= 1, one per row or one per panel, along the panel axis
    of ``_cumulative`` (last) and of ``_block_traces`` (1)."""
    rng = np.random.default_rng(P)
    shape = (2, 3, 2, 4)
    shape = shape[:axis] + (P,) + shape[axis:] if axis > 0 else shape + (P,)
    b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    decay = np.sqrt(rng.uniform(size=shape)) * np.exp(
        2j * np.pi * rng.uniform(size=shape))
    if not per_panel:
        decay = np.take(decay, [0], axis=axis)
    got = np.moveaxis(fredholm._scan(decay, b, axis), axis, 0)
    b, decay = np.moveaxis(b, axis, 0), np.moveaxis(decay, axis, 0)
    want, size = np.zeros_like(b), np.zeros(b.shape)
    for p in range(1, P):
        d = decay[p - 1 if per_panel else 0]
        want[p] = d * want[p - 1] + b[p - 1]
        size[p] = np.abs(d) * size[p - 1] + np.abs(b[p - 1])
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-14 * size)


# ---------------------------------------------------------------------------
# exponentially fitted panel rules, and the exact traces at large |lambda|


def _fitted_reference(q, zs):
    """omega_rj(z) of ``fredholm._fitted_rules`` to 30 digits, from the
    antiderivative sum_k (-1)^k l_j^(k)(s) e^(z (s - s_r)) / z^(k+1) of the
    Lagrange basis polynomial on the float64 nodes, carried with enough
    digits to absorb its cancellation at small |z|."""
    import mpmath as mp

    with mp.workdps(200):
        t = [mp.mpf(float(x)) for x in model.gauss_rule(q)[0]]
        ends = t + [mp.mpf(1)]
        derivs = []     # derivs[j][point] = l_j^(k)(point), k < q
        for j in range(q):
            coef = [mp.mpf(1)]
            for m in range(q):
                if m != j:
                    coef = [(a * -t[m] + b) / (t[j] - t[m])
                            for a, b in zip(coef + [0], [0] + coef)]
            rows = []
            for x in [mp.mpf(-1)] + ends:
                c, row = list(coef), []
                for _ in range(q):
                    row.append(mp.polyval(c[::-1], x))
                    c = [i * c[i] for i in range(1, len(c))]
                rows.append(row)
            derivs.append(rows)
    out = np.empty((len(zs), q + 1, q), dtype=complex)
    for n, z in enumerate(zs):
        digits = 40 + int(q * max(0.0, -math.log10(abs(z))))
        with mp.workdps(digits):
            z = mp.mpc(z)
            inv = [(-1) ** k / z ** (k + 1) for k in range(q)]
            for j in range(q):
                start = mp.fdot(inv, derivs[j][0])
                for r, x in enumerate(ends):
                    out[n, r, j] = complex(mp.fdot(inv, derivs[j][r + 1])
                                           - mp.exp(-z * (x + 1)) * start)
    return out


@pytest.mark.parametrize("q", [4, 10, 16])
def test_fitted_rules_match_a_30_digit_reference(q):
    """The fitted weights against the 30-digit reference for |z| from 1e-8
    to 1e3 and arg z in {0, +-pi/4, +-(pi/2 - 0.01)}, relative to the
    largest weight of each z: the worst measured is 1.7e-14 (q = 10,
    |z| = 1e3).  Column q is the anchor e^(-z (s_r + 1))."""
    zs = np.array([m * np.exp(1j * a)
                   for m in (1e-8, 1e-4, 1e-2, 0.3, 1.0, 3.0, 10.0, 30.0,
                             100.0, 300.0, 1e3)
                   for a in (0.0, np.pi / 4, -np.pi / 4, np.pi / 2 - 0.01,
                             0.01 - np.pi / 2)])
    got = fredholm._fitted_rules(zs, q)
    want = _fitted_reference(q, zs)
    err = np.max(np.abs(got[..., :q] - want), axis=(1, 2))
    assert np.all(err <= 2e-14 * np.max(np.abs(want), axis=(1, 2)))
    s = np.concatenate([model.gauss_rule(q)[0], [1.0]])
    assert np.allclose(got[..., q], np.exp(-zs[:, None] * (s + 1.0)),
                       rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n", [1, 2])
def test_traces_and_determinants_meet_the_closed_forms_at_large_lambda(n):
    """Poschl-Teller N = 1 and 2 at 400 nodes, |lambda| from 1 to 1e6 on
    the rays arg lambda = 0, pi/4 and pi/2: tr T^2 is within 1e-8 relative
    of its closed form, and det1, det2 and det3 within
    1e-8 max(1, |closed form|).  With Gauss partial-panel rules, which do
    not resolve e^(mu (x - t)) once |mu| h is large, tr T^2 missed by up
    to 0.9 and det1 by 2.8e-6."""
    problem = wd.builtin_problem("poschl_teller", N=n)
    g = wd.build_grid(20.0, 400)
    lams = [10.0 ** (e / 2) * np.exp(1j * a) for e in range(13)
            for a in (0.0, np.pi / 4, np.pi / 2)]
    rows = fredholm.determinants_many(wd.to_system(problem), lams, g,
                                      {"det1": 1, "det2": 2, "det3": 3})
    for lam, row in zip(lams, rows):
        want = oracles.pt_trace_t2(n, lam)
        got = oracles.trace_powers(problem, lam, g)[0]
        assert abs(got - want) <= 1e-8 * abs(want), lam
        for res, exact in zip(row, (oracles.pt_det1, oracles.pt_det2,
                                    oracles.pt_det3)):
            want = exact(n, lam)
            assert abs(res.value - want) <= 1e-8 * max(1.0, abs(want)), lam
