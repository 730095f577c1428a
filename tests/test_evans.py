import numpy as np
import pytest

import wavedet as wd
from wavedet import evans
from wavedet.errors import ConfigError


# ---------------------------------------------------------------------------
# Jost solutions against the reflectionless closed form
#
# For the single-well reflectionless potential the decaying solution at the
# left is e^{kx}(k - tanh x)/(k + 1) with k = sqrt(lambda), so its value and
# derivative at the origin are k/(k+1) and k-1.


def test_jost_minus_matches_closed_form(pt_system):
    k = 2.0
    jm = evans.jost_minus(pt_system, 4.0)
    got = jm.raw_at(0.0).ravel()
    assert np.allclose(got, [k / (k + 1.0), k - 1.0], atol=1e-9)


def test_jost_plus_is_the_reflection(pt_system):
    k = 2.0
    jp = evans.jost_plus(pt_system, 4.0)
    got = jp.raw_at(0.0).ravel()
    assert np.allclose(got, [k / (k + 1.0), -(k - 1.0)], atol=1e-9)


def test_jost_growth_accounting(pt_system):
    jm = evans.jost_minus(pt_system, 4.0)
    assert jm.xs[0] == -20.0 and jm.xs[-1] == 20.0
    # growth removed over the run is roughly rate x distance
    assert abs(jm.growth_log[0].real - 2.0 * 2.0 * 20.0) < 1.0


def test_jost_rejects_unsampled_point(pt_system):
    jm = evans.jost_minus(pt_system, 4.0)
    with pytest.raises(ConfigError):
        jm.raw_at(0.123456789)


# ---------------------------------------------------------------------------
# the Magnus propagators


@pytest.mark.parametrize("dim", [4, 6])
def test_batched_exponential_matches_scipy(dim):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(dim)
    norms = np.geomspace(1e-3, 5.0, 24)
    A = (rng.standard_normal((norms.size, dim, dim))
         + 1j * rng.standard_normal((norms.size, dim, dim)))
    A *= (norms / np.linalg.norm(A, ord=1, axis=(1, 2)))[:, None, None]
    got = evans._expm(A)
    for g, a in zip(got, A):
        want = scipy_linalg.expm(a)
        assert np.linalg.norm(g - want) <= 1e-13 * np.linalg.norm(want)


def test_evans_ratio_is_sixth_order_in_the_step(pt_system):
    """Dividing rtol by 2^6 halves the Magnus step, so the change in E/c
    shrinks by about 2^6; the starting rtol makes the step counts per
    unit segment exactly 4, 8 and 16."""
    lam = 4.0 + 1.0j
    ratios = [wd.evans_function(pt_system, lam,
                                params=evans.IntegrationParams(rtol=rtol)
                                ).ratio
              for rtol in (2e-6, 2e-6 / 2 ** 6, 2e-6 / 2 ** 12)]
    coarse = abs(ratios[0] - ratios[1])
    fine = abs(ratios[1] - ratios[2])
    assert coarse > 1e-10
    assert coarse >= 2 ** 5 * fine


# ---------------------------------------------------------------------------
# the Evans function and its normalizer


@pytest.mark.parametrize("lam,want", [(4.0, 1.0 / 3.0), (9.0, 0.5)])
def test_evans_ratio_closed_form(pt_system, lam, want):
    res = wd.evans_function(pt_system, lam)
    assert abs(res.ratio - want) < 1e-6
    assert abs(res.det_transmission - want) < 1e-6


def test_evans_ratio_vanishes_at_eigenvalue(pt_system):
    assert abs(wd.evans_function(pt_system, 1.0).ratio) < 1e-8


def test_evans_matching_point_invariance(pt_system):
    for lam in (4.0, 2.0 + 1.0j):
        a = wd.evans_function(pt_system, lam, matching_point=0.0).ratio
        b = wd.evans_function(pt_system, lam, matching_point=1.0).ratio
        assert abs(a - b) < 1e-8 * abs(a)


def test_abel_drift_cancels_in_ratio():
    # with a damping term the trace is nonzero, so E and c both pick up
    # the factor exp(trace * dx) between matching points while the ratio
    # stays put
    prof = wd.make_profile("sech2", amplitude=1.0)
    sysm = wd.to_system(wd.ScalarProblem(order=2, coeffs=(0.0, 0.5),
                                         profile=prof))
    a = wd.evans_function(sysm, 4.0, matching_point=0.0)
    b = wd.evans_function(sysm, 4.0, matching_point=1.0)
    drift = np.exp(-0.5)
    assert b.evans / a.evans == pytest.approx(drift, abs=1e-9)
    assert b.c_lambda / a.c_lambda == pytest.approx(drift, abs=1e-9)
    assert abs(a.ratio - b.ratio) < 1e-8 * abs(a.ratio)


def test_matching_point_outside_window(pt_system):
    with pytest.raises(ConfigError):
        wd.evans_function(pt_system, 4.0, matching_point=25.0)


def test_zero_perturbation_is_trivial():
    flat = wd.to_system(wd.builtin_problem("sech_pulse", amplitude=0.0))
    res = wd.evans_function(flat, 3.0)
    assert abs(res.det_transmission - 1.0) <= 1e-13
    assert abs(res.ratio - 1.0) < 1e-8


def test_truncation_error_reported(pt_system):
    res = wd.evans_function(pt_system, 4.0)
    assert 0.0 < res.truncation_error < 1e-10


# ---------------------------------------------------------------------------
# transmission routes


@pytest.fixture(scope="module")
def bh_system():
    return wd.to_system(wd.builtin_problem("biharmonic_demo"))


def test_swinton_matches_transmission(pt_system, bh_system):
    # k = 1 (Poschl-Teller) and k = 2 dual rows (fourth order)
    for sysm, lam, k in ((pt_system, 4.0, 1), (bh_system, 3.0 + 2.0j, 2)):
        sw = evans.swinton_matrix(sysm, lam)
        tm = evans.transmission_matrix(sysm, lam)
        assert sw.shape == tm.shape == (k, k)
        assert abs(np.linalg.det(sw) - np.linalg.det(tm)) < 1e-8


def test_swinton_matching_point_invariance(pt_system, bh_system):
    for sysm, lam in ((pt_system, 4.0), (bh_system, 3.0 + 2.0j)):
        s0 = evans.swinton_matrix(sysm, lam, matching_point=0.0)
        s1 = evans.swinton_matrix(sysm, lam, matching_point=-2.0)
        assert np.max(np.abs(s0 - s1)) < 1e-8


def test_gram_determinant_limit(pt_system):
    # the edge pairing Z0+(X) Y-(X) is the transmission matrix
    gd = np.linalg.det(evans.transmission_matrix(pt_system, 4.0))
    assert abs(gd - 1.0 / 3.0) < 1e-6


def test_adjoint_runs_pair_to_a_constant(bh_system):
    """Z(x) Y(x) is x-independent for a row solution Z of the adjoint
    system and a column solution Y, in both directions: the dual rows of
    Z0- run right from -X against the Y+ columns run left from +X."""
    lam = 3.0 + 2.0j
    basis = wd.system_basis(bh_system, lam)
    params = evans.IntegrationParams()
    pts = (0.0, -2.0)
    zm = evans._propagate_columns(bh_system, lam, basis, "minus", params,
                                  sample_points=pts, adjoint=True)
    yp = evans._propagate_columns(bh_system, lam, basis, "plus", params,
                                  sample_points=pts)
    pairs = [zm.raw_at(x).T @ yp.raw_at(x) for x in pts]
    assert pairs[0].shape == (2, 2)
    assert np.max(np.abs(pairs[0] - pairs[1])) <= 1e-10 * np.max(
        np.abs(pairs[0]))


@pytest.mark.parametrize("lam", [3.0 + 2.0j, 2.0 - 3.5j])
def test_evans_routes_match_det1_on_wide_windows(lam):
    """det D, E/c and det(Swinton) hold det1 as the window widens: the
    growth ratio e^((Re kappa_1 - Re kappa_2) X) of the two Jost columns
    (e^(1.16 X) at 3 + 2i) must not leak into any route."""
    bi = wd.builtin_problem("biharmonic_demo", amplitude=3.0)
    bs = wd.to_system(bi)
    for X in (20.0, 25.0, 30.0):
        params = evans.IntegrationParams(half_width=X)
        d1 = wd.det1(bi, lam, wd.build_grid(X, 1600)).value
        res = wd.evans_function(bs, lam, params=params)
        sw = np.linalg.det(evans.swinton_matrix(bs, lam, params=params))
        for value in (res.det_transmission, res.ratio, sw):
            assert abs(value - d1) <= 1e-9 * abs(d1)


def test_born_transmission_matches_pointwise_sum():
    bs = wd.to_system(wd.builtin_problem("biharmonic_demo"))
    grid = wd.build_grid(20.0, 200)
    lam = 3.0 + 2.0j
    basis = wd.system_basis(bs, lam)
    k = basis.k
    kp = np.array(basis.roots.plus)
    want = np.eye(k, dtype=complex)
    for x, w in zip(grid.nodes, grid.weights):
        core = basis.Pinv[:k, :] @ bs.perturbation(float(x)) @ basis.P[:, :k]
        want += w * core * np.exp((kp[None, :] - kp[:, None]) * x)
    got = evans.born_transmission(bs, lam, grid)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_born_transmission_is_second_order():
    gaps = []
    for amp in (0.01, 0.001):
        sysm = wd.to_system(wd.builtin_problem("sech_pulse", amplitude=amp))
        born = evans.born_transmission(sysm, 2.0)
        exact = evans.transmission_matrix(sysm, 2.0)
        gaps.append(abs(born[0, 0] - exact[0, 0]))
        # the first-order term itself is visible and larger than the error
        assert abs(born[0, 0] - 1.0) > 10 * gaps[-1]
    assert gaps[0] > 50 * gaps[1]  # quadratic in the coupling


# ---------------------------------------------------------------------------
# the cross-pipeline identity at a point


def test_identity_report_fields(pt):
    rep = evans.identity_report(pt, 4.0)
    assert set(rep) == {"d", "det_transmission", "evans_ratio",
                        "det2_product", "max_pairwise_gap"}
    assert rep["max_pairwise_gap"] < 1e-6
    for key in ("d", "det_transmission", "evans_ratio", "det2_product"):
        assert abs(rep[key] - 1.0 / 3.0) < 1e-6


def test_identity_report_rejects_fronts():
    front = wd.builtin_problem("tanh_front", amplitude=1.5, offset=-2.5,
                               well=8.0)
    with pytest.raises(ConfigError):
        evans.identity_report(front, 2.0)


def test_front_has_no_transmission():
    front = wd.to_system(wd.builtin_problem("tanh_front", amplitude=1.5,
                                            offset=-2.5, well=8.0))
    res = wd.evans_function(front, 2.0)
    assert res.transmission is None and res.det_transmission is None
    assert np.isfinite(res.ratio)


# ---------------------------------------------------------------------------
# higher order: fourth-order operator, two columns per side


def test_fourth_order_two_column_pipeline():
    bi = wd.builtin_problem("biharmonic_demo", amplitude=3.0)
    bs = wd.to_system(bi)
    lam = -16.0
    res = wd.evans_function(bs, lam)
    assert res.transmission.shape == (2, 2)
    d1 = wd.det1(bi, lam, wd.build_grid(20.0, 400)).value
    assert abs(res.ratio - d1) < 1e-6
    other = wd.evans_function(bs, lam, matching_point=1.0)
    assert abs(res.ratio - other.ratio) < 1e-8 * abs(res.ratio)


# ---------------------------------------------------------------------------
# parameter validation


@pytest.mark.parametrize("kwargs", [
    {"half_width": 0.0},
    {"half_width": float("inf")},
    {"rtol": 0.1},
    {"rtol": 0.0},
    {"renorm_threshold": 10.0},
    {"orthogonalize_interval": 0.0},
])
def test_integration_params_validation(kwargs):
    with pytest.raises(ConfigError):
        evans.IntegrationParams(**kwargs)


def test_params_thread_through(pt_system):
    tight = evans.IntegrationParams(half_width=15.0)
    res = wd.evans_function(pt_system, 4.0, params=tight)
    assert abs(res.ratio - 1.0 / 3.0) < 1e-6
    assert res.truncation_error > 0
