import math

import numpy as np
import pytest

import wavedet as wd
from wavedet import evans
from wavedet.errors import ConfigError, StiffnessFailure

import oracles


# ---------------------------------------------------------------------------
# Jost solutions against the reflectionless closed form
#
# For the single-well reflectionless potential the decaying solution at the
# left is e^{kx}(k - tanh x)/(k + 1) with k = sqrt(lambda), so its value and
# derivative at the origin are k/(k+1) and k-1.


def _jost(system, lam, direction):
    """The minus run of ``_lambda_runs`` matched at +X, from -X to +X, or
    the plus run matched at -X, from +X to -X, swept alone."""
    params = evans.IntegrationParams()
    minus = direction == "minus"
    x0 = params.half_width if minus else -params.half_width
    runs = evans._lambda_runs(system, lam, params, x0, False,
                              *oracles.end_bases(system, lam))
    return evans._sweep([runs[0 if minus else 1]])[0]


def _raw_at(sol, x):
    """The unscaled solution matrix of a run at a stored sample point."""
    i = evans._index_of(sol.xs, x)
    return sol.values[i] @ (sol.transform[i]
                            * np.exp(sol.renorm_log[i])[None, :])


def test_jost_minus_matches_closed_form(pt_system):
    k = 2.0
    got = _raw_at(_jost(pt_system, 4.0, "minus"), 0.0).ravel()
    assert np.allclose(got, [k / (k + 1.0), k - 1.0], atol=1e-9)


def test_jost_plus_is_the_reflection(pt_system):
    k = 2.0
    got = _raw_at(_jost(pt_system, 4.0, "plus"), 0.0).ravel()
    assert np.allclose(got, [k / (k + 1.0), -(k - 1.0)], atol=1e-9)


def test_jost_growth_accounting(pt_system):
    jm = _jost(pt_system, 4.0, "minus")
    assert jm.xs[0] == -20.0 and jm.xs[-1] == 20.0
    # growth removed over the run is roughly rate x distance
    growth = jm.renorm_log[-1] - jm.renorm_log[0]
    assert abs(growth[0].real - 2.0 * 2.0 * 20.0) < 1.0


def test_jost_rejects_unsampled_point(pt_system):
    jm = _jost(pt_system, 4.0, "minus")
    with pytest.raises(ConfigError):
        _raw_at(jm, 0.123456789)


@pytest.mark.parametrize("name,params,lam", [
    ("poschl_teller", {"N": 2}, 1.3 + 0.2j),
    ("biharmonic_demo", {}, 3.0 + 2.0j),
    ("tanh_front", {"amplitude": 1.5, "offset": -2.5, "well": 8.0},
     2.0 + 1.0j),
])
def test_single_runs_give_the_evans_function(name, params, lam):
    """det[Y-(0) Y+(0)] of the minus and the plus run, each swept alone,
    is E of evans_function, whose runs share one sweep."""
    sysm = wd.to_system(wd.builtin_problem(name, **params))
    got = np.linalg.det(np.concatenate(
        [_raw_at(_jost(sysm, lam, "minus"), 0.0),
         _raw_at(_jost(sysm, lam, "plus"), 0.0)], axis=1))
    want = wd.evans_function(sysm, lam).evans
    assert abs(got - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# the Magnus propagators


# the stacks' norms run up to just below theta_m for m = 3, 5, 7, 9, then
# to degree 13 unscaled (ids 4 and 6) and degree 13 with the largest
# matrices scaled and squared back
_EXPM_CASES = [pytest.param(dim, top, degree, id=f"{dim}{label}")
               for dim in (4, 6)
               for label, top, degree in (("", 5.0, 13), ("-m3", 0.014, 3),
                                          ("-m5", 0.25, 5), ("-m7", 0.9, 7),
                                          ("-m9", 2.0, 9),
                                          ("-m13-scaled", 40.0, 13))]


def _least_degree(norm):
    return min([m for m in (3, 5, 7, 9) if norm <= evans._THETA[m]] + [13])


@pytest.mark.parametrize("dim,top,degree", _EXPM_CASES)
def test_batched_exponential_matches_scipy(dim, top, degree, monkeypatch):
    """exp(A) and the paired exp(-A^T) from the same U and V, each matrix
    from the Pade degree its own norm selects."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(dim)
    norms = np.geomspace(1e-3 * top, top, 24)
    A = (rng.standard_normal((norms.size, dim, dim))
         + 1j * rng.standard_normal((norms.size, dim, dim)))
    A *= (norms / np.linalg.norm(A, ord=1, axis=(1, 2)))[:, None, None]
    used = set()

    class Recorded(dict):
        def __getitem__(self, m):
            used.add(m)
            return dict.__getitem__(self, m)

    monkeypatch.setattr(evans, "_PADE", Recorded(evans._PADE))
    got, got_adjoint = evans._expm(A, adjoint=True)
    assert max(used) == degree
    assert used == {_least_degree(norm) for norm in norms}
    assert np.array_equal(evans._expm(A), got)
    for g, ga, a in zip(got, got_adjoint, A):
        for value, want in ((g, scipy_linalg.expm(a)),
                            (ga, scipy_linalg.expm(-a.T))):
            assert np.linalg.norm(value - want) <= 1e-13 * np.linalg.norm(
                want)


def test_exponential_of_a_mixed_stack_is_that_of_each_matrix():
    """Norms below theta_3 and above theta_13 in one stack: every matrix
    gets the degree and scaling it gets alone, on both halves of the
    pair, so long tail steps do not raise the degree of short ones."""
    rng = np.random.default_rng(5)
    norms = np.array([1e-3, 40.0, 1e-2, 300.0, 1e-6, 8.0])
    assert norms.min() < evans._THETA[3] and norms.max() > evans._THETA[13]
    A = (rng.standard_normal((norms.size, 4, 4))
         + 1j * rng.standard_normal((norms.size, 4, 4)))
    A *= (norms / np.linalg.norm(A, ord=1, axis=(1, 2)))[:, None, None]
    got = evans._expm(A, adjoint=True)
    for i in range(norms.size):
        alone = evans._expm(A[i:i + 1], adjoint=True)[:, 0]
        for half in (0, 1):
            assert np.linalg.norm(got[half, i] - alone[half]) <= \
                1e-15 * np.linalg.norm(alone[half])


def _flat_steps(diagonal):
    """A stand-in for ``_step_exponents`` whose every exponent is
    diag(diagonal, 0, 0, 0)."""
    def steps(system, A0, x, h):
        Omega = np.zeros((x.size, 4, 4), dtype=complex)
        Omega[:, 0, 0] = diagonal
        return Omega
    return steps


def test_non_finite_adjoint_propagator_is_refused(bh_system, monkeypatch):
    """exp(Omega) can stay finite where exp(-Omega^T) overflows; the
    finiteness check covers both halves of the Pade pair."""
    steep = _flat_steps(-800.0)
    assert np.all(np.isfinite(evans._expm(steep(None, None, np.zeros(3),
                                                None))))
    monkeypatch.setattr(evans, "_step_exponents", steep)
    bounds = evans._boundaries(20.0, 1.0, (0.37,))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(StiffnessFailure, match="step propagator"):
        evans._window_steps(bh_system, 3.0 + 2.0j, evans.IntegrationParams(),
                            bounds)


def test_non_finite_step_estimate_is_refused(bh_system, monkeypatch):
    """A pilot that is not finite refuses the lambda before any step is
    sized from it."""
    monkeypatch.setattr(evans, "_step_exponents", _flat_steps(np.nan))
    with np.errstate(invalid="ignore"), \
            pytest.raises(StiffnessFailure, match="step estimate"):
        evans.evans_function(bh_system, 3.0 + 2.0j)


def _reference_boundaries(half_width, step, extra=()):
    """Stored points of the window, merged one by one."""
    n_seg = max(1, int(math.ceil(2.0 * half_width / step - 1e-12)))
    pts = list(np.linspace(-half_width, half_width, n_seg + 1))
    pts += [float(e) for e in extra]
    pts.sort()
    merged = [pts[0]]
    for p in pts[1:]:
        if p - merged[-1] > 1e-10:
            merged.append(p)
    merged[0], merged[-1] = -half_width, half_width
    return np.array(merged)


@pytest.mark.parametrize("half_width,step,extra", [
    (20.0, 1.0, (0.37,)),
    (20.0, 0.96, (-2.5,)),
    # uneven segments: sample points, a step that does not divide
    (20.0, 0.77, (0.37, -2.0, -7.3)),
    (20.0, 2.3, (-1e-3, 1e-11, 3.3)),
])
def test_boundaries_match_the_loop(half_width, step, extra):
    """The vectorized stored points of the window reproduce the merge
    loop bit for bit; a point outside the window is refused."""
    assert np.array_equal(evans._boundaries(half_width, step, extra),
                          _reference_boundaries(half_width, step, extra))
    with pytest.raises(ConfigError, match="outside the window"):
        evans._boundaries(half_width, step, (25.0,))


def _reference_window_steps(system, lam, params, bounds):
    """The Magnus steps piece by piece: each piece cut at x = 0, its pilot
    of one step and two half steps alone, then the two half steps or m
    equal steps of its own.  Returns the pairs [exp(Omega), exp(-Omega)],
    the first step after every stored point, and each step's start and
    length."""
    A0 = system.base_matrix(lam)

    def pair(x, h):
        Omega = evans._step_exponents(system, A0, np.array([x]),
                                      np.array([h]))
        return evans._expm(Omega, adjoint=True)[:, 0]

    steps, at, edges = [], [0], []
    for a, b in zip(bounds[:-1], bounds[1:]):
        for p, q in ([(a, 0.0), (0.0, b)] if a < 0.0 < b else [(a, b)]):
            L = q - p
            first, second = pair(p, L / 2), pair(p + L / 2, L / 2)
            two = second[0] @ first[0]
            gap = (np.abs(pair(p, L)[0] - two).sum(0).max()
                   / np.abs(two).sum(0).max())
            m = math.ceil((128.0 * params.half_width * gap
                           / (63.0 * evans._SAFETY * params.rtol * L))
                          ** (1.0 / 6.0) - 1e-12)
            if m <= 2:
                steps += [first, second]
                edges += [(p, L / 2), (p + L / 2, L / 2)]
            else:
                edges += [(p + i * (L / m), L / m) for i in range(m)]
                steps += [pair(x, h) for x, h in edges[-m:]]
        at.append(len(steps))
    return np.stack(steps, axis=1), at, np.array(edges).T


@pytest.mark.parametrize("case,lam,rtol,extra", [
    ("poschl_teller", 1.3 + 0.2j, 1e-10, (0.37,)),
    ("biharmonic_demo", 3.0 + 2.0j, 1e-6, ()),
    # 49 segments: one of them straddles 0 and is cut there
    ("front", 2.0 + 1.0j, 1e-12, (-2.5,)),
])
def test_window_steps_match_the_loop(case, lam, rtol, extra):
    """The batched pilot, step sizing and step layout reproduce the loop
    over pieces, with pieces of two pilot half steps and pieces of their
    own steps on every case."""
    sysm = (_front_system() if case == "front"
            else wd.to_system(wd.builtin_problem(case)))
    params = evans.IntegrationParams(rtol=rtol)
    bounds = evans._boundaries(20.0, 0.82 if case == "front" else 1.0, extra)
    steps, at = evans._window_steps(sysm, lam, params, bounds)
    want, want_at, _ = _reference_window_steps(sysm, lam, params, bounds)
    assert list(at) == want_at
    counts = np.diff(at)
    assert counts.min() == 2 and counts.max() > 2
    assert np.max(np.abs(steps - want)) <= 1e-14 * np.max(np.abs(want))


def test_plus_steps_are_the_minus_steps_reversed(bh_system):
    """exp(-Omega) of a step, the transposed second half of its pair,
    equals the propagator of the same step taken leftwards from its own
    Magnus exponent: the Gauss-Magnus step is symmetric, so the plus run
    needs no exponents of its own."""
    lam = 3.0 + 2.0j
    params = evans.IntegrationParams()
    bounds = evans._boundaries(20.0, 1.0, (0.37,))
    steps, _ = evans._window_steps(bh_system, lam, params, bounds)
    _, _, (x, h) = _reference_window_steps(bh_system, lam, params, bounds)
    own = evans._expm(evans._step_exponents(
        bh_system, bh_system.base_matrix(lam), x + h, -h))
    scale = np.linalg.norm(own, axis=(1, 2))
    inverse = np.swapaxes(steps[1], -1, -2)
    assert np.max(np.linalg.norm(inverse - own, axis=(1, 2))
                  / scale) <= 1e-12


def test_evans_ratio_is_sixth_order_in_the_step(pt_system):
    """Dividing rtol by 2^6 halves the Magnus step of every piece that
    takes steps of its own, so the change in E/c shrinks by about 2^6."""
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


def test_matching_point_at_the_window_edge(pt_system):
    """Matched at +X the plus run has no segment, at -X the minus run
    stops where it starts; E/c is the same."""
    a = wd.evans_function(pt_system, 2.0 + 1.0j).ratio
    for x0 in (20.0, -20.0):
        b = wd.evans_function(pt_system, 2.0 + 1.0j, matching_point=x0).ratio
        assert abs(a - b) < 1e-8 * abs(a)


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
        tm = wd.evans_function(sysm, lam).transmission
        assert sw.shape == tm.shape == (k, k)
        assert abs(np.linalg.det(sw) - np.linalg.det(tm)) < 1e-8


def test_swinton_matching_point_invariance(pt_system, bh_system):
    for sysm, lam in ((pt_system, 4.0), (bh_system, 3.0 + 2.0j)):
        s0 = evans.swinton_matrix(sysm, lam, matching_point=0.0)
        s1 = evans.swinton_matrix(sysm, lam, matching_point=-2.0)
        assert np.max(np.abs(s0 - s1)) < 1e-8


def test_gram_determinant_limit(pt_system):
    # the edge pairing Z0+(X) Y-(X) is the transmission matrix
    gd = np.linalg.det(wd.evans_function(pt_system, 4.0).transmission)
    assert abs(gd - 1.0 / 3.0) < 1e-6


def test_adjoint_runs_pair_to_a_constant(bh_system):
    """Z(x) Y(x) is x-independent for a row solution Z of the adjoint
    system and a column solution Y: the Swinton rows, run left from +X,
    against the minus columns, run right from -X, at every stored point
    the two runs share."""
    lam = 3.0 + 2.0j
    basis = oracles.basis(bh_system, lam)
    ym, _, zp = evans._sweep(evans._lambda_runs(
        bh_system, lam, evans.IntegrationParams(), -2.0, True, basis, basis))
    pts = (0.0, -2.0)
    pairs = [_raw_at(zp, x).T @ _raw_at(ym, x) for x in pts]
    assert pairs[0].shape == (2, 2)
    assert np.max(np.abs(pairs[0] - pairs[1])) <= 1e-10 * np.max(
        np.abs(pairs[0]))


def _stepwise(system, lam, params, run, x0, direction, adjoint=False):
    """Reference propagation: each step propagator applied to the block in
    turn, with the QR renormalization of every segment.  It starts from
    the first sample of the run under test (the unperturbed data) and
    returns the run's samples and the steps per segment.  The grid holds
    x0 and is sized by both end bases; a pulse's minus run spans it, a
    plus run goes from +X to x0."""
    X = params.half_width
    bounds = evans._boundaries(
        X, evans._segment_step(*oracles.end_bases(system, lam)), (x0,))
    if direction == "plus":
        bounds = bounds[evans._index_of(bounds, x0):]
    steps, at = evans._window_steps(system, lam, params, bounds)
    # a rightward step takes exp(Omega), or exp(-Omega^T) on the adjoint
    # system; a leftward step, whose exponent is -Omega, their transposes
    E = steps[int((direction == "plus") != adjoint)]
    ends = at[1:]
    if direction == "plus":
        bounds, E = bounds[::-1], np.swapaxes(E[::-1], -1, -2)
        ends = at[-1] - at[-2::-1]
    cur, sig = run.values[0], run.renorm_log[0]
    T = np.eye(cur.shape[1], dtype=complex)
    values, transforms, logs = [cur], [T], [sig]
    first = 0
    for last in ends:
        for step in E[first:last]:
            cur = step @ cur
        first = last
        Q, Rtri = np.linalg.qr(cur)
        C = Rtri @ T
        scal = np.max(np.abs(C), axis=0)
        T = C / scal[None, :]
        sig = sig + np.log(scal)
        cur = Q
        values.append(cur)
        transforms.append(T)
        logs.append(sig)
    steps = np.diff(np.concatenate(([0], ends)))
    return bounds, np.array(values), np.array(transforms), np.array(logs), \
        steps


def _front_system():
    return wd.to_system(wd.builtin_problem("tanh_front", amplitude=1.5,
                                           offset=-2.5, well=8.0))


@pytest.mark.parametrize("case,lam,entries", [
    ("poschl_teller", 1.3 + 0.2j, True),
    ("front", 2.0 + 1.0j, True),
    ("biharmonic", -16.0, True),
    ("biharmonic", 3.0 + 2.0j, False),
])
def test_segment_products_match_stepwise_propagation(case, lam, entries):
    """One product of the step propagators per segment reproduces the
    step-by-step run, for a run of each kind that ``_lambda_runs`` builds:
    the minus run through 0.37, a front's plus run to -2.5 and the
    Swinton adjoint run to -2.

    The spanned subspace and the determinant scale det(T) exp(sum log)
    always agree.  The samples themselves are compared where they are
    well conditioned: one column, or two growing at one rate (biharmonic
    at -16).  At 3 + 2i the adjoint columns grow at rates 1.36 and 0.20,
    so their individual entries carry rounding times e^(1.16 distance):
    a relative change of 1e-16 in the start of the stepwise run alone
    moves them by about 4e-6."""
    params = evans.IntegrationParams()
    if case == "poschl_teller":
        sysm = wd.to_system(wd.builtin_problem("poschl_teller", N=2))
        x0, which, direction = 0.37, 0, "minus"
    elif case == "front":
        # the plus run to -2.5 is cut at x = 0, where R jumps
        sysm = _front_system()
        x0, which, direction = -2.5, 1, "plus"
    else:
        sysm = wd.to_system(wd.builtin_problem("biharmonic_demo"))
        x0, which, direction = -2.0, 2, "plus"
    adjoint = which == 2
    run = evans._sweep(evans._lambda_runs(
        sysm, lam, params, x0, adjoint, *oracles.end_bases(sysm, lam)))[which]
    xs, values, transforms, logs, steps = _stepwise(
        sysm, lam, params, run, x0, direction, adjoint)
    assert len(set(steps)) > 1   # ragged segments
    assert np.array_equal(run.xs, xs)

    def projector(V):
        return V @ np.conj(np.swapaxes(V, -1, -2))

    assert np.max(np.abs(projector(run.values) - projector(values))) <= 1e-12
    scale = (np.linalg.det(run.transform) / np.linalg.det(transforms)
             * np.exp(run.renorm_log.sum(-1) - logs.sum(-1)))
    assert np.max(np.abs(scale - 1.0)) <= 1e-12
    if entries:
        assert np.max(np.abs(run.values - values)) <= 1e-12
        assert np.max(np.abs(run.transform - transforms)) <= 1e-12
        assert np.max(np.abs(run.renorm_log - logs)) <= 1e-12 * np.max(
            np.abs(logs))


def test_evans_and_swinton_match_the_single_routes(bh_system):
    """The Swinton pairing is read off E/c's own minus run, so it matches
    E/c to rounding at any matching point.  A separate minus run to 0.37
    stores the same grid and takes the same steps up to there, so on
    Poschl-Teller N=2 at 1.3 + 0.2i its sample at 0.37 is the same to the
    last bit."""
    pt2 = wd.to_system(wd.builtin_problem("poschl_teller", N=2))
    for sysm, lam in ((bh_system, 3.0 + 2.0j), (pt2, 1.3 + 0.2j)):
        for x0 in (0.0, 0.37):
            res, sw = evans.evans_and_swinton(sysm, lam, matching_point=x0)
            alone = wd.evans_function(sysm, lam, matching_point=x0)
            assert res.c_lambda == alone.c_lambda
            for got, want in ((res.ratio, alone.ratio),
                              (res.det_transmission,
                               alone.det_transmission)):
                assert abs(got - want) <= 1e-13 * abs(want)
            assert abs(np.linalg.det(sw) - res.ratio) <= 1e-12 * abs(
                res.ratio)


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
    basis = oracles.basis(bs, lam)
    k = basis.k
    kp = basis.kappa[:k]
    want = np.eye(k, dtype=complex)
    for x, w in zip(grid.nodes, grid.weights):
        core = basis.Pinv[:k, :] @ bs.perturbation(float(x)) @ basis.P[:, :k]
        want += w * core * np.exp((kp[None, :] - kp[:, None]) * x)
    got = oracles.born_transmission(bs, lam, grid)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_born_transmission_is_second_order():
    gaps = []
    for amp in (0.01, 0.001):
        sysm = wd.to_system(wd.builtin_problem("sech_pulse", amplitude=amp))
        born = oracles.born_transmission(sysm, 2.0, wd.default_grid())
        exact = wd.evans_function(sysm, 2.0).transmission
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


def test_batch_working_set_is_flat(pt_system):
    """The Jost runs go through the QR sweep _SWEEP_SLICE lambdas at a
    time and each slice is released before the next, so 64 lambdas peak
    within 10% of 8; what grows is the list of results."""
    import tracemalloc

    lams = [complex(3.0 + np.cos(t), 2.0 + np.sin(t))
            for t in np.linspace(0.0, 6.0, 64)]

    def peak(lams):
        tracemalloc.start()
        try:
            evans.evans_and_swinton_many(pt_system, lams)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert evans._SWEEP_SLICE <= 8
    peak(lams[:8])      # caches and lazy imports
    assert peak(lams) <= 1.1 * peak(lams[:8])


# ---------------------------------------------------------------------------
# parameter validation


@pytest.mark.parametrize("kwargs", [
    {"half_width": 0.0},
    {"half_width": float("inf")},
    {"rtol": 0.1},
    {"rtol": 0.0},
])
def test_integration_params_validation(kwargs):
    with pytest.raises(ConfigError):
        evans.IntegrationParams(**kwargs)


def test_rtol_below_float64_rounding_is_refused():
    """The Magnus step count grows as rtol^(-1/6) and no target below
    float64 rounding can be met, so rtol < 1e-14 is refused up front."""
    for rtol in (9.9e-15, 1e-40):
        with pytest.raises(ConfigError, match="rtol below 1e-14"):
            evans.IntegrationParams(rtol=rtol)
    assert evans.IntegrationParams(rtol=1e-14).rtol == 1e-14


def test_params_thread_through(pt_system):
    tight = evans.IntegrationParams(half_width=15.0)
    res = wd.evans_function(pt_system, 4.0, params=tight)
    assert abs(res.ratio - 1.0 / 3.0) < 1e-6
    assert res.truncation_error > 0
