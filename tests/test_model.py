import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import wavedet as wd
from wavedet.errors import ConfigError, NoConvergence
from wavedet import model


# ---------------------------------------------------------------------------
# profiles


def test_poschl_teller_profile_values(pt):
    assert pt.order == 2
    assert pt.coeffs == (0.0, 0.0)
    assert pt.potential(0.0) == pytest.approx(2.0)
    assert pt.potential(3.0) == pytest.approx(2.0 / np.cosh(3.0) ** 2)
    lo, hi = pt.potential_limits
    assert lo == 0 and hi == 0


@pytest.mark.parametrize("kind,params,integral", [
    ("sech2", {"amplitude": 2.0, "width": 1.0}, 4.0),
    ("sech", {"amplitude": 1.5, "width": 2.0}, 1.5 * math.pi * 2.0),
    ("gaussian", {"amplitude": 0.7, "width": 1.3}, 0.7 * 1.3 * math.sqrt(math.pi)),
])
def test_pulse_profile_exact_integrals(kind, params, integral):
    prof = wd.make_profile(kind, **params)
    assert prof.exact_integral == pytest.approx(integral)
    assert prof.limits == (0.0, 0.0)


def _sympy_profile(kind, x, amplitude, width, offset=0.0, well=0.0):
    """The closed form of a ``make_profile`` kind in sympy."""
    import sympy
    u = x / width
    t, s = sympy.tanh(u), sympy.sech(u)
    return {"sech2": amplitude * s ** 2, "sech": amplitude * s,
            "gaussian": amplitude * sympy.exp(-u ** 2),
            "tanh_front": offset + amplitude * t + well * s ** 2}[kind]


@pytest.mark.parametrize("kind,params", [
    ("sech2", {"amplitude": 2.0, "width": 1.0}),
    ("sech", {"amplitude": -1.0, "width": 0.7}),
    ("gaussian", {"amplitude": 0.5, "width": 2.0}),
    ("tanh_front", {"amplitude": 1.5, "offset": -2.5, "well": 8.0, "width": 1.0}),
])
def test_profile_derivatives_match_finite_differences(kind, params):
    """First and second derivatives against central differences, and
    orders 0-6 against sympy's derivatives of the closed form."""
    import mpmath
    import sympy
    prof = wd.make_profile(kind, **params)
    xs = np.linspace(-3.0, 3.0, 11)
    h = 1e-5
    d1 = (prof(xs + h) - prof(xs - h)) / (2 * h)
    d2 = (prof(xs + h) - 2 * prof(xs) + prof(xs - h)) / h**2
    assert np.allclose(prof.derivative(xs, 1), d1, atol=1e-8)
    assert np.allclose(prof.derivative(xs, 2), d2, atol=1e-4)
    x = sympy.Symbol("x")
    expr = _sympy_profile(kind, x, **params)
    for order in range(7):
        exact = sympy.lambdify(x, sympy.diff(expr, x, order), "mpmath")
        with mpmath.workdps(30):
            ref = np.array([float(exact(mpmath.mpf(t))) for t in xs])
        got = prof.derivative(xs, order)
        assert np.all(np.abs(got - ref)
                      <= 1e-12 * np.maximum(1.0, np.abs(ref))), order


def test_tanh_front_limits():
    prof = wd.make_profile("tanh_front", amplitude=1.5, offset=-2.5, well=8.0)
    assert prof.limits == (-4.0, -1.0)
    assert prof(-40.0) == pytest.approx(-4.0, abs=1e-12)
    assert prof(40.0) == pytest.approx(-1.0, abs=1e-12)
    assert prof.l1_norm == math.inf


def test_make_profile_rejects_unknown():
    with pytest.raises(ConfigError):
        wd.make_profile("bump")
    with pytest.raises(ConfigError):
        wd.make_profile(["sech2"])  # a config file can give any JSON value
    with pytest.raises(ConfigError):
        wd.make_profile("sech2", amplitude=1.0, radius=2.0)
    with pytest.raises(ConfigError):
        wd.make_profile("sech2", width=-1.0)


def test_tabulated_profile_interpolates():
    xs = np.linspace(-10, 10, 401)
    prof = wd.make_profile("sech2", amplitude=2.0, width=1.0)
    tab = wd.tabulated_profile(xs, prof(xs))
    mid = np.linspace(-5, 5, 57)
    assert np.allclose(tab(mid), prof(mid), atol=1e-6)
    # tails keep decaying instead of extrapolating wildly
    assert abs(tab(14.0)) < abs(tab(10.0))


# ---------------------------------------------------------------------------
# builtin catalog


def test_builtin_catalog_errors():
    with pytest.raises(ConfigError):
        wd.builtin_problem("kdv7")
    with pytest.raises(ConfigError):
        wd.builtin_problem("poschl_teller", N=0)
    with pytest.raises(ConfigError):
        wd.builtin_problem("sech_pulse", width=-2.0)
    with pytest.raises(ConfigError):
        wd.builtin_problem("gaussian_pulse", amplitdue=1.0)


def test_poschl_teller_family_scaling():
    p2 = wd.builtin_problem("poschl_teller", N=2)
    assert p2.potential(0.0) == pytest.approx(6.0)


def test_biharmonic_demo_is_fourth_order():
    p = wd.builtin_problem("biharmonic_demo", amplitude=0.8)
    assert p.order == 4
    assert p.coeffs == (0.0,) * 4


# ---------------------------------------------------------------------------
# problems


def test_scalar_problem_validation():
    prof = wd.make_profile("sech2")
    with pytest.raises(ConfigError):
        wd.ScalarProblem(order=1, coeffs=(0.0,), profile=prof)
    with pytest.raises(ConfigError):
        wd.ScalarProblem(order=2, coeffs=(0.0,), profile=prof)
    with pytest.raises(ConfigError):
        wd.ScalarProblem(order=2, coeffs=(0.0, 0.0), profile=prof,
                         deriv_order=1)
    with pytest.raises(ConfigError):
        wd.ScalarProblem(order=2, coeffs=(float("inf"), 0.0), profile=prof)


def test_potential_integral_exact_and_front(pt):
    assert pt.potential_integral() == pytest.approx(4.0)
    front = wd.builtin_problem("tanh_front", amplitude=1.0, offset=1.0)
    with pytest.raises(ConfigError):
        front.potential_integral()


def test_decaying_potential_of_a_front_profile_has_det1():
    """V(phi) = 2 (phi^2 - 1) maps tanh_front onto the decaying potential
    -2 sech^2: the potential integral and det1 are those of sech2 with
    amplitude -2."""
    front = wd.ScalarProblem(order=2, coeffs=(0.0, 0.0),
                             profile=wd.make_profile("tanh_front"),
                             jacobian=lambda phi: 2.0 * (phi ** 2 - 1.0))
    well = wd.ScalarProblem(order=2, coeffs=(0.0, 0.0),
                            profile=wd.make_profile("sech2", amplitude=-2.0))
    assert front.potential_integral() == pytest.approx(-4.0, rel=1e-12)
    g = wd.build_grid(20.0, 400)
    for lam in (2.0 + 1.0j, 0.5 + 0.3j, 6.0 - 2.0j):
        got, want = wd.det1(front, lam, g).value, wd.det1(well, lam, g).value
        assert abs(got - want) <= 3e-13 * abs(want)


def test_potential_integral_is_a_cache_not_an_argument(pt):
    with pytest.raises(TypeError):
        wd.ScalarProblem(order=2, coeffs=(0.0, 0.0), profile=pt.profile,
                         _potential_integral=123.0)
    filled = wd.ScalarProblem(order=2, coeffs=(0.0, 0.0), profile=pt.profile)
    filled.potential_integral()
    assert filled == wd.ScalarProblem(order=2, coeffs=(0.0, 0.0),
                                      profile=pt.profile)


def test_jacobian_potential_integral_of_a_wide_profile():
    """A jacobian potential wider than [-40, 40] is integrated over a
    window that widens until it converges: sech2 of amplitude 0.5 and
    width 15 has integral 15, so det1 with the identity jacobian is det1
    without one."""
    prof = wd.make_profile("sech2", amplitude=0.5, width=15.0)
    plain = wd.ScalarProblem(order=2, coeffs=(0.0, 0.0), profile=prof)
    mapped = wd.ScalarProblem(order=2, coeffs=(0.0, 0.0), profile=prof,
                              jacobian=lambda phi: phi)
    assert mapped.potential_integral() == pytest.approx(15.0, rel=1e-12)
    g = wd.build_grid(60.0, 600)
    for lam in (2.0 + 1.0j, 0.5 + 0.3j):
        got, want = wd.det1(mapped, lam, g).value, wd.det1(plain, lam, g).value
        assert abs(got - want) <= 1e-12 * abs(want)


def test_jacobian_potential_integral_refuses_what_never_converges():
    prof = wd.make_profile("sech2", amplitude=0.5, width=3000.0)
    mapped = wd.ScalarProblem(order=2, coeffs=(0.0, 0.0), profile=prof,
                              jacobian=lambda phi: phi)
    with pytest.raises(NoConvergence):
        mapped.potential_integral()


def test_jacobian_reweights_potential(pt):
    prob = wd.ScalarProblem(order=2, coeffs=(0.0, 0.0), profile=pt.profile,
                            jacobian=lambda p: 3.0 * p)
    assert prob.potential(0.0) == pytest.approx(6.0)
    assert prob.potential_integral() == pytest.approx(12.0, rel=1e-9)


# ---------------------------------------------------------------------------
# roots and spectrum


def test_char_roots_second_order():
    roots = wd.char_roots((0.0, 0.0), 4.0)
    assert sorted(r.real for r in roots) == pytest.approx([-2.0, 2.0])


@given(lam=st.complex_numbers(max_magnitude=8.0, allow_nan=False,
                              allow_infinity=False),
       a0=st.floats(-2.0, 2.0), a1=st.floats(-2.0, 2.0))
def test_char_roots_satisfy_polynomial(lam, a0, a1):
    roots = wd.char_roots((complex(a0), complex(a1)), lam)
    for r in roots:
        val = r**2 + a1 * r + a0 - lam
        assert abs(val) < 1e-8 * max(1.0, abs(r) ** 2)


def _reference_roots(coeffs, lam):
    """numpy.roots of one lambda's polynomial plus one Newton step."""
    a = [complex(c) for c in coeffs]
    poly = np.array([1.0 + 0j] + a[::-1])
    poly[-1] -= lam
    roots = np.roots(poly)
    vals = np.polyval(poly, roots)
    dvals = np.polyval(np.polyder(poly), roots)
    ok = np.abs(dvals) > 1e-14 * np.maximum(1.0, np.abs(vals))
    roots[ok] = roots[ok] - vals[ok] / dvals[ok]
    return roots


@pytest.mark.parametrize("n", [2, 4, 6])
def test_stacked_roots_match_per_lambda_roots(n):
    rng = np.random.default_rng(n)
    coeffs = tuple(rng.normal(size=n) + 1j * rng.normal(size=n))
    lams = 3.0 * (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)))
    stacked = wd.char_roots(coeffs, lams)
    assert stacked.shape == (3, 4, n)
    for lam, got in zip(lams.ravel(), stacked.reshape(-1, n)):
        want = _reference_roots(coeffs, lam)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(wd.char_roots(coeffs, lam), got)


def test_classify_points_match_classify_point(pt):
    double = wd.ScalarProblem(order=2, coeffs=(1.0, 2.0), profile=pt.profile)
    lams = [4.0, -1.0, 0.0, 2.0 + 1.0j, 1.0]
    for problem in (pt, double):
        points = model.classify_points(problem, lams)
        assert points == [model.classify_points(problem, [lam])[0]
                          for lam in lams]
    assert [p.domain_status for p in points] == [
        "resolvent", "resolvent", "indeterminate", "resolvent", "essential"]


def test_classify_point_statuses(pt):
    assert [p.domain_status for p in model.classify_points(
        pt, [4.0, -1.0])] == ["resolvent", "essential"]


def test_essential_spectrum_distance(pt):
    # sigma_e of u'' = lambda u is the negative real axis
    assert wd.essential_spectrum_distance(pt, 4.0) == pytest.approx(4.0, rel=1e-6)
    assert wd.essential_spectrum_distance(pt, -9.0 + 4.0j) == pytest.approx(4.0, rel=1e-6)


def test_essential_spectrum_distance_is_the_least_sampled_distance():
    """Against a dense sample of the symbol curve over [-Z, Z], Z the
    Cauchy bound of the zeta with |P(i zeta) - lambda| <= |P(0) - lambda|,
    which holds the minimiser: never above the least sampled distance,
    and below it by at most the largest step between samples."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        coeffs = tuple(rng.uniform(-2.0, 2.0, n)
                       + 1j * rng.uniform(-2.0, 2.0, n))
        problem = wd.ScalarProblem(order=n, coeffs=coeffs,
                                   profile=wd.make_profile("sech2"))
        lam = complex(*rng.uniform(-5.0, 5.0, 2))
        Z = 1.0 + max(2.0 * abs(coeffs[0] - lam),
                      *(abs(c) for c in coeffs[1:]))
        curve = wd.symbol_curve(problem, np.linspace(-Z, Z, 200001))
        sampled = float(np.min(np.abs(curve - lam)))
        got = wd.essential_spectrum_distance(problem, lam)
        assert got <= sampled + 1e-12 * max(1.0, sampled)
        assert sampled - got <= np.max(np.abs(np.diff(curve)))


def test_symbol_curve_second_order(pt):
    zeta = np.array([0.0, 1.0, 2.0])
    assert np.allclose(wd.symbol_curve(pt, zeta), [0.0, -1.0, -4.0])


# ---------------------------------------------------------------------------
# first-order form


def test_companion_matrix_layout():
    A = model.companion_matrix((1.0, 2.0, 3.0), 5.0)
    assert A.shape == (3, 3)
    assert np.allclose(A[0], [0, 1, 0])
    assert np.allclose(A[1], [0, 0, 1])
    assert np.allclose(A[2], [5.0 - 1.0, -2.0, -3.0])


def test_to_system_pulse(pt):
    sysm = wd.to_system(pt)
    assert sysm.dimension == 2
    assert not sysm.is_front
    A = sysm.base_matrix(4.0)
    assert np.allclose(A, [[0, 1], [4, 0]])
    R = sysm.perturbation(0.0)
    assert np.allclose(R, [[0, 0], [-2.0, 0]])
    assert np.allclose(sysm.r_minus, 0) and np.allclose(sysm.r_plus, 0)
    assert sysm.tail_norm(20.0) < 1e-15


@pytest.mark.parametrize("name", ["poschl_teller", "biharmonic_demo",
                                  "sech_pulse"])
def test_tail_norm_matches_a_fine_rule(name):
    """The tails of the sech-type pulses decay exponentially, and 12
    panels of the 10-point Gauss rule per tail resolve them to rounding
    against 1,200 panels."""
    sysm = wd.to_system(wd.builtin_problem(name))
    fine = wd.build_grid(15.0, 12000, panel_order=10)
    for X in (5.0, 10.0, 20.0):
        want = sum(np.sum(fine.weights * np.linalg.norm(
            sysm.decaying_part(side * (fine.nodes + X + 15.0)),
            axis=(-2, -1))) for side in (-1.0, 1.0))
        assert sysm.tail_norm(X) == pytest.approx(want, rel=1e-14, abs=0)


def test_to_system_front_limits():
    front = wd.builtin_problem("tanh_front", offset=-2.5, amplitude=1.5,
                              well=8.0)
    sysm = wd.to_system(front)
    assert sysm.is_front
    assert np.allclose(sysm.r_minus, [[0, 0], [4.0, 0]])
    assert np.allclose(sysm.r_plus, [[0, 0], [1.0, 0]])
    # decaying part switches its reference limit at x = 0
    left = sysm.decaying_part(-1.0)
    right = sysm.decaying_part(1.0)
    assert np.allclose(left, sysm.perturbation(-1.0) - sysm.r_minus)
    assert np.allclose(right, sysm.perturbation(1.0) - sysm.r_plus)


def test_to_system_derivative_coupling():
    """d/dx (v u) spreads over the bottom row with binomial weights."""
    prof = wd.make_profile("sech2", amplitude=1.0)
    prob = wd.ScalarProblem(order=4, coeffs=(0.0,) * 4, profile=prof,
                            deriv_order=2)
    sysm = wd.to_system(prob)
    R = sysm.perturbation(0.5)
    v0 = prob.potential_derivative(0.5, 2)
    v1 = prob.potential_derivative(0.5, 1)
    v2 = prob.potential(0.5)
    assert np.allclose(R[3, :3], [-v0, -2.0 * v1, -v2])
    assert np.allclose(R[:3], 0)


def _pointwise_perturbation(prob, x):
    """R(x) built one point at a time, entry by entry."""
    n, m = prob.order, prob.deriv_order
    R = np.zeros((n, n), dtype=complex)
    for i in range(m + 1):
        R[n - 1, i] = -math.comb(m, i) * np.asarray(
            prob.potential_derivative(float(x), m - i)).item()
    return R


_SECH2 = wd.make_profile("sech2", amplitude=1.3, width=0.8)
_TABLE_X = np.linspace(-8.0, 8.0, 161)


@pytest.mark.parametrize("prob", [
    wd.builtin_problem("poschl_teller", N=2),
    wd.ScalarProblem(order=3, coeffs=(0.5, 0.0, 0.0), profile=_SECH2,
                     deriv_order=1),
    wd.ScalarProblem(order=4, coeffs=(1.0 + 0.5j, -0.3j, 0.2, 0.1 - 0.2j),
                     profile=_SECH2, deriv_order=2),
    wd.ScalarProblem(order=4, coeffs=(0.0,) * 4, profile=_SECH2,
                     deriv_order=1, jacobian=lambda p: p + 0.3 * p ** 2),
    wd.ScalarProblem(order=2, coeffs=(0.0, 0.0),
                     profile=wd.tabulated_profile(_TABLE_X,
                                                  _SECH2(_TABLE_X))),
    wd.builtin_problem("tanh_front", amplitude=1.5, offset=-2.5, well=8.0),
], ids=["m0", "m1", "m2_complex", "jacobian", "tabulated", "tanh_front"])
def test_array_perturbation_matches_pointwise(prob):
    """One array call of R (and of R - R_inf) equals the per-point
    matrices, on both sides of 0, at 0 itself and outside a table."""
    sysm = wd.to_system(prob)
    xs = np.concatenate([np.linspace(-9.0, 9.0, 37), [0.0, -1e-3, 1e-3]])
    want = np.stack([_pointwise_perturbation(prob, x) for x in xs])
    scale = max(1.0, float(np.max(np.abs(want))))
    got = sysm.perturbation(xs.reshape(4, 10))
    assert got.shape == (4, 10, prob.order, prob.order)
    assert np.max(np.abs(got.reshape(want.shape) - want)) <= 1e-15 * scale
    limit = np.where((xs <= 0)[:, None, None], sysm.r_minus, sysm.r_plus)
    assert np.max(np.abs(sysm.decaying_part(xs) - (want - limit))) \
        <= 1e-15 * scale
    assert sysm.perturbation(0.7).shape == (prob.order, prob.order)
    # 12 panels of the 10-point Gauss rule on [2, 32] and on [-32, -2]
    nodes, weights = np.polynomial.legendre.leggauss(10)
    points = [side * (3.25 + 2.5 * panel + 1.25 * x) for side in (-1.0, 1.0)
              for panel in range(12) for x in nodes]
    tail = sum(1.25 * w * np.linalg.norm(sysm.decaying_part(p))
               for p, w in zip(points, np.tile(weights, 24)))
    assert sysm.tail_norm(2.0) == pytest.approx(tail, rel=1e-13)


@pytest.mark.parametrize("name", ["poschl_teller", "tanh_front"])
def test_decaying_part_is_the_broadcast_difference_bit_for_bit(name):
    """R - R_inf, with the limits subtracted in place (and not at all for
    a pulse), is R(x) - where(x <= 0, R_minus, R_plus) bit for bit, on
    both sides of 0, at 0 itself and at scalar points."""
    sysm = wd.to_system(wd.builtin_problem(name))
    grid = np.concatenate([np.linspace(-9.0, 9.0, 37), [0.0, -0.0, 1e-3]])
    for x in (grid.reshape(4, 10), 0.0, -0.7, 2.5):
        x = np.asarray(x, dtype=float)
        limit = np.where((x <= 0)[..., None, None], sysm.r_minus,
                         sysm.r_plus)
        want = sysm.perturbation(x) - limit
        got = sysm.decaying_part(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@given(x=st.floats(-15.0, 15.0))
def test_front_decaying_part_decays(x):
    front = wd.builtin_problem("tanh_front", offset=-2.5, amplitude=1.5,
                              well=8.0)
    sysm = wd.to_system(front)
    near = np.max(np.abs(sysm.decaying_part(x)))
    far = np.max(np.abs(sysm.decaying_part(np.sign(x) * 25.0 if x else 25.0)))
    assert far <= near + 1e-12
