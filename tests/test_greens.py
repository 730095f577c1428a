import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import wavedet as wd
from wavedet import fredholm, greens
from wavedet.errors import (EssentialSpectrum, IllConditioned,
                            NearMultipleRoots, raise_first)

import oracles
from test_fredholm import _dense_matrix, _kernel


def _free_problem(order=2):
    prof = wd.make_profile("sech2", amplitude=2.0)
    return wd.ScalarProblem(order=order, coeffs=(0.0,) * order, profile=prof)


def _basis(problem, lam):
    """The kernel basis of a scalar problem's first-order form."""
    return oracles.basis(wd.to_system(problem), lam)


def _general(base_matrix, n=2):
    """A general system, with no scalar source, of constant part
    base_matrix(lambda) and no perturbation."""
    zero = np.zeros((n, n))
    return wd.SystemProblem(
        dimension=n, base_matrix=base_matrix,
        perturbation=lambda x: np.zeros(np.shape(x) + (n, n)),
        r_minus=zero, r_plus=zero)


# ---------------------------------------------------------------------------
# root splitting


def test_classify_roots_poschl_teller(pt):
    kappa, k, _, _ = oracles.green_row(pt, 4.0)
    assert k == 1
    assert tuple(kappa[:k]) == (2.0 + 0.0j,)
    assert tuple(kappa[k:]) == (-2.0 + 0.0j,)


def test_classify_roots_refusals(pt):
    with pytest.raises(EssentialSpectrum):
        greens.green_data(pt, [-1.0])
    # discriminant zero: both roots at -1
    prof = pt.profile
    double = wd.ScalarProblem(order=2, coeffs=(1.0, 2.0), profile=prof)
    with pytest.raises(NearMultipleRoots):
        greens.green_data(double, [0.0])


def test_stacked_split_refuses_like_the_single_split(pt):
    """Each lambda of the stacked split of ``system_bases`` carries the
    refusal that the split of its batch of one raises, a root on the
    imaginary axis or a double root, and the others its roots and kernel
    weights."""
    double = wd.ScalarProblem(order=2, coeffs=(1.0, 2.0), profile=pt.profile)
    for problem, lams in ((pt, [4.0, -1.0, 2.0 + 1.0j]),
                          (double, [3.0, 0.0, 1.0, 1.0 + 1e-13j])):
        kappa, k, _, Pinv, refusals = greens.system_bases(
            wd.to_system(problem), lams)
        alpha = greens._alpha(k, Pinv)
        for lam, kap, kk, a, refusal in zip(lams, kappa, k, alpha,
                                            refusals):
            try:
                one_kappa, one_k, one_alpha, _ = oracles.green_row(problem,
                                                                   lam)
            except (EssentialSpectrum, NearMultipleRoots,
                    IllConditioned) as exc:
                assert type(refusal) is type(exc) and str(refusal) == str(exc)
                continue
            assert refusal is None
            assert kk == one_k and np.array_equal(kap, one_kappa)
            assert np.allclose(a, one_alpha, rtol=1e-14, atol=0.0)
        assert any(refusals) and not all(refusals)


def test_root_groups_are_sorted():
    p = _free_problem(order=4)
    kappa, k, _, _ = oracles.green_row(p, 3.0 + 1.0j)
    for group in (kappa[:k], kappa[k:]):
        keys = [(r.real, r.imag) for r in group]
        assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# kernel weights


def test_alpha_poschl_teller_exact(pt):
    _, _, alpha, _ = oracles.green_row(pt, 4.0)
    assert np.allclose(alpha, [-0.25, -0.25])


def test_alpha_ill_conditioned():
    kappa = np.array([[1.0 + 0j, 1.0 + 1e-12 + 0j, -1.0 + 0j]])
    refusals = [None]
    greens._vandermonde(kappa, refusals)
    with pytest.raises(IllConditioned):
        raise_first(refusals)


coeff_strategy = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
lam_strategy = st.builds(complex, st.floats(0.5, 8.0), st.floats(-3.0, 3.0))


# a double root at 0, +-4.6e-17(1 + i), 4.3e-33 off the essential spectrum
# (-inf, 1]: refused as EssentialSpectrum, not left to the interface solve
EDGE_DRAW = {"ab": (1.0, 0.0), "lam": complex(1.0, 4.3e-33)}


@given(ab=coeff_strategy, lam=lam_strategy)
@example(**EDGE_DRAW)
def test_alpha_interface_identities(ab, lam):
    """Continuity rows vanish, the top row jumps by exactly minus one."""
    p = wd.ScalarProblem(order=2, coeffs=tuple(map(complex, ab)),
                         profile=_free_problem().profile)
    try:
        kall, k, a, _ = oracles.green_row(p, lam)
    except (EssentialSpectrum, NearMultipleRoots):
        assume(False)
    scale = float(np.max(np.abs(a)))
    n = 2
    for ell in range(n - 1):
        plus = np.sum(a[:k] * kall[:k] ** ell)
        minus = np.sum(a[k:] * kall[k:] ** ell)
        assert abs(plus - minus) < 1e-10 * max(1.0, scale)
    top_plus = np.sum(a[:k] * kall[:k] ** (n - 1))
    top_minus = np.sum(a[k:] * kall[k:] ** (n - 1))
    assert abs(top_plus - top_minus + 1.0) < 1e-12 * max(1.0, scale)


complex_strategy = st.builds(complex, st.floats(-2.0, 2.0),
                             st.floats(-2.0, 2.0))


@given(coeffs=st.integers(2, 6).flatmap(
           lambda n: st.lists(complex_strategy, min_size=n, max_size=n)),
       lam=st.builds(complex, st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)))
def test_alpha_is_read_off_the_inverse_frame(coeffs, lam):
    """alpha read off the inverse Vandermonde frame, as ``green_data``
    and the stacked bases of ``system_bases`` give it, equals a solve of
    the signed interface system (the frame with its minus columns negated,
    right side -e_(n-1)), and so does the condition number."""
    problem = wd.ScalarProblem(order=len(coeffs), coeffs=tuple(coeffs),
                               profile=_free_problem().profile)
    try:
        kall, k, alpha, cond = oracles.green_row(problem, lam)
    except (EssentialSpectrum, NearMultipleRoots, IllConditioned):
        assume(False)
    n = kall.size
    M = kall ** np.arange(n)[:, None] * np.where(np.arange(n) < k, 1.0, -1.0)
    rhs = np.zeros(n, dtype=complex)
    rhs[-1] = -1.0
    want = np.linalg.solve(M, rhs)
    assert np.array_equal(alpha, want)
    assert cond == np.linalg.cond(M)
    _, k, _, Pinv, refusals = greens.system_bases(wd.to_system(problem),
                                                  [lam])
    assert refusals == [None]
    assert np.array_equal(greens._alpha(k, Pinv)[0], want)


# ---------------------------------------------------------------------------
# scalar Green's function


def test_scalar_green_matches_closed_form():
    """Free n=2 resolvent kernel is -exp(-sqrt(lam)|x-xi|) / (2 sqrt(lam))."""
    p = _free_problem()
    rng = np.random.default_rng(7)
    for _ in range(10):
        lam = complex(rng.uniform(0.5, 9.0), rng.uniform(-3.0, 3.0))
        x, xi = rng.uniform(-5, 5, size=2)
        got = oracles.scalar_green(x, xi, *oracles.green_row(p, lam)[:3])
        s = np.sqrt(lam)
        if s.real < 0:
            s = -s
        want = -np.exp(-s * abs(x - xi)) / (2.0 * s)
        assert abs(got - want) < 1e-12


@given(ab=coeff_strategy, lam=lam_strategy, x=st.floats(-4.0, 4.0))
@example(**EDGE_DRAW, x=0.0)
def test_scalar_green_continuous_at_diagonal(ab, lam, x):
    p = wd.ScalarProblem(order=2, coeffs=tuple(map(complex, ab)),
                         profile=_free_problem().profile)
    try:
        kappa, k, alpha, _ = oracles.green_row(p, lam)
    except (EssentialSpectrum, NearMultipleRoots):
        assume(False)
    below = oracles.scalar_green(x, x + 1e-13, kappa, k, alpha)
    above = oracles.scalar_green(x, x - 1e-13, kappa, k, alpha)
    assert abs(below - above) < 1e-9 * max(1.0, abs(below))


def test_scalar_green_derivative_jump(pt):
    """d/dx G jumps by one across x = xi for a second-order operator."""
    lam = 5.0
    row = oracles.green_row(pt, lam)[:3]
    xi, h = 0.3, 1e-6
    up = (oracles.scalar_green(xi + 2 * h, xi, *row)
          - oracles.scalar_green(xi + h, xi, *row)) / h
    dn = (oracles.scalar_green(xi - h, xi, *row)
          - oracles.scalar_green(xi - 2 * h, xi, *row)) / h
    assert up - dn == pytest.approx(1.0, abs=1e-4)


# ---------------------------------------------------------------------------
# bases and their duals


@pytest.mark.parametrize("order,lam", [(2, 4.0), (3, 2.0 + 1.0j),
                                       (4, -16.0), (5, 1.0 + 0.5j)])
def test_basis_product_identities(order, lam):
    """Dual rows against solution columns: identities at every x."""
    p = _free_problem(order=order)
    basis = _basis(p, lam)
    k = basis.k
    for x in np.linspace(-2.0, 2.0, 9):
        ym, yp = basis.y_minus(x), basis.y_plus(x)
        zp, zm = oracles.dual_rows(basis, x)
        assert np.allclose(zp @ ym, np.eye(k), atol=1e-10)
        assert np.allclose(zm @ yp, np.eye(order - k), atol=1e-10)
        assert np.allclose(zp @ yp, 0, atol=1e-10)
        assert np.allclose(zm @ ym, 0, atol=1e-10)


def test_basis_columns_solve_the_system(pt):
    lam = 3.0 + 0.7j
    sysm = wd.to_system(pt)
    A = sysm.base_matrix(lam)
    basis = _basis(pt, lam)
    h = 1e-6
    for x in (-1.0, 0.5):
        dY = (basis.y_minus(x + h) - basis.y_minus(x - h)) / (2 * h)
        assert np.allclose(dY, A @ basis.y_minus(x), atol=1e-6)
        dZ = (oracles.dual_rows(basis, x + h)[0]
              - oracles.dual_rows(basis, x - h)[0]) / (2 * h)
        assert np.allclose(dZ, -oracles.dual_rows(basis, x)[0] @ A,
                           atol=1e-6)


def test_projectors_complement(pt):
    basis = _basis(pt, 2.0 + 1.0j)
    total = sum(oracles.projectors(basis))
    assert np.allclose(total, np.eye(2), atol=1e-12)


def test_matrix_basis_agrees_with_vandermonde(pt):
    """The eigensplit of a general system's constant part reproduces the
    companion-matrix basis of the scalar problem it was built from."""
    lam = 4.0 + 0.3j
    b_eig = oracles.basis(_general(wd.to_system(pt).base_matrix), lam)
    b_van = _basis(pt, lam)
    assert np.allclose(sorted(b_eig.kappa.round(10)),
                       sorted(b_van.kappa.round(10)))
    assert np.allclose(oracles.projectors(b_eig)[0],
                       oracles.projectors(b_van)[0], atol=1e-10)


def test_matrix_basis_rejects_rotation():
    """A0(lambda) = [[0, 1], [lambda - 1, 0]] is a rotation at lambda = 0,
    with eigenvalues +-i: the stacked eigensplit refuses that lambda alone,
    leaves its rows zero, and splits the others."""
    system = _general(lambda lam: np.array([[0.0, 1.0], [lam - 1.0, 0.0]]))
    kappa, k, P, Pinv, refusals = greens.system_bases(system,
                                                      [5.0, 0.0, 2.0])
    assert refusals[0] is None and refusals[2] is None
    assert type(refusals[1]) is EssentialSpectrum
    assert str(refusals[1]) == ("constant matrix has an eigenvalue on the "
                                "imaginary axis")
    assert not (kappa[1].any() or k[1] or P[1].any() or Pinv[1].any())
    assert np.allclose(kappa[[0, 2]], [[2.0, -2.0], [1.0, -1.0]])
    assert list(k[[0, 2]]) == [1, 1]
    with pytest.raises(EssentialSpectrum, match="imaginary axis"):
        oracles.basis(system, 0.0)


# ---------------------------------------------------------------------------
# matrix Green's function


@pytest.mark.parametrize("order,lam", [(2, 4.0), (4, -16.0)])
def test_matrix_green_unit_jump(order, lam):
    p = _free_problem(order=order)
    basis = _basis(p, lam)
    for x in (-1.3, 0.0, 0.8):
        jump = (oracles.matrix_green(x + 1e-14, x, basis)
                - oracles.matrix_green(x - 1e-14, x, basis))
        assert np.allclose(jump, np.eye(order), atol=1e-10)


def test_matrix_green_solves_system(pt):
    lam = 5.0
    sysm = wd.to_system(pt)
    A = sysm.base_matrix(lam)
    basis = _basis(pt, lam)
    h = 1e-6
    for x, xi in ((-0.5, 0.4), (1.2, 0.4)):
        dK = (oracles.matrix_green(x + h, xi, basis)
              - oracles.matrix_green(x - h, xi, basis)) / (2 * h)
        assert np.allclose(dK, A @ oracles.matrix_green(x, xi, basis),
                           atol=1e-5)


def test_system_kernel_reduces_to_scalar(pt):
    """For m = 0 the companion-form kernel carries the scalar kernel in
    the (0, 0) entry of block column 0 and nothing in block column 1."""
    lam = 2.0 + 1.0j
    sysm = wd.to_system(pt)
    for grid in (wd.build_grid(8.0, 40, panel_order=8),
                 wd.build_grid(8.0, 42, panel_order=7)):
        N = grid.nodes.size
        K = _dense_matrix(_kernel(sysm, lam), grid).reshape(N, 2, N, 2)
        Ks = _dense_matrix(_kernel(pt, lam), grid)
        assert np.max(np.abs(K[:, 0, :, 0] - Ks)) <= 1e-12 * np.max(
            np.abs(Ks))
        assert not K[:, :, :, 1].any()
