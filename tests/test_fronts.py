import numpy as np
import pytest

import wavedet as wd
from wavedet import evans, fredholm, fronts, greens, locate
from wavedet.errors import ConfigError, CountMismatch, IllConditioned

import oracles

AM = np.array([[0.0, 1.0], [4.0, 0.0]])   # rates +-2, keep +2
AP = np.array([[0.0, 1.0], [1.0, 0.0]])   # rates +-1, keep -1
B_EXPECTED = np.array([[0.0, 1.0], [2.0, 1.0]])


@pytest.fixture(scope="module")
def front_system():
    prob = wd.builtin_problem("tanh_front", amplitude=1.5, offset=-2.5,
                              well=8.0)
    return wd.to_system(prob)


# ---------------------------------------------------------------------------
# splitting the end matrices


def _kept_rates(a_minus, a_plus):
    """The left end's plus rates with the right end's minus rates, the
    kernel basis at lambda = 0 of a front with these end matrices."""
    basis = oracles.basis(oracles.constant_front(a_minus, a_plus), 0.0)
    return basis.kappa, basis.k


def test_front_split_keeps_mixed_rates():
    kappa, k = _kept_rates(AM, AP)
    assert k == 1 and kappa.size == 2
    assert np.allclose(kappa, [2.0, -1.0])


def test_front_split_count_mismatch():
    """At lambda = 0 the left end keeps one unstable rate and the right
    end two (refused); at -1.5 both keep one (split)."""
    system = oracles.constant_front(AM, np.diag([1.0, 2.0]))
    for bases in (greens.end_bases, greens.system_bases):
        *_, refusals = bases(system, [0.0, -1.5])
        assert type(refusals[0]) is CountMismatch and refusals[1] is None
        assert str(refusals[0]) == ("unstable counts differ between the "
                                    "ends: 1 vs 2")
    with pytest.raises(CountMismatch):
        oracles.end_bases(system, 0.0)


def test_front_reference_is_companion_of_kept_rates():
    ref = fronts.reference_system(oracles.constant_front(AM, AP))
    assert np.max(np.abs(ref.base_matrix(0.0) - B_EXPECTED)) < 1e-12


def test_front_reference_from_profile(front_system):
    # the tanh step runs from -4 to -1, so at lambda = 0 the end rates
    # are +-2 and +-1 and the kept pair is (2, -1)
    minus, plus = oracles.end_bases(front_system, 0.0)
    assert np.allclose(minus.kappa, [2.0, -2.0])
    assert np.allclose(plus.kappa, [1.0, -1.0])
    # the system's kernel basis is this split, not the constant part's
    basis = oracles.basis(front_system, 0.0)
    assert basis.k == 1
    assert np.array_equal(basis.kappa, [minus.kappa[0], plus.kappa[1]])
    B = fronts.reference_system(front_system).base_matrix(0.0)
    assert np.max(np.abs(B - B_EXPECTED)) < 1e-12


def test_front_reference_rejects_coincident_rates():
    """The left end keeps two unstable rates at 1: the reference matrix
    refuses their singular Vandermonde frame."""
    system = oracles.constant_front(np.diag([1.0, 1.0, -1.0]),
                                    np.diag([3.0, 2.0, -2.0]))
    with pytest.raises(IllConditioned):
        fronts.reference_system(system).base_matrix(0.0)


@pytest.mark.parametrize("lam", [0.0, 2.0, 3.0 + 0.25j, 8.0])
def test_reference_matrix_is_the_kernel_basis(front_system, lam):
    """B(lambda) is P diag(kappa) P^-1 of the front's kernel basis bit for
    bit, so its eigenvalues are the kept rates."""
    basis = oracles.basis(front_system, lam)
    B = fronts.reference_system(front_system).base_matrix(lam)
    assert np.array_equal(
        B, basis.P @ (basis.kappa[:, None] * basis.Pinv))
    got = np.linalg.eigvals(B)
    assert np.allclose(got[np.argsort(-got.real)], basis.kappa,
                       rtol=1e-12, atol=1e-12)


def test_coincident_kept_rates_refuse_the_reference_frame():
    """Both ends keep two unstable rates and their frames are the identity,
    but the left end's two coincide: the kernel basis refuses the singular
    Vandermonde frame of the kept rates, while the end bases alone, which
    the Jost runs take, are clean."""
    system = oracles.constant_front(np.diag([1.0, 1.0, -1.0]),
                                    np.diag([3.0, 2.0, -2.0]))
    kappa, k, P, Pinv, refusals = greens.system_bases(system, [0.0])
    assert type(refusals[0]) is IllConditioned
    assert str(refusals[0]).startswith("basis matrix condition ")
    assert not (kappa.any() or k.any() or P.any() or Pinv.any())
    minus, plus = oracles.end_bases(system, 0.0)
    assert np.array_equal(minus.kappa, [1.0, 1.0, -1.0])
    assert np.array_equal(plus.kappa, [2.0, 3.0, -2.0])


def test_recentred_potential_jump_and_decay(front_system):
    Q = front_system.decaying_part
    jump = Q(0.0) - Q(1e-12)
    assert np.allclose(jump, front_system.r_plus - front_system.r_minus)
    assert np.max(np.abs(Q(18.0))) < 1e-12
    assert np.max(np.abs(Q(-18.0))) < 1e-12


# ---------------------------------------------------------------------------
# the regularized determinant


def test_front_det2_frozen_values(front_system, grid):
    want = {2.0: -0.5187858768889172,
            3.0: -0.09938847162067697,
            3.5: 0.04658918519493962}
    for lam, val in want.items():
        res = fredholm.det2(front_system, lam, grid)
        assert abs(res.value - val) < 1e-9


def test_front_det2_is_reference_system_det2(front_system, grid):
    """det2 of the front, whose kernel is the reference system's, is det2
    of the reference system to rounding: the public det2 and
    determinants_many of the front give its value and trace bit for
    bit."""
    ref = fronts.reference_system(front_system)
    assert not ref.is_front
    lams = (2.0, 3.0 + 0.25j, 2.0 + 1.0j)
    many = fredholm.determinants_many(front_system, lams, grid, {"det2": 2})
    for lam, (batched,) in zip(lams, many):
        res = fredholm.det2(front_system, lam, grid)
        b = fredholm.det2(ref, lam, grid).value
        assert abs(res.value - b) < 1e-12
        single = fredholm.det2(front_system, lam, grid)
        assert single.value == batched.value == res.value
        assert single.trace_used == batched.trace_used == res.trace_used


def test_front_det2_needs_panel_edge_at_zero(front_system):
    lopsided = wd.build_grid(20.0, 50)  # 5 panels, edges miss the origin
    with pytest.raises(ConfigError):
        fredholm.det2(front_system, 2.0, lopsided)
    with pytest.raises(ConfigError):
        fredholm.determinants_many(front_system, [2.0, 3.0], lopsided,
                                   {"det2": 2})
    with pytest.raises(ConfigError):
        fredholm.det2(front_system, 2.0 + 1.0j, lopsided)
    with pytest.raises(ConfigError):
        oracles.sign_traces(front_system, 2.0 + 1.0j, lopsided)
    with pytest.raises(ConfigError):
        oracles.trace_powers(front_system, 2.0 + 1.0j, lopsided)


def test_pulse_degeneration_is_exact(pt_system, grid):
    a = fredholm.det2(fronts.reference_system(pt_system), 4.0, grid).value
    b = fredholm.det2(pt_system, 4.0, grid).value
    assert a == b
    assert fronts.reference_system(pt_system) is pt_system


def test_front_basis_degenerates_on_pulses(pt, pt_system):
    """On a pulse the kernel basis is the constant part's root split, and
    so are both end bases."""
    fb = oracles.basis(pt_system, 4.0)
    kappa, k, _, _ = oracles.green_row(pt, 4.0)
    assert fb.k == k and np.array_equal(fb.kappa, kappa)
    for end in oracles.end_bases(pt_system, 4.0):
        assert all(np.array_equal(a, b) for a, b in zip(end, fb))


# ---------------------------------------------------------------------------
# what the zeros mean


def test_determinant_zero_matches_reference_evans(front_system, grid):
    """The front's det2 and the Evans function of the reference problem locate
    the same eigenvalue; this is the meaningful cross-check."""
    ref = fronts.reference_system(front_system)
    z_det = locate.refine_root(
        lambda lam: fredholm.det2(front_system, lam, grid).value,
        3.3, tol=1e-12)
    z_ev = locate.refine_root(
        lambda lam: wd.evans_function(ref, lam).ratio, 3.3, tol=1e-12)
    assert abs(z_det - 3.3279883217) < 1e-8
    assert abs(z_det - z_ev) < 1e-8


def test_reference_pairing_steps_across_the_jump(front_system):
    """Q jumps at x = 0; a Jost run whose stored points straddle 0 (the
    minus run to 0.35 has a segment [-0.62, 0.35]) must still step onto
    0, or det(Swinton) moves by ~1e-3 with the matching point."""
    ref = fronts.reference_system(front_system)
    for lam in (2.0, 3.0 + 1.0j):
        at0 = np.linalg.det(evans.swinton_matrix(ref, lam))
        off = np.linalg.det(evans.swinton_matrix(ref, lam,
                                                 matching_point=0.35))
        assert abs(at0 - off) < 1e-8 * abs(at0)


def test_front_spectrum_differs_from_reference(front_system, grid):
    """The original front's eigenvalue sits elsewhere.

    Swapping both ends for the single reference matrix changes the
    operator, and for this profile the bound state moves from about
    3.2277 (original, via the Evans function) to about 3.3280
    (reference, via the determinant).  Anyone using a front's det2 to locate
    eigenvalues of the front itself would be off by 0.1 here.
    """
    z_orig = locate.refine_root(
        lambda lam: wd.evans_function(front_system, lam).ratio,
        3.2, tol=1e-12)
    assert abs(z_orig - 3.2276704) < 1e-5
    z_det = locate.refine_root(
        lambda lam: fredholm.det2(front_system, lam, grid).value,
        3.3, tol=1e-12)
    assert abs(z_orig - z_det) > 0.05
