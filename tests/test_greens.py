"""Green's function representations: examples, cross-route oracles, invariants."""

import mpmath as mp
import numpy as np
import pytest

from wirescat import greens
from wirescat.errors import CoincidentPoints, DomainError, TruncationLimit
from wirescat.greens import (bragg_spectrum, convergence_benchmark, geometric_tail,
                             greens_diffraction, greens_free, greens_image,
                             greens_kummer, greens_kummer_grid, greens_semiclassical,
                             greens_spectral, greens_static, semiclassical_renorm_sum,
                             zeta_tail)
from wirescat.specfun import hankel1
from wirescat.waveguide import transverse_mode

mp.mp.dps = 30

KD = 2.5 * np.pi
R0 = (0.0, 0.3)
R = (0.37, 0.61)


# ---------------------------------------------------------------------------
# tail machinery oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", [0.1 * np.pi, 0.6 * np.pi, 1.9 * np.pi])
@pytest.mark.parametrize("s", [0.5, 3.0, 5.0])
def test_geometric_tail_vs_lerch(theta, s):
    m_trunc = 400
    z = np.exp(1j * theta)
    val, bound = geometric_tail(z, s, m_trunc)
    ref = complex(mp.e ** (1j * theta * (m_trunc + 1))
                  * mp.lerchphi(mp.e ** (1j * theta), s, m_trunc + 1))
    assert abs(val - ref) <= max(bound, 1e-15)
    # the slow s = 1/2 family (semiclassical diagnostic) needs less accuracy
    assert abs(val - ref) <= (1e-8 if s < 1.0 else 1e-12)


def test_zeta_tail_vs_mpmath():
    for s in (3.0, 5.0, 7.0):
        for m in (60, 500):
            assert abs(zeta_tail(s, m) - float(mp.zeta(s, m + 1))) <= 1e-16


# ---------------------------------------------------------------------------
# free-space form
# ---------------------------------------------------------------------------

def test_greens_free_value():
    # k|r-r0| = 1: -(i/2) H_0(1) with frozen J0(1), Y0(1)
    val = greens_free((1.0 / KD, 0.3), R0, KD)
    ref = -0.5j * (0.7651976865579666 + 0.08825696421567696j)
    assert val == pytest.approx(ref, abs=1e-13)


def test_greens_free_symmetry_and_small_argument():
    assert greens_free(R, R0, KD) == greens_free(R0, R, KD)
    # regular imaginary part: Im G_0 -> -J0(0)/2 = -1/2
    assert greens_free((1e-9, 0.3), R0, KD).imag == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(CoincidentPoints):
        greens_free(R0, R0, KD)


# ---------------------------------------------------------------------------
# static form
# ---------------------------------------------------------------------------

def test_static_matches_mode_sum():
    # independent oracle: the m-sum -(d/(m pi)) chi chi exp(-m pi |dx| / d), m <= 200
    r = (0.2, 0.61)
    m = np.arange(1, 201)
    oracle = float(np.sum(-(1.0 / (m * np.pi)) * transverse_mode(m, r[1])
                          * transverse_mode(m, R0[1]) * np.exp(-m * np.pi * 0.2)))
    assert greens_static(r, R0) == pytest.approx(oracle, abs=1e-12)


def test_static_wall_and_symmetry():
    assert greens_static((0.3, 0.0), R0) == 0.0
    assert abs(greens_static((0.3, 1.0), R0)) <= 1e-15
    a = greens_static((0.25, 0.6), (0.0, 0.3))
    b = greens_static((0.25, 0.4), (0.0, 0.7))
    assert a == pytest.approx(b, rel=1e-14)


def test_static_large_separation_guard():
    assert greens_static((1e4, 0.5), R0) == 0.0
    with pytest.raises(CoincidentPoints):
        greens_static(R0, R0)


# ---------------------------------------------------------------------------
# spectral / kummer / diffraction equivalence
# ---------------------------------------------------------------------------

def test_spectral_wall_value():
    assert abs(greens_spectral((0.4, 0.0), R0, KD, 500).value) == 0.0


def test_spectral_real_below_threshold():
    g = greens_spectral((0.3, 0.5), (0.0, 0.5), 0.5 * np.pi, 2000)
    assert abs(g.value.imag) == 0.0


def test_spectral_agrees_with_kummer():
    ref = greens_kummer(R, R0, KD, tol=1e-12).value
    assert abs(greens_spectral(R, R0, KD, 10**4).value - ref) <= 1e-8


def test_kummer_wall_and_reality():
    assert abs(greens_kummer((0.5, 0.0), R0, KD, 1e-12).value) <= 1e-12
    low = greens_kummer((0.4, 0.7), (0.0, 0.3), 0.5 * np.pi, 1e-12)
    assert abs(low.value.imag) <= 1e-12


def test_kummer_tail_bound_is_honest():
    ref = greens_kummer(R, R0, KD, tol=1e-13)
    loose = greens_kummer((0.001, 0.31), R0, KD, tol=1e-8)
    tight = greens_kummer((0.001, 0.31), R0, KD, tol=1e-12)
    assert abs(loose.value - tight.value) <= loose.tail_bound + tight.tail_bound + 1e-13
    assert ref.tail_bound <= 1e-13


def test_diffraction_identity_with_spectral():
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = (rng.uniform(0.1, 1.0) * rng.choice([-1, 1]), rng.uniform(0.02, 0.98))
        gd = greens_diffraction(r, R0, KD, tol=1e-12).value
        gs = greens_spectral(r, R0, KD, 4000).value
        assert abs(gd - gs) <= 1e-10
    with pytest.raises(DomainError):
        greens_diffraction((0.0, 0.6), R0, KD)


def test_reciprocity():
    for f in (lambda p, q: greens_kummer(p, q, KD, 1e-12).value,
              lambda p, q: greens_spectral(p, q, KD, 4000).value,
              lambda p, q: greens_diffraction(p, q, KD, 1e-12).value):
        assert abs(f(R, (0.2, 0.44)) - f((0.2, 0.44), R)) <= 1e-10


def test_kummer_coincidence_routed_away():
    with pytest.raises(CoincidentPoints):
        greens_kummer(R0, R0, KD)


def test_grid_evaluator_matches_scalar():
    xs = np.array([-0.4, 0.0, 0.015, 0.37])
    ys = np.array([0.2, 0.29, 0.299, 0.3, 0.31, 0.61])
    grid = greens_kummer_grid(xs, ys, R0, KD, tol=1e-12)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if (x, y) == R0:
                assert np.isnan(grid[i, j].real)
            else:
                ref = greens_kummer((x, y), R0, KD, tol=1e-12).value
                assert abs(grid[i, j] - ref) <= 1e-10


# ---------------------------------------------------------------------------
# image representation
# ---------------------------------------------------------------------------

def test_image_zero_images_is_free():
    g = greens_image(R, R0, KD, 0)
    assert g.value == greens_free(R, R0, KD)


def test_image_converges_slowly_but_surely():
    ref = greens_kummer(R, R0, KD, tol=1e-12).value
    err_belt = abs(greens_image(R, R0, KD, 10**4).value - ref)
    err_more = abs(greens_image(R, R0, KD, 10**5).value - ref)
    assert err_belt > 1e-3          # still poor at 1e4 images
    assert err_more <= 1e-3         # pairwise grouping reaches 1e-3 at 1e5
    wall = abs(greens_image((0.37, 0.0), R0, KD, 10**4).value)
    assert wall <= 1e-2 * abs(ref)


# ---------------------------------------------------------------------------
# coincidence constant
# ---------------------------------------------------------------------------

def test_coincidence_constant():
    euler = 0.5772156649015328606
    for kd, y0 in ((2.5 * np.pi, 0.3), (5.5 * np.pi, 0.47)):
        r0 = (0.0, y0)
        r = (1e-6, y0)
        lhs = greens_static(r, r0) - greens_free(r, r0, kd)
        rhs = -np.log((kd / np.pi) * np.sin(np.pi * y0)) / np.pi + 0.5j - euler / np.pi
        assert abs(lhs - rhs) <= 1e-8


# ---------------------------------------------------------------------------
# helmholtz residual
# ---------------------------------------------------------------------------

def test_helmholtz_stencil_second_order():
    x0, y0 = 0.45, 0.62
    def residual(h):
        c = greens_kummer((x0, y0), R0, KD, 1e-13).value
        xp = greens_kummer((x0 + h, y0), R0, KD, 1e-13).value
        xm = greens_kummer((x0 - h, y0), R0, KD, 1e-13).value
        yp = greens_kummer((x0, y0 + h), R0, KD, 1e-13).value
        ym = greens_kummer((x0, y0 - h), R0, KD, 1e-13).value
        return abs((xp + xm + yp + ym - 4 * c) / h**2 + KD**2 * c)
    r1, r2 = residual(2e-3), residual(1e-3)
    assert r1 / r2 == pytest.approx(4.0, rel=0.1)


# ---------------------------------------------------------------------------
# bragg spectrum
# ---------------------------------------------------------------------------

def test_bragg_spectrum_orders():
    # k*period = 4 pi puts order 2 exactly at grazing; restrict to |n| <= 1
    spec = bragg_spectrum(2.0, 2.0 * np.pi, n_max=1)
    i0 = list(spec.orders).index(0)
    assert spec.angles[i0] == 0.0
    i1 = list(spec.orders).index(1)
    assert spec.angles[i1].real == pytest.approx(np.pi / 6, rel=1e-12)  # arcsin(1/2)
    # detuned configuration with evanescent orders present
    k = 2.1
    spec = bragg_spectrum(k, 2.0 * np.pi)
    ev = np.abs(2.0 * np.pi * spec.orders) > k * 2.0 * np.pi
    assert ev.any()
    assert np.all(spec.angles[ev].imag > 0.0)
    assert np.all(spec.kx[ev].imag > 0.0)
    # sin(theta_n) reproduces the grating equation on every order
    assert np.allclose(k * np.sin(spec.angles), spec.ky, atol=1e-12)
    assert np.allclose(spec.weights, 1.0 / spec.kx, atol=0)


def test_bragg_grazing_guard():
    with pytest.raises(DomainError):
        bragg_spectrum(2.0, 2.0 * np.pi)             # order 2 exactly grazing
    with pytest.raises(DomainError):
        bragg_spectrum(1.0, 2.0 * np.pi)             # order 1 exactly grazing


# ---------------------------------------------------------------------------
# semiclassical representation
# ---------------------------------------------------------------------------

def test_semiclassical_single_term_vs_free():
    k = 1e3
    val = greens_semiclassical((1.0, 0.3), (0.0, 0.3), k, 0)
    ref = greens_free((1.0, 0.3), (0.0, 0.3), k)
    assert abs(val - ref) / abs(ref) <= 1e-3


def test_semiclassical_image_phases_centered():
    # centered impurity: image distances are j*d, relative phase e^{i(kd - pi) j}
    cfg_y0 = 0.5
    n = np.arange(-6, 7)
    ys = 2.0 * np.ceil(n / 2) + (-1.0) ** n * cfg_y0
    rho = np.abs(ys - cfg_y0)
    j = np.rint(rho).astype(int)
    kd = 3.0 * np.pi
    phases = np.exp(1j * (kd * rho - n * np.pi))
    mask = j > 0
    # kd = 3pi: (kd - pi) j = 2 pi j -> all contributions in phase
    assert np.max(np.abs(phases[mask] - np.exp(1j * kd * 0) * (-1.0) ** (0))) <= 1e-12 \
        or np.max(np.abs(phases[mask] - phases[mask][0])) <= 1e-12
    kd = 2.5 * np.pi
    phases = np.exp(1j * ((kd - np.pi) * j))
    dphi = np.angle(phases[j == 2][0] / phases[j == 1][0])
    assert abs(abs(dphi) - 1.5 * np.pi) <= 1e-12 or abs(abs(dphi) - 0.5 * np.pi) <= 1e-12


def test_semiclassical_warns_at_small_argument():
    with pytest.warns(RuntimeWarning):
        greens_semiclassical((0.05, 0.31), (0.0, 0.3), 2.0, 3)


def test_semiclassical_renorm_sum_tracks_exact():
    from wirescat.renorm import renorm_sum
    for kd in (2.5 * np.pi, 3.7 * np.pi, 8.3 * np.pi):
        exact = renorm_sum(kd, 0.5).g_r
        approx = semiclassical_renorm_sum(kd, 0.5)
        assert abs(approx - exact) <= 0.02 * max(abs(exact), 1.0)


# ---------------------------------------------------------------------------
# convergence benchmark
# ---------------------------------------------------------------------------

def test_benchmark_monotone_and_thresholds():
    rows = convergence_benchmark(R0, R0, KD, representations=("kummer",),
                                 term_grid=(30, 100, 300, 1000, 3000, 5000))
    errs = [r.error for r in rows]
    floor = 1e-13
    for a, b in zip(errs, errs[1:]):
        assert b <= a * (1 + 1e-6) + floor
    assert min(r.terms for r in rows if r.error <= 1e-10) <= 5000
    img = convergence_benchmark(R, R0, KD, representations=("image",), term_grid=(10**4,))
    assert img[0].error > 1e-3
    spec = convergence_benchmark((0.5, 0.61), R0, KD, representations=("spectral",),
                                 term_grid=(10, 30, 100))
    errs = [r.error for r in spec]
    assert errs[2] <= 1e-10
    for a, b in zip(errs, errs[1:]):
        assert b <= a * (1 + 1e-6) + floor


def test_benchmark_rejects_image_at_coincidence():
    with pytest.raises(CoincidentPoints):
        convergence_benchmark(R0, R0, KD, representations=("image",), term_grid=(10,))


def test_kummer_refuses_a_missed_tolerance():
    # on the axis the plan's mode cap cannot resolve points within ~1e-5 of
    # the source at tol = 1e-12; the miss is an error, not a silent value
    kd, r0 = 2.5 * np.pi, (0.0, 0.3)
    ok = greens_kummer((0.0, 0.3 + 1e-4), r0, kd, tol=1e-12)
    assert ok.tail_bound < 1e-12
    with pytest.raises(TruncationLimit):
        greens_kummer((0.0, 0.3 + 1e-7), r0, kd, tol=1e-12)


def test_kummer_meets_tol_just_off_the_axis():
    # below |x - x0| ~ 4e-5 the completion ignores the x decay and its size
    # is charged to the bound; the plan adds modes until that meets tol
    kd, r0, ax, y = 2.5 * np.pi, (0.0, 0.3), 3e-5, 0.5
    g = greens_kummer((ax, y), r0, kd, tol=1e-12)
    assert g.tail_bound < 1e-12
    # plain truncation converges here once m pi ax ~ 25: 2^18 modes
    ref = greens._kummer_truncated(kd, ax, y, r0[1], 2**18, completion=False)
    assert abs(g.value - ref) <= g.tail_bound
