"""Green's function representations: examples, cross-route oracles, invariants."""

import ast
import inspect
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirescat import greens, mirror, waveguide
from wirescat.errors import CoincidentPoints, DomainError, TruncationLimit
from wirescat.greens import (convergence_benchmark, geometric_tail, greens_diffraction,
                             greens_free, greens_image, greens_kummer, greens_kummer_grid,
                             greens_spectral, greens_static, semiclassical_renorm_sum,
                             zeta_tail)
from wirescat.renorm import renorm_sum
from wirescat.specfun import hankel1, hankel1_parts
from wirescat.waveguide import WireConfig, transverse_mode

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


def test_geometric_tail_refuses_z_equal_to_one():
    with pytest.raises(DomainError):
        geometric_tail(1.0 + 0.0j, 3.0, 100)
    with pytest.raises(DomainError):
        geometric_tail(np.exp(1j * np.array([0.5, 0.0, 2.0])), 3.0, 100)


def _bits(z):
    """The raw bits of the real and imaginary parts, so that signs of zero count."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag]).view(np.uint64)


def test_cdiv_is_python_complex_division_bit_for_bit():
    rng = np.random.default_rng(17)
    n = 50000

    def parts():
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
    p, q = parts() + 1j * parts(), parts() + 1j * parts()
    q.imag[:2000] = rng.choice([-1.0, 1.0], 2000) * q.real[:2000]      # |re| = |im| ties
    for z in (p, q):                                                   # +-0 parts, q != 0
        z.real[2000:3000] = rng.choice([0.0, -0.0], 1000)
        z.imag[3000:4000] = rng.choice([0.0, -0.0], 1000)
    want = [complex(a) / complex(b) for a, b in zip(p.tolist(), q.tolist())]
    assert np.array_equal(_bits(greens._cdiv(p, q)), _bits(want))
    assert np.array_equal(_bits(greens._cdiv(1.0, q)), _bits([1.0 / b for b in q.tolist()]))
    # a lone pair is a batch of one
    lone = [greens._cdiv(a, b) for a, b in zip(p[:3000:7].tolist(), q[:3000:7].tolist())]
    assert np.array_equal(_bits(lone), _bits(want[:3000:7]))


def _tails(kd, m, alpha, beta, z, s, shift):
    """Every tail function at (kd, M, alpha, beta, z), as float parts."""
    value, bound = geometric_tail(z, s, m, shift)
    coefs = greens.kummer_tail_coefficients(kd)
    return [*greens.mode_product_tail(coefs, m, alpha, beta), greens._closed_form_bound(coefs, m, alpha, beta),
            *greens._cos_tail(beta, s, m), greens._abel_gap6(alpha), zeta_tail(s, m, shift),
            np.real(value), np.imag(value), bound]


# flat angles (0 mod 2 pi within 1e-9) take the zeta branch, next to angles that do not
_tail_angles = st.one_of(st.sampled_from([0.0, 2.0 * np.pi, 1e-10, -1e-10]), st.floats(-7.0, 7.0))
_tail_elements = st.tuples(st.floats(0.5, 100.0),                                         # kd
                           st.one_of(st.sampled_from([64, 65536]), st.integers(64, 65536)),  # M
                           _tail_angles, _tail_angles)                                    # alpha, beta


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_tail_elements, min_size=1, max_size=8), st.sampled_from([0.5, 3.0, 5.0]),
       st.floats(-0.5, 0.5))
def test_tails_of_a_batch_are_the_tails_of_each_element(elements, s, shift):
    kd, m, alpha, beta = (np.array(v) for v in zip(*elements))
    # geometric_tail needs z != 1: a flat alpha becomes angle 1 there
    z = np.exp(1j * np.where(np.abs(np.exp(1j * alpha) - 1.0) < 1e-6, 1.0, alpha))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = _tails(kd, m, alpha, beta, z, s, shift)
        lone = [_tails(*e, zi, s, shift) for e, zi in zip(elements, z.tolist())]
    for i, column in enumerate(zip(*lone)):
        assert np.asarray(batch[i]).tobytes() == np.array(column).tobytes(), i


# ---------------------------------------------------------------------------
# domain checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda: greens_kummer_grid([np.nan], [0.5], R0, KD),
    lambda: greens_kummer_grid([np.inf], [0.5], R0, KD),
    lambda: greens_kummer_grid([0.1], [np.nan], R0, KD),
    lambda: greens_kummer_grid([0.1], [0.5], (0.0, np.nan), KD),
    lambda: greens_kummer_grid([0.1], [0.5], (np.nan, 0.3), KD),
    lambda: greens_kummer((np.nan, 0.5), R0, KD),
    lambda: greens_spectral((np.nan, 0.5), R0, KD, 100),
    lambda: greens_spectral((np.inf, 0.5), R0, KD, 100),
    lambda: greens_diffraction((np.nan, 0.5), R0, KD),
    lambda: semiclassical_renorm_sum(KD, np.nan),
    lambda: semiclassical_renorm_sum(KD, 0.0),
    lambda: transverse_mode(1, np.nan),
    lambda: mirror.mirror_s((np.nan, 0.5), KD, WireConfig(y0=0.3)),
    lambda: mirror.mirror_s((np.inf, 0.5), KD, WireConfig(y0=0.3)),
    lambda: mirror.mirror_partial("px", (np.nan, 0.5), KD, WireConfig(y0=0.3)),
    lambda: mirror.mirror_partial("f", (-np.inf, 0.5), KD, WireConfig(y0=0.3)),
    lambda: mirror.mirror_s_plus((0.2, np.nan), KD, WireConfig(y0=0.3)),
], ids=["grid-x-nan", "grid-x-inf", "grid-y-nan", "grid-y0-nan", "grid-x0-nan", "kummer-x-nan",
        "spectral-x-nan", "spectral-x-inf", "diffraction-x-nan", "semiclassical-y0-nan",
        "semiclassical-y0-wall", "transverse-mode-y-nan", "mirror-s-x-nan", "mirror-s-x-inf",
        "mirror-px-x-nan", "mirror-f-x-inf", "mirror-s-plus-y-nan"])
def test_a_non_finite_coordinate_is_a_domain_error(call):
    # never a silent NaN, nor a truncation error after a futile doubling
    with pytest.raises(DomainError):
        call()


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


@pytest.mark.parametrize("kd", [190.0, 199.0, 250.0, 300.0])
@pytest.mark.parametrize("ax", [0.05, 0.3, 1.0])
def test_kummer_bound_is_honest_while_modes_open(kd, ax):
    # past kd ~ 177 the modes just above M = 64 are open or barely decay:
    # the plan must double past them, not claim a tiny bound
    r, r0 = (ax, 0.41), (0.0, 0.3)
    g = greens_kummer(r, r0, kd, tol=1e-10)
    ref = greens_diffraction(r, r0, kd, tol=1e-14)
    assert abs(g.value - ref.value) <= g.tail_bound + 1e-13


def test_diffraction_identity_with_spectral():
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = (rng.uniform(0.1, 1.0) * rng.choice([-1, 1]), rng.uniform(0.02, 0.98))
        gd = greens_diffraction(r, R0, KD, tol=1e-12).value
        gs = greens_spectral(r, R0, KD, 4000).value
        assert abs(gd - gs) <= 1e-10
    with pytest.raises(DomainError):
        greens_diffraction((0.0, 0.6), R0, KD)


def test_diffraction_refuses_a_missed_tolerance():
    # at |x - x0| = 1e-6 even the order cap leaves a tail bound of ~0.2: an
    # error, not a value whose bound misses tol
    with pytest.raises(TruncationLimit, match="grating sum"):
        greens_diffraction((1e-6, 0.5), R0, KD, tol=1e-12)
    assert greens_diffraction((0.05, 0.5), R0, KD, tol=1e-12).tail_bound < 1e-12


def test_reciprocity():
    for f in (lambda p, q: greens_kummer(p, q, KD, 1e-12).value,
              lambda p, q: greens_spectral(p, q, KD, 4000).value,
              lambda p, q: greens_diffraction(p, q, KD, 1e-12).value):
        assert abs(f(R, (0.2, 0.44)) - f((0.2, 0.44), R)) <= 1e-10


def test_kummer_coincidence_routed_away():
    with pytest.raises(CoincidentPoints):
        greens_kummer(R0, R0, KD)


def test_grid_evaluator_matches_scalar():
    for xs, ys in (([-0.4, 0.0, 0.015, 0.37], [0.2, 0.29, 0.299, 0.3, 0.31, 0.61]),
                   # x = x0 +- 3e-5: the points of one column take 4096 to 32768 modes
                   ([-3e-5, 3e-5], [0.2, 0.29, 0.31, 0.61])):
        grid = greens_kummer_grid(xs, ys, R0, KD, tol=1e-12)
        for i, x in enumerate(xs):
            terms = set()
            for j, y in enumerate(ys):
                if (x, y) == R0:
                    assert np.isnan(grid[i, j].real)
                else:
                    ref = greens_kummer((x, y), R0, KD, tol=1e-12)
                    terms.add(ref.terms_used)
                    assert abs(grid[i, j] - ref.value) <= 1e-10
            if abs(x) == 3e-5:
                assert len(terms) > 1


def _on_axis_mode_sum(kd, y, y0, m_max=2 ** 19, block=2 ** 16):
    """G_w(x0, y; x0, y0) with d = 1 from its own formulas: the Kummer-subtracted
    terms chi_m(y) chi_m(y0) [1/(i k_x) + 1/(m pi)], whose remainder past m_max is
    O(kd^2 / m_max^2), plus the on-axis static form in mpmath."""
    total = 0j
    for lo in range(1, m_max + 1, block):
        m = np.arange(lo, lo + block, dtype=float)
        kx = np.sqrt((kd ** 2 - (m * np.pi) ** 2).astype(complex))
        total += np.sum(2.0 * np.sin(m * np.pi * y) * np.sin(m * np.pi * y0)
                        * (1.0 / (1j * kx) + 1.0 / (m * np.pi)))
    static = mp.log(mp.sin(mp.pi * (y - y0) / 2) ** 2 / mp.sin(mp.pi * (y + y0) / 2) ** 2) / (2 * mp.pi)
    return total + float(static)


def test_grid_on_axis_column_matches_an_independent_mode_sum():
    # the x = x0 column mixes 256 to 32768 modes, and shares them with an off-axis column
    ys = [0.0, 0.29, 0.299, 0.31, 0.61]
    grid = greens_kummer_grid([0.0, 0.37], ys, R0, KD, tol=1e-12)
    assert len({greens_kummer((0.0, y), R0, KD, tol=1e-12).terms_used for y in ys}) > 2
    for j, y in enumerate(ys):
        assert abs(grid[0, j] - _on_axis_mode_sum(KD, y, R0[1])) <= 1e-12, y


def test_grid_memory_is_bounded():
    # the columns at x = x0 +- 1e-4 take 131072 modes; the product is blocked
    # over modes, where one (modes x ys) product per column traced ~130 MB
    args = ((-1e-4, 0.0, 1e-4), np.linspace(0.0, 1.0, 41), (0.0, 0.5), 2.5 * np.pi, 1e-10)
    greens_kummer_grid((0.3,), (0.2,), *args[2:])
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        grid = greens_kummer_grid(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert np.isnan(grid[1, 20]) and np.isfinite(np.delete(grid.ravel(), 61)).all()
    assert peak < 16 * 2 ** 20, peak


_grid_kd = st.floats(0.5, 40.0).filter(lambda kd: abs(kd - np.pi * round(kd / np.pi)) > 1e-6)
_signed = st.sampled_from([-1.0, 1.0])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_grid_kd, st.floats(0.05, 0.95),
       st.lists(st.tuples(st.floats(1e-5, 1e-3), _signed), min_size=1, max_size=2),
       st.lists(st.tuples(st.floats(0.05, 1.5), _signed), min_size=1, max_size=2),
       st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), max_size=2),
       st.lists(st.tuples(st.floats(1e-4, 1e-3), _signed), min_size=1, max_size=2))
def test_grid_value_is_the_value_of_its_lone_point(kd, y0, near_x0, far, ys, near_y0):
    # points that share a mode count are summed together, whatever their column;
    # on and near the axis a column mixes counts close to y0, and none of its
    # points may see another point's modes, completion or static form
    xs = [0.0] + [sign * ax for ax, sign in near_x0 + far]
    ys = ys + [y0 + sign * dy for dy, sign in near_y0] + [y0]
    grid = greens_kummer_grid(xs, ys, (0.0, y0), kd, tol=1e-8)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            lone = greens_kummer_grid([x], [y], (0.0, y0), kd, tol=1e-8)[0, 0]
            if x == 0.0 and y == y0:
                assert np.isnan(grid[i, j]) and np.isnan(lone)
            else:
                assert abs(grid[i, j] - lone) <= 1e-14 * max(1.0, abs(lone)), (x, y)


# rows of 64 to 32,768 modes; the x = x0 row mixes 256 to 32,768 modes next to r0, which is on the grid
_MIXED_XS = [0.0, -0.0025, 1e-3, 0.05, 0.37, -1.2]
_MIXED_YS = [0.0, 0.2, 0.29, 0.299, 0.3, 0.31, 0.61, 1.0]


def test_a_grid_of_mixed_mode_counts_is_its_lone_points():
    # one pass over the modes sums each point to its own count: no point sees another's modes
    grid = greens_kummer_grid(_MIXED_XS, _MIXED_YS, R0, KD, tol=1e-12)
    counts = {}
    for i, x in enumerate(_MIXED_XS):
        for j, y in enumerate(_MIXED_YS):
            if (x, y) == R0:
                continue
            lone = greens_kummer((x, y), R0, KD, tol=1e-12)
            counts.setdefault(x, set()).add(lone.terms_used)
            assert abs(grid[i, j] - lone.value) <= 1e-14 * max(1.0, abs(lone.value)), (x, y)
    assert np.argwhere(np.isnan(grid.real) | np.isnan(grid.imag)).tolist() == [[0, 4]]
    assert counts[0.0] == {256, 512, 4096, 32768}
    assert min(map(min, counts.values())) == 64 and max(map(max, counts.values())) >= 4096


def _spied(monkeypatch, name):
    """Replace greens.<name> by a wrapper; returns the list of its calls' arguments."""
    calls, fn = [], getattr(greens, name)

    def spy(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(greens, name, spy)
    return calls


def test_a_grid_evaluates_each_mode_once(monkeypatch):
    # chi_m(ys) and chi_m(y0) of every mode up to the grid's largest count, once each, in order
    calls = _spied(monkeypatch, "_chi")
    greens_kummer_grid(_MIXED_XS, _MIXED_YS, R0, KD, tol=1e-12)
    for at_ys in (True, False):
        modes = np.concatenate([m for m, y in calls if (np.ndim(y) > 0) == at_ys])
        assert modes.tolist() == list(range(1, 32768 + 1))


@pytest.mark.parametrize("on_grid, elements", [(False, 400), (True, 400 * 100)], ids=["r0-off-grid", "r0-on-grid"])
def test_the_geometric_plan_runs_on_the_grid_column(monkeypatch, on_grid, elements):
    # the geometric bound reads kd and |x - x0| alone: one element per x, unless r0 is a grid point
    calls = _spied(monkeypatch, "_geometric_mode_tail_bound")
    xs, ys = np.linspace(-1.0, 1.0, 400), np.linspace(0.0, 1.0, 100)
    if on_grid:
        xs[0] = 0.0
    grid = greens_kummer_grid(xs, ys, (0.0, ys[30]), KD, tol=1e-10)
    assert np.isnan(grid).sum() == on_grid
    assert max(np.broadcast(*args).size for args in calls) == elements


@pytest.mark.parametrize("r, k, tol", [
    ((0.37, 0.61), KD, 1e-12), ((-1.9, 0.2), KD, 1e-10), ((2.0, 1.0), 9.7 * np.pi, 1e-8),
    ((0.0, 0.61), KD, 1e-12), ((0.0, 0.3 + 1e-4), KD, 1e-12), ((3e-5, 0.5), KD, 1e-12),
    ((-0.0025, 0.5), KD, 1e-12), ((1e-3, 0.0), 40.0, 1e-10),
], ids=["off", "far", "far-wall", "axis", "axis-near-source", "near-axis", "near-axis-left", "near-wall"])
def test_lone_value_is_the_one_point_grid_bit_for_bit(r, k, tol):
    # greens_kummer sums one pair (_kummer_truncated) and the grid each mode count of a grid
    # (_kummer_sum): both drivers form the same blocks, so a lone point is a 1 x 1 grid
    lone = greens_kummer(r, R0, k, tol).value
    grid = greens_kummer_grid([r[0]], [r[1]], R0, k, tol)[0, 0]
    assert np.complex128(lone).tobytes() == np.complex128(grid).tobytes()


# mode counts of the scalar plan that the elementwise one replaced: it must keep every one
@pytest.mark.parametrize("k, y0, terms", [
    # mode_product_tail's own bound passes at 256 modes here (4.1e-13 <
    # 1e-12); the closed-form estimate decides, and it asks for 512
    (np.pi / 2, 0.0345, 512),
    (40.0, 0.5, 1024),
    (7.3, 1e-4, 65536),
    # the cap ends the doubling, not the count: 4N = 6,364 doubles past 65,536 to 101,824
    # modes, where the bound (4.8e-13) meets 1e-12
    (5000.1, 0.013, 101824),
])
def test_renorm_mode_counts_are_frozen(k, y0, terms):
    assert renorm_sum(k, y0).terms_used == terms


def test_the_kummer_cap_ends_the_doubling_not_the_count():
    # 4N = 25,464 doubles past the 65,536 cap to 101,856 modes, where the bound still misses tol
    with pytest.raises(TruncationLimit, match="with 101856 modes misses"):
        renorm_sum(20000.37, 0.3)


@pytest.mark.parametrize("r, k, tol, terms", [
    ((0.37, 0.61), KD, 1e-12, 64),
    ((0.0, 0.61), KD, 1e-12, 256),
    ((3e-5, 0.5), KD, 1e-12, 16384),
    ((0.0025, 0.5), KD, 1e-12, 4096),
    ((1e-3, 0.0), 40.0, 1e-10, 8192),
])
def test_kummer_mode_counts_are_frozen(r, k, tol, terms):
    assert greens_kummer(r, R0, k, tol).terms_used == terms


_near_opening = st.builds(lambda n, sign, eps: n * np.pi + sign * eps, st.integers(1, 30),
                          st.sampled_from([-1.0, 1.0]), st.floats(1e-8, 1e-6))
_plan_points = st.tuples(
    st.one_of(_near_opening, st.floats(0.5, 100.0)),                                    # kd
    st.one_of(st.just(0.0), st.floats(1e-5, 4e-5), st.floats(1e-3, 1.0)),               # ax
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),                        # y
    st.one_of(st.floats(1e-6, 1e-3), st.floats(1.0 - 1e-3, 1.0 - 1e-6), st.floats(0.01, 0.99)))  # y0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_plan_points, min_size=1, max_size=6), st.sampled_from([1e-12, 1e-10, 1e-8]))
def test_plan_over_an_array_is_the_plan_of_each_element(points, tol):
    lone = []
    for kd, ax, y, y0 in points:
        try:
            lone.append(tuple(v.item() for v in greens._kummer_plan(kd, ax, tol, y, y0)))
        except TruncationLimit as exc:
            lone.append(str(exc))
    failed = [p for p in lone if isinstance(p, str)]
    kd, ax, y, y0 = np.array(points).T
    if failed:
        with pytest.raises(TruncationLimit) as info:
            greens._kummer_plan(kd, ax, tol, y, y0)
        assert str(info.value) == failed[0]
    else:
        m_trunc, completion, bound = greens._kummer_plan(kd, ax, tol, y, y0)
        assert list(zip(m_trunc.tolist(), completion.tolist(), bound.tolist())) == lone


_SWEEP_KD = np.linspace(0.5 * np.pi, 7.5 * np.pi, 2000)


@pytest.mark.parametrize("kd,y0", [
    (_SWEEP_KD, 0.3),                                                   # one sweep: 2,000 kd at one y0
    (_SWEEP_KD[::10, None], np.array([0.3, 0.05, 0.3, 0.71, 0.05])),   # a (kd, y0) grid, y0 repeated
])
def test_plan_of_a_sweep_is_its_lone_plans_with_tails_once_per_key(monkeypatch, kd, y0):
    keys = []   # distinct (M, alpha, beta) of each tail call the plan makes
    rows = []   # (elements along the key axis, keys of the enclosing tail call) per inner call

    def outer(fn):
        def spy(kd, m_trunc, alpha, beta):
            bits = np.stack([np.asarray(v, dtype=float) for v in np.broadcast_arrays(m_trunc, alpha, beta)])
            keys.append(np.unique(bits.reshape(3, -1).view(np.uint64), axis=1).shape[1])
            return fn(kd, m_trunc, alpha, beta)
        return spy

    def inner(fn):
        def spy(*args, **kwargs):
            shape = np.broadcast_shapes(*(np.shape(a) for a in (*args, *kwargs.values())))
            rows.append((shape[-1] if shape else 1, keys[-1]))
            return fn(*args, **kwargs)
        return spy

    for name in ("mode_product_tail", "_closed_form_bound"):
        monkeypatch.setattr(greens, name, outer(getattr(greens, name)))
    for name in ("zeta_tail", "geometric_tail"):
        monkeypatch.setattr(greens, name, inner(getattr(greens, name)))
    m_trunc, completion, bound = greens._kummer_plan(kd, 0.0, 1e-12, y0, y0)
    monkeypatch.undo()
    assert rows and all(n <= n_keys for n, n_keys in rows)
    doublings = int(np.log2(m_trunc.max() / 256)) + 1   # every M starts at 256 for kd <= 7.5 pi
    assert max(keys) <= np.unique(y0).size * doublings < m_trunc.size / 10
    y0 = np.broadcast_to(y0, m_trunc.shape)
    for i in list(range(0, m_trunc.size, 37)) + [m_trunc.size - 1]:
        at = np.unravel_index(i, m_trunc.shape)
        lone = greens._kummer_plan(np.broadcast_to(kd, m_trunc.shape)[at], 0.0, 1e-12, y0[at], y0[at])
        assert [v.item() for v in lone] == [m_trunc[at].item(), completion[at].item(), bound[at].item()], at


def test_lone_plans_and_tails_sort_no_keys(monkeypatch):
    def lexsort(keys):
        raise AssertionError("a lone element was sorted")
    monkeypatch.setattr(np, "lexsort", lexsort)
    greens._kummer_plan(7.5, 0.0, 1e-12, 0.3, 0.3)          # G_r: the m^-3 completion
    greens._kummer_plan(KD, 3e-5, 1e-12, 0.5, 0.3)          # near the axis: the charged bound too
    greens.mode_product_tail(greens.kummer_tail_coefficients(np.array([KD])), np.array([256]), 0.1, 0.7)
    greens._closed_form_bound(greens.kummer_tail_coefficients(KD), 256, 0.1, 0.7)


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


def _alternating_sums_by_power(r, r0, k, counts, include_source=True):
    """The image sums with (-1)^n as a float power and every count paired afresh."""
    top = max(counts)
    n = np.arange(-top, top + 1)
    rho = np.hypot(r[0] - r0[0], r[1] - (2.0 * np.ceil(n / 2) + (-1.0) ** n * r0[1]))
    live = (n != 0) | include_source
    t = np.zeros(len(n), dtype=complex)
    t[live] = ((-1.0) ** n[live]) * (-0.5j) * hankel1(0, k * rho[live])

    def paired(arr):
        half = len(arr) // 2
        head = arr[: 2 * half].reshape(half, 2).sum(axis=1).sum() if half else 0.0
        return head + arr[2 * half:].sum()
    return [t[top] + paired(t[top + 1:][:c]) + paired(t[:top][::-1][:c]) for c in counts]


@pytest.mark.parametrize("r,r0,include_source", [
    (R, R0, True),                   # off the axis
    ((0.0, 0.61), R0, True),         # on the axis, x = x0
    (R0, R0, False),                 # at the source, which is left out
])
@pytest.mark.parametrize("k", [KD, 7.3, 30.0])
def test_image_sums_are_the_float_power_sums_bit_for_bit(r, r0, include_source, k):
    counts = [0, 1, 2, 3, 10, 31, 100, 301, 1000, 3000]
    got = greens._alternating_sums(r, r0, k, counts, include_source)
    assert np.array_equal(_bits(got), _bits(_alternating_sums_by_power(r, r0, k, counts, include_source)))


# image sums of bench-shaped pairs at 10, 1,000 and 10,000 images, as evaluated through
# hankel1 and a complex term array before the image sum took J_0 and Y_0 straight
_FROZEN_IMAGE_SUMS = [
    ((0.41, 0.83), (0.0, 0.27), 13.7, True,
     [("0x1.01aec133ab0a6p-4", "0x1.cf85948036c19p-4"), ("0x1.1f47f2e8f1f03p-4", "0x1.d8abb5d1be7fcp-4"),
      ("0x1.1e63353d9b307p-4", "0x1.d5d6450ca7046p-4")]),
    ((0.0, 0.12), (0.0, 0.66), 27.9, True,
     [("-0x1.9a96bea57625ep-7", "0x1.4f068af3d18fep-9"), ("0x1.c1e2d738e6290p-8", "-0x1.08a3f2870136bp-7"),
      ("0x1.2d56c276c9a9ap-7", "-0x1.0e240bb2b450bp-7")]),
    ((-0.63, 0.05), (0.0, 0.94), 4.4, True,
     [("0x1.49b106d00db30p-7", "0x1.199b8816a63dep-4"), ("0x1.d08c3f0d4ef9ep-7", "0x1.5187d4fab1620p-8"),
      ("0x1.6d60076bebfc3p-6", "0x1.01816320ffe5cp-7")]),
    ((0.0, 0.35), (0.0, 0.35), 21.3, False,
     [("-0x1.80b46e63d092cp-3", "0x1.63051ae60ebe3p-4"), ("-0x1.6560792cae934p-3", "0x1.408f02d95016ep-3"),
      ("-0x1.6a1d445f1b645p-3", "0x1.4ac7845949cb6p-3")]),
]


@pytest.mark.parametrize("r,r0,k,include_source,frozen", _FROZEN_IMAGE_SUMS, ids=["off", "on", "near-wall", "no-source"])
def test_image_sums_are_frozen_bit_for_bit(r, r0, k, include_source, frozen):
    got = greens._alternating_sums(r, r0, k, [10, 1000, 10000], include_source)
    assert [(float(v.real).hex(), float(v.imag).hex()) for v in got] == frozen


def test_image_sum_holds_few_full_size_arrays(traced_peak):
    # 10,000 images a side (20,001 terms, a few of them below the Bessel switchover): 11.3
    # arrays of that size at the peak, 20.4 when the sum went through hankel1's complex H
    full = (2 * 10000 + 1) * 8
    assert traced_peak(lambda: greens._alternating_sums(R, R0, KD, [10, 1000, 10000])) <= 12 * full


def _is_minus_one_float(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node, sign = node.operand, -1.0
    else:
        sign = 1.0
    return isinstance(node, ast.Constant) and type(node.value) is float and sign * node.value == -1.0


@pytest.mark.parametrize("module", [greens, waveguide])
def test_image_signs_are_parities_not_float_powers(module):
    # (-1.0) ** n costs a C pow per image; the parity gives the same exact +-1
    powers = [node.lineno for node in ast.walk(ast.parse(inspect.getsource(module)))
              if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and _is_minus_one_float(node.left))
              or (isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("power", "float_power")
                  and node.args and _is_minus_one_float(node.args[0]))]
    assert powers == []


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
# semiclassical G_r
# ---------------------------------------------------------------------------

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


def _row_by_row(r, r0, kd, reps, grid):
    """convergence_benchmark with every row from its own one-count call, in request order.

    Returns [(representation, terms, value)] and the reference value.
    """
    for rep in reps:
        if rep not in ("kummer", "kummer_raw", "spectral", "image", "diffraction"):
            raise DomainError(f"benchmark does not support representation {rep!r}")
    greens._check_strip((r[0], r0[0]), (r[1], r0[1]))
    if len(grid) == 0 or not all(greens._integer_in(t, 0) for t in grid):
        raise DomainError(f"term_grid must be a non-empty sequence of integers >= 0, got {grid!r}")
    if {"kummer", "kummer_raw"} & set(reps):
        waveguide._covered_open_count(kd, min(grid), "terms")
    else:
        waveguide.guard_mode_openings(kd)
    ax, y, y0 = abs(float(r[0]) - float(r0[0])), float(r[1]), float(r0[1])
    angles, coefs = greens._mode_angles(y, y0), greens.kummer_tail_coefficients(kd)
    if ax == 0.0 and y == y0:
        bad = set(reps) - {"kummer", "kummer_raw"}
        if bad:
            raise CoincidentPoints(f"only the kummer forms exist at coincidence, not {sorted(bad)}")
        ref = greens._kummer_truncated(kd, ax, y, y0, 65536, greens.mode_product_tail(coefs, 65536, *angles)[0])
    else:
        ref = greens_kummer(r, r0, kd, tol=1e-12).value
    one_count = {
        "kummer": lambda t: greens._kummer_truncated(kd, ax, y, y0, t, greens.mode_product_tail(coefs, t, *angles)[0]),
        "kummer_raw": lambda t: greens._kummer_truncated(kd, ax, y, y0, t, 0.0),
        "spectral": lambda t: greens_spectral(r, r0, kd, t).value,
        "image": lambda t: greens_image(r, r0, kd, t).value,
        "diffraction": lambda t: greens_diffraction(r, r0, kd, tol=1e-14).value,
    }
    rows = []
    for rep in reps:
        rows += [(rep, t, one_count[rep](t)) for t in grid]
    return rows, ref


def _assert_rows_are_one_count_values(r, r0, kd, reps, grid):
    try:
        expected, ref = _row_by_row(r, r0, kd, reps, grid)
    except Exception as exc:  # noqa: BLE001  (the benchmark must raise the same)
        with pytest.raises(type(exc)) as got:
            convergence_benchmark(r, r0, kd, reps, grid)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    rows = convergence_benchmark(r, r0, kd, reps, grid)
    assert [(b.representation, b.terms) for b in rows] == [(rep, t) for rep, t, _ in expected]
    for b, (rep, t, value) in zip(rows, expected):
        if rep in ("kummer", "kummer_raw"):
            assert abs(b.error - abs(value - ref)) <= 1e-14 * max(1.0, abs(value)), (rep, t)
        else:  # image, spectral and diffraction rows are their one-count values bit for bit
            assert b.error == float(abs(value - ref)), (rep, t)


_CASE_REPS = {"off": ("spectral", "image", "kummer", "kummer_raw", "diffraction"),
              "on": ("spectral", "image", "kummer", "kummer_raw"),
              "coincident": ("kummer", "kummer_raw")}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kd=st.floats(1.1 * np.pi, 9.9 * np.pi), case=st.sampled_from(sorted(_CASE_REPS)),
       x=st.floats(-0.8, 0.8).filter(lambda v: abs(v) >= 0.05),
       y=st.floats(0.05, 0.95), y0=st.floats(0.05, 0.95),
       grid=st.lists(st.sampled_from([0, 10, 30, 100, 300, 1000]), min_size=1, max_size=5),
       data=st.data())
def test_benchmark_rows_are_the_one_count_values(kd, case, x, y, y0, grid, data):
    # one evaluation per representation, rows as prefix sums: the same rows, in request
    # order, as one call per row; grids are unsorted, repeat counts and may hold 0
    reps = data.draw(st.permutations(_CASE_REPS[case]))[:data.draw(st.integers(1, len(_CASE_REPS[case])))]
    r = {"off": (x, y), "on": (0.0, y), "coincident": (0.0, y0)}[case]
    _assert_rows_are_one_count_values(r, (0.0, y0), kd, reps, grid)


@pytest.mark.parametrize("x", [0.06, 0.2, 0.37, 0.8])
def test_benchmark_rows_past_the_live_modes_are_the_one_count_values(x):
    # at |x - x0| = 0.06 the last nonzero term (m ~ 3,950) sits in the first 4,096-mode block of
    # the Kummer sum, which the pair's table cuts short
    _assert_rows_are_one_count_values((x, 0.61), R0, KD, _CASE_REPS["off"], (10, 30, 100, 300, 1000, 3000, 10000))


@pytest.mark.parametrize("r,r0,kd,reps,grid", [
    ((0.3, 1.5), R0, KD, ("spectral", "kummer"), (10, 100)),
    ((0.3, np.nan), R0, KD, ("spectral", "kummer"), (10, 100)),
    ((0.0, -0.2), (0.0, -0.2), KD, ("kummer", "kummer_raw"), (10, 100)),
    ((0.3, 0.45), R0, 3 * np.pi + 1e-10, ("spectral", "kummer"), (10, 100)),
    ((0.0, 0.45), (0.0, 0.45), -1.0, ("kummer", "kummer_raw"), (10, 100)),
    (R, R0, KD, ("kummer",), (10, 30.5)),
    (R, R0, KD, ("kummer",), ()),
    (R, R0, KD, ("spectral",), (10, 1, 0)),
    (R, R0, KD, ("image", "spectral"), (0, 10, 1)),
    (R, R0, KD, ("kummer", "spectral"), (10, 1, 0)),
    (R, R0, KD, ("image", "bogus", "spectral"), (0, 1)),
    (R, R0, KD, ("spectral", "bogus"), (10, 30)),
    ((0.0, 0.61), R0, KD, ("image", "diffraction", "spectral"), (10, 0)),
    (R0, R0, KD, ("kummer", "image"), (10,)),
    ((0.0, 0.3 + 1e-7), R0, KD, ("image",), (10,)),
], ids=["y=1.5", "y=nan", "coincident-y=-0.2", "kd=3pi+1e-10", "coincident-kd=-1", "terms=30.5",
        "no-terms", "spectral-first-bad-count", "image-then-spectral", "kummer-min-count", "unknown-rep",
        "unknown-rep-last", "diffraction-on-axis", "image-at-coincidence", "reference-misses-tol"])
def test_benchmark_refuses_what_row_by_row_refuses(r, r0, kd, reps, grid):
    # the same exception, with the same message, for the same representation first
    _assert_rows_are_one_count_values(r, r0, kd, reps, grid)


def test_benchmark_calls_hankel1_once_per_image_representation(monkeypatch):
    sizes = []  # the image sum takes J_0 and Y_0 as hankel1_parts
    monkeypatch.setattr(greens, "hankel1_parts", lambda n, x: sizes.append(np.size(x)) or hankel1_parts(n, x))
    convergence_benchmark(R, R0, KD, ("spectral", "image", "kummer"), (300, 10, 1000, 30, 10))
    assert sizes == [2 * 1000 + 1]


def test_both_kummer_forms_share_one_mode_sum(monkeypatch):
    counts, mode_product = [], greens._mode_product
    monkeypatch.setattr(greens, "_mode_product", lambda kd, c, *args: counts.append(c) or mode_product(kd, c, *args))
    for r in (R, (0.0, 0.61)):  # off and on the axis
        counts.clear()
        convergence_benchmark(r, R0, KD, ("kummer", "spectral", "kummer_raw"), (300, 10, 1000, 30, 10))
        # the first sum is greens_kummer's reference at its own mode count
        assert len(counts) == 2 and len(counts[0]) == 1 and counts[1] == [10, 30, 300, 1000]


@pytest.mark.parametrize("r, reps", [(R, _CASE_REPS["off"]), ((0.0, 0.61), _CASE_REPS["on"])])
def test_a_pair_takes_one_mode_table(monkeypatch, r, reps):
    # the spectral rows, the reference and the kummer rows read slices of one table:
    # chi_m at each coordinate once, r_m once, over the largest count and the reference's M;
    # at |x - x0| = 0.37 every term past m ~ 642 is exactly 0, and the table ends there
    size = greens._live_modes(KD, abs(r[0] - R0[0]), 10000)
    assert size < 10000 if r[0] != R0[0] else size == 10000
    chi_at, kx_sizes, chi, abs_kx = [], [], greens._chi, greens._abs_kx
    monkeypatch.setattr(greens, "_chi", lambda m, y: chi_at.append((np.size(m), np.ravel(y).tolist())) or chi(m, y))
    monkeypatch.setattr(greens, "_abs_kx", lambda kd, m: kx_sizes.append(np.size(m)) or abs_kx(kd, m))
    convergence_benchmark(r, R0, KD, reps, (10, 30, 100, 300, 1000, 3000, 10000))
    assert sorted(chi_at) == sorted([(size, [r[1]]), (size, [R0[1]])]) and kx_sizes == [size]
    m_ref = greens_kummer(r, R0, KD, tol=1e-12).terms_used
    chi_at[:], kx_sizes[:] = [], []
    convergence_benchmark(r, R0, KD, reps, (10, 30))  # the reference needs more modes than the rows
    assert m_ref > 30 and sorted(chi_at) == sorted([(m_ref, [r[1]]), (m_ref, [R0[1]])]) and kx_sizes == [m_ref]


@pytest.mark.parametrize("r, kd", [(R, KD), ((-0.06, 0.2), 9.7 * np.pi), ((0.8, 0.93), 1.1 * np.pi),
                                   ((0.05, 0.5), 3 * np.pi + 1e-8)])
def test_spectral_rows_drop_only_terms_that_are_zero(monkeypatch, r, kd):
    # the spectral sums stop where exp(-r_m |x - x0|) underflows; against every mode of each
    # count, summed exactly (math.fsum of the same terms), they move by rounding alone
    counts = [10, 30, 100, 300, 1000, 3000, 10000]
    sizes, chi = [], greens._chi
    monkeypatch.setattr(greens, "_chi", lambda m, y: sizes.append(np.size(m)) or chi(m, y))
    rows = greens._spectral_sums(greens._pair(r, R0), kd, counts)
    ax, m, n_open = abs(r[0] - R0[0]), np.arange(1, counts[-1] + 1), waveguide._n_open(kd)
    assert sizes == [greens._live_modes(kd, ax, counts[-1])] * 2 and sizes[0] < counts[-1]  # not all 10,000
    r_m, pair = greens._abs_kx(kd, m), waveguide._chi(m, r[1]) * waveguide._chi(m, R0[1])
    terms = np.concatenate([(-1j / r_m[:n_open]) * pair[:n_open] * np.exp(1j * r_m[:n_open] * ax),
                            (-1.0 / r_m[n_open:]) * pair[n_open:] * np.exp(-r_m[n_open:] * ax)])
    assert np.all(terms[sizes[0]:] == 0.0)
    for t, row in zip(counts, rows):
        want = complex(math.fsum(terms[:t].real), math.fsum(terms[:t].imag))
        assert abs(row - want) <= 1e-15 * abs(want), (t, row, want)


def test_each_series_tier_drops_only_terms_below_2_to_the_minus_53():
    # block t of G_r's closed-mode series has q < 2^-(t+1) and sums J_t orders of
    # 1/sqrt(1 - q^2) - 1 = sum_{j >= 1} a_j q^(2j), a_j = C(2j, j)/4^j; in exact arithmetic
    # the dropped remainder is below 2^-53 of the leading term a_1 q^2, and one order fewer
    # would drop a term that is not
    def a(j):
        return Fraction(math.comb(2 * j, j), 4 ** j)

    assert greens._SERIES_COEFS.tolist() == [float(a(j)) for j in range(1, len(greens._SERIES_COEFS) + 1)]
    orders = greens._SERIES_ORDERS
    assert orders[0] == len(greens._SERIES_COEFS) and list(orders) == sorted(orders, reverse=True)
    for t, count in enumerate(orders):
        q2 = Fraction(1, 4 ** (t + 1))  # the block's largest q, squared
        floor = a(1) * q2 / 2 ** 53
        # a_j falls with j, so the remainder is below a_(J+1) q^(2J+2) / (1 - q^2)
        assert a(count + 1) * q2 ** (count + 1) / (1 - q2) < floor, (t, count)
        assert a(count) * q2 ** count >= floor, (t, count)
    # each order reaches the end of the last block whose tier keeps it, and the last tier's every mode
    reach = {j: r for j0, j1, r in greens._ORDER_REACH for j in range(j0, j1)}
    assert sorted(reach) == list(range(orders[0]))
    for j, r in reach.items():
        kept = [t for t, count in enumerate(orders) if count > j]
        assert r == (np.inf if orders[-1] > j else 2 ** (kept[-1] + 1) - 1), j


def _every_block(kd, counts, ax, y, y0):
    """The pair's Kummer mode sum at each count as the kernel forms it, over every mode: blocks of
    _BLOCK modes that break at each count, added in order.  Returns the running totals and the
    coefficient of every mode."""
    ax, ys, n_open = np.array([ax]), np.array([y]), waveguide._n_open(kd)
    total, totals, coefs, lo = 0.0, [], [], 0
    for count in counts:
        while lo < count:
            hi = min(lo - lo % greens._BLOCK + greens._BLOCK, count)
            m = np.arange(lo + 1, hi + 1)
            r_m, n_o = greens._abs_kx(kd, m), min(max(n_open - lo, 0), hi - lo)
            wave = np.exp(np.multiply.outer(ax, -r_m[n_o:])) * (-1.0 / r_m[n_o:])
            if n_o:
                wave = np.concatenate([np.exp(np.multiply.outer(ax, 1j * r_m[:n_o])) / (1j * r_m[:n_o]), wave], axis=-1)
            coef = waveguide._chi(m, y0) * (wave + (1.0 / (m * np.pi)) * np.exp(np.multiply.outer(ax, -m * np.pi)))
            coefs.append(coef)
            total = total + coef @ waveguide._chi(m, ys)
            lo = hi
        totals.append(total)
    return totals, np.concatenate(coefs, axis=-1)


@pytest.mark.parametrize("ax", [0.06, 0.4, 0.8])
@pytest.mark.parametrize("kd, y, y0", [(KD, 0.61, 0.3), (9.7 * np.pi, 0.05, 0.93), (1.1 * np.pi, 0.5, 0.5)])
def test_underflowed_blocks_are_skipped_without_changing_a_bit(ax, kd, y, y0):
    # _live_modes is the one rule that drops modes: a table it cuts short leaves out only exact
    # +-0 terms, and the sum stops at the table's end with the bits of the sum over every mode
    counts = [10, 30, 100, 300, 1000, 3000, 5000, 10000]
    expected, coefs = _every_block(kd, counts, ax, y, y0)
    live = greens._live_modes(kd, ax, counts[-1])
    assert live < counts[-1] and np.all(coefs[..., live:] == 0.0)
    for table in (None, greens._pair_modes(kd, counts[-1], y, y0), greens._pair_modes(kd, live, y, y0)):
        got = greens._mode_product(kd, counts, np.array([ax]), np.array([y]), y0, table)
        assert [t.tobytes() for t in got] == [t.tobytes() for t in expected]


@pytest.mark.parametrize("n_open, counts, rows", [
    (0, [1, 2, 3, 7, 100, 3000], 3),           # m_s = 2: a count below it, and counts inside reaches
    (7, [3, 15], 2),                           # m_s = 16: every count below it, all moments 0
    (7, [3, 15, 16, 21, 47, 300, 5000], 40),   # 40 rows of 4,985 modes: several _TABLE row chunks
])
def test_closed_moments_are_their_exact_sums(n_open, counts, rows):
    # 2^(2je) S_j of each (count, row, order) against math.fsum of the same float products over
    # exactly that order's reach: only a direct test sees a reach cut short, which moves the
    # assembled Re G_r by less than 2^-53
    m_s = 2 * n_open + 2
    e = math.frexp(m_s * np.pi)[1]
    w = waveguide._chi(np.linspace(0.05, 0.95, rows), np.arange(1, counts[-1] + 1)) ** 2
    got = greens._closed_moments(w, m_s, e, counts)
    reach = {j: r for j0, j1, r in greens._ORDER_REACH for j in range(j0, j1)}
    assert got.shape == (len(counts), rows, len(reach))
    inv = 1.0 / (np.arange(m_s, max(counts[-1], m_s) + 1, dtype=float) * np.pi)
    square = inv * inv * 4.0 ** e  # (2^e / (m pi))^2, exactly
    weight = inv
    for j in range(len(reach)):
        weight = weight * square  # 2^(2(j + 1)e) / (m pi)^(2j + 3)
        for i, c in enumerate(counts):
            modes = int(min(reach[j] * m_s, max(c - m_s + 1, 0)))
            for row in range(rows):
                want = math.fsum((w[row, m_s - 1:m_s - 1 + modes] * weight[:modes]).tolist())
                assert abs(got[i, row, j] - want) <= 1e-14 * want, (c, row, j)
                assert (got[i, row, j] == 0.0) == (modes == 0), (c, row, j)


@pytest.mark.parametrize("kd, y0", [(KD, 0.3), (9.7 * np.pi, 0.05), (1.1 * np.pi, 0.93)])
def test_coincident_rows_of_one_pass_are_lone_calls(kd, y0):
    # one pass over the largest count; each row sums its prefix, as a call over w[:c] alone
    counts, n_open = [10, 30, 100, 1000, 4096, 65536], waveguide._n_open(kd)
    w = waveguide._chi(np.arange(1, counts[-1] + 1), y0) ** 2
    coefs, angles = greens.kummer_tail_coefficients(kd), greens._mode_angles(y0, y0)
    completion = np.stack([np.zeros(len(counts)), greens.mode_product_tail(coefs, np.array(counts), *angles)[0]])
    rows, sigma = greens._kummer_coincident(kd, y0, w, n_open, completion, counts)
    for i, c in enumerate(counts):
        (lone,), lone_sigma = greens._kummer_coincident(kd, y0, w[:c], n_open, completion[:, i:i + 1], [c])
        assert rows[i].tobytes() == lone.tobytes() and sigma.tobytes() == lone_sigma.tobytes()
    kds = kd + np.array([0.0, 0.3, -0.2])  # rows of kd sharing one chi_m^2(y0) row
    shared = np.stack([completion[1]] * 3)
    rows, sigma = greens._kummer_coincident(kds, y0, w[None, :], n_open, shared, counts)
    for i, c in enumerate(counts):
        (lone,), lone_sigma = greens._kummer_coincident(kds, y0, w[None, :c], n_open, shared[:, i:i + 1], [c])
        assert rows[i].tobytes() == lone.tobytes() and sigma.tobytes() == lone_sigma.tobytes()


def test_coincident_benchmark_takes_one_chi_vector(monkeypatch):
    sizes, chi = [], greens._chi
    monkeypatch.setattr(greens, "_chi", lambda m, y: sizes.append(np.size(m)) or chi(m, y))
    convergence_benchmark(R0, R0, KD, ("kummer", "kummer_raw"), (1000, 10, 100))
    assert sizes == [65536]  # the reference's, shared by every row


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
    ref = greens._kummer_truncated(kd, ax, y, r0[1], 2**18, 0.0)
    assert abs(g.value - ref) <= g.tail_bound


# names of the checked public calls; a mode kernel takes validated arrays
_CHECKS = {"transverse_mode", "channels", "open_channel_count", "guard_mode_openings", "_check_strip"}


def _called_names(fn):
    tree = ast.parse(inspect.getsource(fn))
    return {node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            for node in ast.walk(tree) if isinstance(node, ast.Call)}


@pytest.mark.parametrize("kernel", ["_mode_product", "_kummer_sum", "_kummer_coincident", "_kummer_plan"])
def test_mode_kernels_never_check_their_inputs(kernel):
    # inputs are checked once, at the public boundary; the kernels and the
    # greens helpers they call must not check again
    seen, todo, reached = set(), [kernel], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        called = _called_names(getattr(greens, name))
        reached |= called & _CHECKS
        todo += [c for c in called if inspect.isfunction(getattr(greens, c, None))
                 and getattr(greens, c).__module__ == greens.__name__]
    assert reached == set(), (kernel, sorted(seen))


@pytest.mark.parametrize("call", [
    lambda: greens_spectral(R0, R0, KD, 100),
    lambda: greens_image(R0, R0, KD, 10),
    lambda: greens.image_sum_positive(R0, R0, KD, 10),
], ids=["spectral", "image", "image-positive"])
def test_a_coincident_pair_is_refused_by_the_forms_that_diverge_there(call):
    # G_w - G_0 at r = r0 is renorm_sum's; these forms have no finite value there
    with pytest.raises(CoincidentPoints):
        call()
