"""Impurity strength, renormalization sum, edge asymptotes, Foldy solver."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wirescat import greens
from wirescat.errors import DegenerateMode, DomainError, PoleEncountered, TruncationLimit
from wirescat.greens import (EULER_GAMMA, _kummer_plan, _kummer_truncated, _mode_angles, greens_free,
                             image_sum_alternating, kummer_tail_coefficients, mode_product_tail)
from wirescat.renorm import (FoldyProblem, _strength, attach_strength, effective_strength,
                             foldy_solve, gr_edge_asymptote, hard_disk_boundary_check,
                             renorm_grid, renorm_state, renorm_sum, t_matrix)
from wirescat.scattering import _state_s_matrix
from wirescat.specfun import SWITCHOVER, cylinder_bessel_j, hankel1
from wirescat.waveguide import WireConfig, _chi, channels, image_positions, mode_opening_gaps, transverse_mode

J0_ROOT_1 = 2.404825557695773
KD = 2.5 * np.pi
Y0 = 0.3


# ---------------------------------------------------------------------------
# t matrix
# ---------------------------------------------------------------------------

def test_optical_theorem_both_signs():
    ka = np.logspace(-3, np.log10(20.0), 200)
    for a in (0.1, -0.1):
        for x in ka:
            tm = t_matrix(x / abs(a), a)
            assert tm.optical_residual <= 1e-12


def test_strength_vanishes_at_j0_root():
    tm = t_matrix(J0_ROOT_1 / 0.1, 0.1)
    assert abs(tm.s) <= 1e-13


def test_strength_decays_logarithmically_at_small_ka():
    # |s| ~ pi / ln(2/ka): slow, but monotone toward zero
    mags = [abs(t_matrix(ka / 0.1, 0.1).s) for ka in (1e-2, 1e-6, 1e-12)]
    assert mags[0] > mags[1] > mags[2]
    assert mags[2] == pytest.approx(np.pi / np.log(2.0 / 1e-12), rel=0.2)


def test_negative_a_flips_phase_only():
    tp = t_matrix(5.0, 0.1).s
    tn = t_matrix(5.0, -0.1).s
    assert tp.imag == pytest.approx(tn.imag, rel=1e-14)
    assert tp.real == pytest.approx(-tn.real, rel=1e-14)


def test_t_matrix_domain():
    # a transparent impurity (a = 0, either sign of zero) has s = 0; k <= 0 is refused whatever a is
    with pytest.raises(DomainError):
        t_matrix(-1.0, 0.1)
    for a in (0.0, -0.0):
        assert t_matrix(1.0, a).s == 0.0 and t_matrix(1.0, a).cross_section == 0.0
        for bad in (0.0, -1.0, np.array([1.0, 2.0, 0.0])):
            with pytest.raises(DomainError, match="k must be positive"):
                _strength(bad, a)
    for bad in (np.array([1.0, 2.0, 0.0]), np.array([-1.0, 2.0])):
        with pytest.raises(DomainError):
            _strength(bad, 0.1)
    assert np.all(_strength(np.array([1.0, 2.0]), 0.0) == 0.0)
    mixed = _strength(2.0, np.array([0.1, 0.0, -0.1]))
    assert mixed[1] == 0.0
    assert mixed[0] == t_matrix(2.0, 0.1).s and mixed[2] == t_matrix(2.0, -0.1).s


def test_array_strength_matches_scalar_t_matrix():
    # one array call must reproduce the scalar path on both sides of the
    # series/asymptotic switchover of the Bessel functions
    ka = np.linspace(0.05, 2.0 * SWITCHOVER, 601)
    assert ka.min() < SWITCHOVER < ka.max()
    for a in (0.1, -0.1):
        k = ka / abs(a)
        s_arr = _strength(k, a)
        assert s_arr.shape == k.shape
        s_ref = np.array([t_matrix(float(x), a).s for x in k])
        assert np.max(np.abs(s_arr - s_ref) / np.abs(s_ref)) <= 1e-15
    # sweep-geom's call: an array a at one k, the sign picked per element
    a = np.array([-0.3, -0.1, -0.02, 0.02, 0.1, 0.3])
    s_arr = _strength(37.0, a)
    s_ref = np.array([t_matrix(37.0, float(x)).s for x in a])
    assert np.max(np.abs(s_arr - s_ref) / np.abs(s_ref)) <= 1e-15


# ---------------------------------------------------------------------------
# hard-disk boundary condition
# ---------------------------------------------------------------------------

def test_hard_disk_boundary_vanishes():
    for ka in (0.5, 2.0, 5.0):
        assert hard_disk_boundary_check(ka / 0.1, 0.1) <= 1e-10


def test_no_scattering_leaves_incident_value():
    # with s = 0 the boundary value is just J_0(ka)
    ka = 2.0
    psi = cylinder_bessel_j(0, ka)
    assert abs(psi) > 0.1


def test_p_wave_untouched():
    # an incident p wave vanishes at r0, so the scattered term is absent:
    # values on the circle are the bare J_1(ka) regardless of s
    ka = 2.0
    assert cylinder_bessel_j(1, ka) == pytest.approx(cylinder_bessel_j(1, ka))


# ---------------------------------------------------------------------------
# renormalization sum
# ---------------------------------------------------------------------------

def test_im_gr_identity():
    st = renorm_sum(KD, Y0)
    assert st.im_identity_residual <= 1e-10
    ch = channels(KD, 4)
    sigma = sum(transverse_mode(m, Y0) ** 2 / ch.kx[m - 1].real for m in (1, 2))
    assert st.sigma_open == pytest.approx(sigma, rel=1e-14)


def test_gr_below_first_threshold():
    st = renorm_sum(0.5 * np.pi, Y0)
    assert st.sigma_open == 0.0
    assert st.g_r.imag == pytest.approx(0.5, abs=1e-12)


def test_gr_vs_image_sum_oracle():
    # slow-series oracle: G_r = sum_{n != 0} (-1)^n G_0(r_n, r0), 1e5 images
    st = renorm_sum(KD, Y0)
    oracle = image_sum_alternating((0.0, Y0), (0.0, Y0), KD, 10**5, include_source=False)
    assert abs(oracle - st.g_r) <= 1e-2


@pytest.mark.parametrize("kd, y0", [(KD, Y0), (7.3, 0.05), (40.0, 0.61)])
def test_gr_is_the_coincident_kummer_bench_value(kd, y0):
    # greens-bench's coincident kummer row summed to renorm_sum's own truncation
    st = renorm_sum(kd, y0)
    completion = mode_product_tail(kummer_tail_coefficients(kd), st.terms_used, *_mode_angles(y0, y0))[0]
    bench = _kummer_truncated(kd, 0.0, y0, y0, st.terms_used, completion)
    assert abs(st.g_r - bench) <= 1e-14 * abs(bench)


def test_gr_refuses_a_missed_tolerance():
    # G_r shares greens_kummer's plan: with y0 within ~1e-5 of a wall its
    # mode cap cannot meet tol = 1e-12, and the miss is an error
    assert renorm_sum(7.3, 1e-4).tail_bound < 1e-12
    for y0 in (1e-5, 1.0 - 1e-5):
        with pytest.raises(TruncationLimit):
            renorm_sum(7.3, y0)
    assert renorm_sum(7.3, 1e-5, tol=1e-9).tail_bound < 1e-9


def test_gr_independent_of_a_and_x0():
    g1 = renorm_state(KD, WireConfig(y0=Y0, a=0.1)).g_r
    g2 = renorm_state(KD, WireConfig(y0=Y0, a=-0.02, x0=3.7)).g_r
    assert g1 == g2


def test_effective_strength_identities():
    rs = effective_strength(KD, Y0, 0.1)
    st = renorm_sum(KD, Y0)
    assert abs(abs(rs) ** 2 * st.sigma_open + rs.imag) <= 1e-10
    assert effective_strength(KD, Y0, 0.0) == 0.0


def test_effective_strength_shrinks_at_divergent_gr():
    # just above an opening |G_r| ~ eps^-1/2 and |Rs| ~ 1/|G_r| -> 0
    rs_far = effective_strength(KD, 0.05, 0.1)
    rs_edge = effective_strength(2.0 * np.pi + 1e-8, 0.05, 0.1)
    assert abs(rs_edge) < abs(rs_far)
    g_edge = renorm_sum(2.0 * np.pi + 1e-8, 0.05).g_r
    assert abs(rs_edge) == pytest.approx(1.0 / abs(g_edge), rel=0.05)


def test_pole_detection_hook():
    # force the pole branch directly: 1 - s G_r below threshold must raise
    from wirescat import renorm as rn
    st = renorm_sum(KD, Y0)
    s_pole = 1.0 / st.g_r  # makes 1 - s G_r vanish to rounding
    assert abs(1.0 - s_pole * st.g_r) < rn.POLE_THRESHOLD
    with pytest.raises(PoleEncountered):
        attach_strength(st, s_pole)
    # a strength away from the pole attaches the same Rs that renorm_state gives
    cfg = WireConfig(y0=Y0, a=0.1)
    attached = attach_strength(st, t_matrix(KD, 0.1).s)
    assert attached.rs == renorm_state(KD, cfg).rs


def test_grid_raises_the_scalar_pole_message_at_the_first_pole(monkeypatch):
    # a raised threshold turns ordinary elements into "poles": the grid must
    # stop at the first one in row-major order with the scalar state's message
    from wirescat import renorm as rn
    kd = np.linspace(4.0, 9.0, 7)
    a = np.array([0.02, -0.1, 0.1])
    monkeypatch.setattr(rn, "POLE_THRESHOLD", 0.9)
    expected = None
    for a_i in a:
        for kd_i in kd:
            try:
                renorm_state(float(kd_i), WireConfig(y0=Y0, a=float(a_i)))
            except PoleEncountered as exc:
                expected = str(exc)
                break
        if expected:
            break
    assert expected is not None
    with pytest.raises(PoleEncountered) as caught:
        attach_strength(renorm_grid(kd, Y0), _strength(kd, a[:, None]))
    assert str(caught.value) == expected


def test_renorm_grid_shapes_and_domain():
    grid = renorm_grid(np.array([[4.0], [7.3]]), np.array([0.2, 0.3, 0.5]))
    assert grid.g_r.shape == grid.sigma_open.shape == grid.terms_used.shape == (2, 3)
    assert grid.g_r[1, 2] == renorm_sum(7.3, 0.5).g_r
    empty = renorm_grid(np.zeros(0), Y0)
    assert empty.g_r.shape == (0,)
    with pytest.raises(DomainError, match="y0 must lie strictly inside the wire"):
        renorm_grid([4.0, 5.0], [0.3, 1.0])
    # the first bad element, in order, names itself
    with pytest.raises(DomainError, match=r"got -1\.0"):
        renorm_grid([4.0, -1.0, 2.0 * np.pi], Y0)


@pytest.mark.parametrize("name", ["cross_section", "conductance", "optical_residual", "phase_shift", "rs_imag",
                                  "free_cross_section"])
@pytest.mark.parametrize("bare", [lambda: renorm_sum(7.3, Y0), lambda: renorm_grid([4.0, 7.3], Y0)],
                         ids=["lone", "grid"])
def test_a_bare_state_refuses_every_observable_of_the_impurity(bare, name):
    # renorm_sum attaches no strength: one named DomainError, never a TypeError or AttributeError from None
    with pytest.raises(DomainError, match="needs a strength attached"):
        getattr(bare(), name)


def _kd_values():
    # generic kd and kd within 1e-6 to 1e-8 of a mode opening (outside the 1e-9 guard)
    near = st.builds(lambda n, eps: n * np.pi + eps, st.integers(1, 12),
                     st.sampled_from([-1e-6, -1e-7, -1e-8, 1e-8, 1e-7, 1e-6]))
    return st.one_of(st.floats(0.3, 40.0), near)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kds=st.lists(_kd_values(), min_size=1, max_size=4), wall_gap=st.floats(1e-3, 0.02),
       upper=st.booleans(), a=st.one_of(st.floats(-0.2, -0.01), st.floats(0.01, 0.2), st.just(0.0)))
def test_state_grid_properties(kds, wall_gap, upper, a):
    kd = np.array(kds)
    assume(not mode_opening_gaps(kd)[1].any())
    y0 = 1.0 - wall_gap if upper else wall_gap
    cfg = WireConfig(y0=y0, a=a)
    grid = renorm_state(kd, cfg)
    n_open = np.floor(kd / np.pi).astype(int)
    assert np.array_equal(grid.n_open, n_open)
    assert np.all(grid.im_identity_residual <= 1e-10)
    assert np.all(grid.optical_residual <= 1e-10)
    sigma = grid.cross_section
    assert np.all((0.0 <= sigma) & (sigma <= 1.0))
    assert np.all(sigma[n_open == 0] == 0.0) and np.all(grid.rs_imag[n_open == 0] == 0.0)
    assert np.all(np.isnan(grid.phase_shift.delta0) == (n_open == 0))
    for i, kd_i in enumerate(kd.tolist()):
        one = renorm_state(kd_i, cfg)
        # an array element and its lone call are the same arithmetic
        for name, value in vars(one).items():
            assert getattr(grid, name)[i] == value, name
        for got, want in ((sigma[i], one.cross_section), (grid.conductance[i], one.conductance),
                          (grid.free_cross_section[i], one.free_cross_section),
                          (grid.phase_shift.e2id[i], one.phase_shift.e2id)):
            assert got == want
        assert one.n_open == n_open[i]
        if n_open[i] >= 1:
            assert _state_s_matrix(grid[i:i + 1]).unitarity_residual[0] <= 1e-10


def test_sigma_is_bounded_by_one_at_a_dip():
    # sweep-k printed sigma = 1.0000000000000009 and G = 0.9999999999999991 at this dip:
    # |Rs|^2 Sigma^2 rounds two ulp past the theorem's bound there
    st = renorm_state(7.9404186504564418, WireConfig(y0=0.10208888556527015, a=-0.08163965916479317))
    assert np.square(np.abs(st.rs)) * np.square(st.sigma_open) > 1.0
    assert st.n_open == 2 and st.cross_section == 1.0 and st.conductance == 1.0


_WALL_Y0 = (1e-4, 1.0 - 1e-4)  # the plan takes its 65,536-mode cap at every kd here


@st.composite
def _mixed_y0_rows(draw):
    """(kd, y0) rows: one (M, N) group mixing a repeated y0 with distinct ones, and kd within 1e-8 of
    openings, some at a wall y0."""
    shared = draw(st.floats(0.2, 0.8))
    other = draw(st.floats(0.2, 0.8).filter(lambda y: y != shared))
    group_kd = st.floats(3.3, 6.1)  # kd in (pi, 2 pi) with y0 in [0.2, 0.8]: M = 256, N = 1
    group = [(draw(group_kd), shared), (draw(group_kd), shared), (draw(group_kd), other)]
    group += draw(st.lists(st.tuples(group_kd, st.one_of(st.just(shared), st.floats(0.2, 0.8))), max_size=40))
    edge_kd = st.builds(lambda n, eps: n * np.pi + eps, st.integers(1, 12), st.sampled_from([-1e-8, 1e-8]))
    edges = draw(st.lists(st.tuples(edge_kd, st.sampled_from(_WALL_Y0 + (shared,))), min_size=1, max_size=4))
    edges.append((draw(edge_kd), draw(st.sampled_from(_WALL_Y0))))
    return draw(st.permutations(group + edges))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(rows=_mixed_y0_rows())
def test_mixed_y0_grid_elements_equal_their_lone_sums(rows):
    kd, y0 = (np.array(v) for v in zip(*rows))
    grid = renorm_grid(kd, y0)
    group = (kd > 3.3 - 1e-9) & (kd < 6.1 + 1e-9) & (y0 >= 0.2) & (y0 <= 0.8)
    assert set(grid.terms_used[group].tolist()) == {256} and len(set(y0[group].tolist())) < group.sum()
    assert grid.terms_used.max() == 65536
    for i, (kd_i, y0_i) in enumerate(rows):
        one = renorm_sum(kd_i, y0_i)
        assert grid.g_r[i] == one.g_r and grid.sigma_open[i] == one.sigma_open


def test_gr_rows_match_the_complex_mode_sum():
    # the real-arithmetic kernel against sum chi^2 [1/(i k_x) + 1/(m pi)] in complex arithmetic,
    # with the same plan's M and completion; Sigma is the open part of the same k_x, bit for bit
    n = np.arange(1, 13)
    kd = np.concatenate([n * np.pi - 1e-8, n * np.pi + 1e-8, [0.5 * np.pi, 7.3, 19.0, 37.0]])
    y0 = np.resize([0.3, 1e-4, 0.05, 0.5, 1.0 - 1e-4, 0.999, 0.61], kd.shape)
    grid = renorm_grid(kd, y0)
    terms, completion, _ = _kummer_plan(kd, 0.0, 1e-12, y0, y0)
    assert np.array_equal(grid.terms_used, terms)
    for i, (kd_i, y0_i) in enumerate(zip(kd.tolist(), y0.tolist())):
        m = np.arange(1, terms[i] + 1)
        ch, chi = channels(kd_i, terms[i]), transverse_mode(m, y0_i)
        mode_sum = np.sum(chi ** 2 * (1.0 / (1j * ch.kx) + 1.0 / (m * np.pi)))
        ref = mode_sum + completion[i] - np.log((kd_i / np.pi) * np.sin(np.pi * y0_i)) / np.pi \
            + 0.5j - EULER_GAMMA / np.pi
        assert abs(grid.g_r[i] - ref) <= 1e-14 * max(1.0, abs(grid.g_r[i])), (kd_i, y0_i)
        assert grid.sigma_open[i] == np.sum(chi[:ch.n_open] ** 2 / ch.kx[:ch.n_open].real)
    # Im G_r and Sigma are rounded apart, so their identity still has something to check
    sweep = renorm_grid(np.linspace(1.1 * np.pi, 7.4 * np.pi, 500), 0.3)
    assert np.all(sweep.im_identity_residual <= 1e-10) and np.any(sweep.im_identity_residual > 0.0)


def _exact_mode_sums(kd, y0, counts):
    """sum_{m <= M} chi_m^2 [1/(m pi) - [m > N]/r_m] at each M of counts, in mpmath (40 digits) from the
    float kd and chi_m^2(y0).  A closed mode within 1e-6 of its opening has r_m ~ 1e-4, which the
    float kd^2 - (m pi)^2 knows to ~1e-8 only: its float r_m is taken as given, and its term returned."""
    m = np.arange(1, counts[-1] + 1)
    w, n_open, kd2, near = _chi(m, y0) ** 2, int(kd // np.pi), mp.mpf(kd) ** 2, 0.0
    total, sums = mp.mpf(0), []
    for mode, w_m in zip(m.tolist(), map(mp.mpf, w.tolist())):
        total += w_m / (mode * mp.pi)
        if mode > n_open:
            if mode * np.pi - kd < 1e-6:
                r_m = mp.mpf(float(greens._abs_kx(kd, np.array([mode]))[0]))
                near = float(w_m / r_m)
            else:
                r_m = mp.sqrt((mode * mp.pi) ** 2 - kd2)
            total -= w_m / r_m
        if mode in counts:
            sums.append(total)
    return sums, near


def test_coincident_mode_sum_is_the_exact_mode_sum():
    # Re G_r - completion - Re(constant) is the finite sum over the plan's M modes: the explicit modes
    # below 2N + 2 and the closed-mode series past them, against 40 digits, for N = 0..9 on either
    # side of each opening; the only slack is four ulps of a mode 1e-8 below its opening
    n = np.arange(1, 11)
    kd = np.concatenate([n * np.pi - 1e-8, n[:-1] * np.pi + 1e-8])
    y0 = np.resize([0.05, 0.3, 0.5, 0.93], kd.shape)
    grid = renorm_grid(kd, y0)
    terms, completion, _ = _kummer_plan(kd, 0.0, 1e-12, y0, y0)
    constant = greens._coincidence_constant(kd, y0).real
    with mp.workdps(40):
        for i, (kd_i, y0_i) in enumerate(zip(kd.tolist(), y0.tolist())):
            (exact,), near = _exact_mode_sums(kd_i, y0_i, [int(terms[i])])
            got = mp.mpf(float(grid.g_r[i].real)) - mp.mpf(float(completion[i])) - mp.mpf(float(constant[i]))
            assert abs(float(got - exact)) <= 1e-15 + 4 * np.spacing(near), (kd_i, y0_i)
        # one kernel call over several counts, on both sides of 2N + 2 = 12: each its own exact sum
        kd_i, y0_i, counts = 5.3 * np.pi, 0.37, [5, 11, 12, 30, 100, 1000, 4096]
        w = _chi(np.arange(1, counts[-1] + 1), y0_i) ** 2
        rows, _ = greens._kummer_coincident(kd_i, y0_i, w, 5, np.zeros(len(counts)), counts)
        c = mp.mpf(float(greens._coincidence_constant(kd_i, y0_i).real))
        for row, exact in zip(rows, _exact_mode_sums(kd_i, y0_i, counts)[0]):
            assert abs(float(mp.mpf(float(row.real)) - c - exact)) <= 1e-15


def test_closed_mode_series_stays_in_range_at_large_kd():
    # the series takes a_j (kd 2^-e)^(2j) times 2^(2je) S_j, 2^e just above m_s pi: at kd = 3e5 + 1
    # (e = 20) a coefficient a_26 2^(52e) would overflow, while these factors stay in range, so a
    # loose tol still gets the direct sum of the plan's 381,972 modes
    kd, y0 = 3e5 + 1, 0.3
    g_r = renorm_sum(kd, y0, tol=1e-3).g_r
    terms, completion, _ = _kummer_plan(kd, 0.0, 1e-3, y0, y0)
    m = np.arange(1, int(terms) + 1)
    w, r_m = _chi(m, y0) ** 2, greens._abs_kx(kd, m)
    direct = math.fsum(w / (m * np.pi) - np.where(m > kd // np.pi, w / r_m, 0.0))
    got = g_r.real - float(completion) - greens._coincidence_constant(kd, y0).real
    assert abs(got - direct) <= 1e-14 * abs(direct), (got, direct)


def test_a_sweep_forms_r_m_for_its_explicit_modes_alone(monkeypatch):
    # the closed modes from 2N + 2 on enter G_r through moments shared by every kd of a block:
    # a sweep evaluates sqrt|kd^2 - (m pi)^2| for fewer than 2N + 2 modes per kd
    sizes, abs_kx = [], greens._abs_kx
    monkeypatch.setattr(greens, "_abs_kx", lambda kd, m: sizes.append(np.broadcast(kd, m).size) or abs_kx(kd, m))
    kd = np.linspace(0.5 * np.pi, 7.5 * np.pi, 2000)
    kd = kd[~mode_opening_gaps(kd)[1]]
    renorm_grid(kd, 0.32)
    assert sum(sizes) <= np.sum(2 * np.floor(kd / np.pi) + 2), sum(sizes)


def test_a_one_y0_grid_evaluates_chi_on_that_y0_alone(monkeypatch):
    from wirescat import renorm as rn
    sizes = []

    def spy(y, modes):  # chi_m(y) is symmetric in m and y: renorm_grid passes the y0 first, for rows
        sizes.append(np.size(y))
        return _chi(y, modes)

    monkeypatch.setattr(rn, "_chi", spy)
    kd = np.linspace(0.5 * np.pi, 7.5 * np.pi, 2000)
    rn.renorm_grid(kd[~mode_opening_gaps(kd)[1]], 0.32)
    # one block per (mode count, open count) group: M = 256 for N = 0..4, M = 512 for N = 4..7
    assert len(sizes) == 9 and set(sizes) == {1}
    sizes.clear()
    rn.renorm_grid(np.full(6, 7.3), [0.3, 0.3, 0.41, 0.3, 0.52, 0.3])  # one block of mixed y0
    assert sizes == [6]


@pytest.mark.parametrize("budget", [2 ** 12, 2 ** 18, 2 ** 20])
def test_row_budget_changes_no_bit(monkeypatch, budget):
    # every row sums its modes contiguously, so any block equals rows summed one at a time
    from wirescat import renorm as rn
    kd = np.linspace(0.5 * np.pi, 7.5 * np.pi, 2000)
    kd_grid, y0_grid = (v.ravel() for v in np.meshgrid(np.linspace(3.3, 35.0, 40), np.linspace(0.03, 0.97, 25)))
    ok, ok_grid = ~mode_opening_gaps(kd)[1], ~mode_opening_gaps(kd_grid)[1]
    cases = [(kd[ok], 0.32), (kd_grid[ok_grid], y0_grid[ok_grid])]  # one shared y0, then chi per row
    monkeypatch.setattr(rn, "_ROW_BLOCK", 1)
    want = [rn.renorm_grid(k, y0) for k, y0 in cases]
    monkeypatch.setattr(rn, "_ROW_BLOCK", budget)
    for (k, y0), ref in zip(cases, want):
        got = rn.renorm_grid(k, y0)
        for name in ("g_r", "sigma_open", "terms_used", "tail_bound"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name


def test_renorm_grid_memory_is_bounded(traced_peak):
    # a 2,000-kd sweep traces 0.64 MiB: per kd only its 2N + 1 explicit modes, and per
    # block the closed-mode moments of one chi row, whose weights and terms take at most
    # 26 orders x the block's modes each; the 51-y0 sweep-geom column at kd = 35, which
    # evaluates chi per row (51 x 1,024 modes, 0.40 MiB an array), traces 0.85 MiB.
    # Headroom: 15 %.
    kd = np.linspace(0.5 * np.pi, 7.5 * np.pi, 2000)
    sweep = traced_peak(lambda: renorm_grid(kd[~mode_opening_gaps(kd)[1]], 0.05))
    column = traced_peak(lambda: renorm_grid(35.0, np.linspace(0.05, 0.5, 51)))
    assert sweep < 1.15 * 0.64 * 2 ** 20, sweep
    assert column < 1.15 * 0.85 * 2 ** 20, column


# ---------------------------------------------------------------------------
# edge asymptote
# ---------------------------------------------------------------------------

def test_gr_edge_matches_full_sum():
    n_mode, y0 = 2, 0.05
    for eps in (1e-6, 1e-8):
        full = renorm_sum(n_mode * np.pi - eps, y0).g_r \
            - renorm_sum(n_mode * np.pi - 1e-4, y0).g_r
        asym = gr_edge_asymptote(n_mode, eps, y0, "below") \
            - gr_edge_asymptote(n_mode, 1e-4, y0, "below")
        assert asym.real / full.real == pytest.approx(1.0, abs=0.05)


def test_gr_edge_sides():
    below = gr_edge_asymptote(2, 1e-8, 0.05, "below")
    above = gr_edge_asymptote(2, 1e-8, 0.05, "above")
    assert below.imag == 0.0 and below.real < 0.0
    assert above.real == 0.0 and above.imag < 0.0
    assert above == pytest.approx(1j * below)
    assert gr_edge_asymptote(2, 2e-8, 0.05, "below").real \
        == pytest.approx(below.real / np.sqrt(2.0), rel=1e-12)


def test_gr_edge_degenerate_mode():
    with pytest.raises(DegenerateMode):
        gr_edge_asymptote(2, 1e-8, 0.5)
    with pytest.raises(DomainError):
        gr_edge_asymptote(2, 1e-2, 0.05)


# ---------------------------------------------------------------------------
# Foldy multiple scattering
# ---------------------------------------------------------------------------

def test_foldy_single_scatterer():
    prob = FoldyProblem(positions=np.array([[0.0, 0.3]]), strength=0.5 - 0.5j,
                        incident=np.array([1.0 + 0.0j]))
    psi = foldy_solve(prob, 5.0)
    assert psi[0] == 1.0 + 0.0j


def test_foldy_two_scatterers_closed_form():
    # independent 2x2 oracle: psi_0 = (phi_0 + s G phi_1) / (1 - s^2 G^2)
    pos = np.array([[0.0, 0.3], [0.4, 0.6]])
    s = t_matrix(KD, 0.1).s
    g01 = greens_free(tuple(pos[0]), tuple(pos[1]), KD)
    phi = np.array([1.0 + 0.0j, 0.3 - 0.2j])
    expect0 = (phi[0] + s * g01 * phi[1]) / (1.0 - s**2 * g01**2)
    expect1 = (phi[1] + s * g01 * phi[0]) / (1.0 - s**2 * g01**2)
    psi = foldy_solve(FoldyProblem(pos, s, phi), KD)
    assert psi[0] == pytest.approx(expect0, rel=1e-13)
    assert psi[1] == pytest.approx(expect1, rel=1e-13)


def test_foldy_born_small_strength():
    # at 1e-4 of the impurity's s the direct solve matches the 2x2 closed form and psi -> phi + O(s)
    pos = np.array([[0.0, 0.3], [0.4, 0.6]])
    s = 1e-4 * t_matrix(KD, 0.1).s
    g01 = greens_free(tuple(pos[0]), tuple(pos[1]), KD)
    phi = np.array([1.0 + 0.0j, 0.5 + 0.0j])
    closed = np.array([phi[0] + s * g01 * phi[1], phi[1] + s * g01 * phi[0]]) / (1.0 - s**2 * g01**2)
    direct = foldy_solve(FoldyProblem(pos, s, phi), KD)
    assert np.max(np.abs(direct - closed)) <= 1e-12
    assert np.max(np.abs(direct - phi)) <= 1e-3  # psi -> phi + O(s)


def test_foldy_system_is_one_minus_s_g(monkeypatch):
    # I - sG, built in G's memory from the image parities' repeats, is the textbook matrix bit for bit
    imgs = image_positions(WireConfig(y0=0.37, a=0.1), -30, 30)
    s, solve, seen = t_matrix(KD, 0.1).s, np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: seen.append(a.copy()) or solve(a, b))
    foldy_solve(FoldyProblem(imgs.positions, s, imgs.signs.astype(complex)), KD)
    x, y = imgs.positions.T
    off = ~np.eye(len(x), dtype=bool)
    g = np.zeros((len(x), len(x)), dtype=complex)
    g[off] = -0.5j * hankel1(0, KD * np.hypot(x[:, None] - x, y[:, None] - y)[off])
    assert np.array_equal(seen[0], np.eye(len(x)) - s * g)


def test_foldy_rejects_duplicate_positions():
    pos = np.array([[0.0, 0.3], [0.0, 0.3]])
    with pytest.raises(DomainError):
        FoldyProblem(pos, 1.0 + 0.0j, np.array([1.0, 1.0], dtype=complex))


def test_foldy_image_array_reproduces_renormalization(foldy_image_array):
    half = 1000
    s, psi = foldy_image_array
    target = 1.0 / (1.0 - s * renorm_sum(KD, Y0).g_r)
    assert abs(psi[half] - target) / abs(target) <= 1e-2
    for j in (-2, -1, 1, 2, 5):
        assert abs(psi[half + j] - (-1.0) ** j * psi[half]) <= 2e-2 * abs(psi[half])


@pytest.mark.parametrize("call, message", [
    (lambda: gr_edge_asymptote(2, 1e-6, Y0, side="left"), "side must be 'below' or 'above', got 'left'"),
    (lambda: hard_disk_boundary_check(KD, 0.0), "boundary check is defined for a > 0"),
    (lambda: FoldyProblem([[0.0, Y0], [1.0, Y0]], 0.5j, [1.0]), "positions and incident values must align"),
], ids=["edge-side", "disk-a0", "foldy-incident"])
def test_an_input_outside_its_law_is_a_domain_error(call, message):
    with pytest.raises(DomainError, match=message):
        call()
