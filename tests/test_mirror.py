"""Mirror-basis waves: identities, image-sum oracles, field maps."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wirescat import mirror
from wirescat.errors import DomainError
from wirescat.greens import greens_kummer, greens_kummer_grid, image_sum_positive
from wirescat.mirror import (FieldGrid, GridSpec, MirrorKind, field_map,
                             mirror_partial, mirror_s, mirror_s_plus,
                             renormalized_mirror_at_impurity)
from wirescat.renorm import renorm_state, renorm_sum
from wirescat.scattering import cross_section
from wirescat.waveguide import WireConfig

KD = 2.5 * np.pi
CFG = WireConfig(y0=0.3, a=0.1)


def test_mirror_s_is_minus_im_greens():
    rng = np.random.default_rng(17)
    for _ in range(25):
        r = (rng.uniform(-1, 1), rng.uniform(0, 1))
        gw = greens_kummer(r, CFG.r0, KD, 1e-10).value
        assert abs(mirror_s(r, KD, CFG) + gw.imag) <= 1e-10


def test_mirror_s_walls_and_below_threshold():
    assert mirror_s((0.4, 0.0), KD, CFG) == 0.0
    assert mirror_s((0.4, 1.0), KD, CFG) == pytest.approx(0.0, abs=1e-15)
    assert mirror_s((0.4, 0.5), 0.5 * np.pi, CFG) == 0.0


def test_mirror_s_value_at_impurity_is_sigma_sum():
    st = renorm_sum(KD, CFG.y0)
    assert mirror_s(CFG.r0, KD, CFG) == pytest.approx(st.sigma_open, rel=1e-13)


def test_mirror_s_plus_oracle():
    # slow-series oracle: half the all-positive-image J0 sum, 1e5 images
    r = (0.37, 0.61)
    oracle = 0.5 * image_sum_positive(r, CFG.r0, KD, 10**5)
    assert abs(mirror_s_plus(r, KD, CFG) - oracle) <= 1e-2


def test_mirror_s_plus_structure():
    # even cosine extension: symmetric under y -> -y continuation at the wall,
    # i.e. d/dy vanishes there; and even in x about x0
    x = 0.3
    h = 1e-6
    d_wall = (mirror_s_plus((x, h), KD, CFG) - mirror_s_plus((x, 0.0), KD, CFG)) / h
    assert abs(d_wall) <= 1e-4
    assert mirror_s_plus((x, 0.4), KD, CFG) == mirror_s_plus((-x, 0.4), KD, CFG)
    dx = (mirror_s_plus((h, 0.4), KD, CFG) - mirror_s_plus((-h, 0.4), KD, CFG)) / (2 * h)
    assert abs(dx) <= 1e-6


@pytest.mark.parametrize("kind", [MirrorKind.PX, MirrorKind.DXY, MirrorKind.F])
def test_partials_vanish_at_impurity(kind):
    for kd, y0 in ((KD, 0.3), (12.3 * np.pi, 0.37), (40.0, 0.6)):
        cfg = WireConfig(y0=y0, a=0.1)
        assert abs(mirror_partial(kind, cfg.r0, kd, cfg)) <= 1e-12


def test_px_antisymmetric_about_impurity_line():
    for y in (0.2, 0.55, 0.8):
        left = mirror_partial(MirrorKind.PX, (-0.3, y), KD, CFG)
        right = mirror_partial(MirrorKind.PX, (0.3, y), KD, CFG)
        assert left == pytest.approx(-right, rel=1e-12)


def test_px_is_x_derivative_of_mirror_s():
    h = 1e-6
    r = (0.41, 0.67)
    fd = (mirror_s((r[0] + h, r[1]), KD, CFG) - mirror_s((r[0] - h, r[1]), KD, CFG)) / (2 * h)
    assert mirror_partial(MirrorKind.PX, r, KD, CFG) == pytest.approx(fd / KD, abs=1e-8)


def test_dxy_is_mixed_derivative_of_s_plus():
    h = 1e-5
    r = (0.41, 0.67)
    vals = {}
    for sx in (1, -1):
        for sy in (1, -1):
            vals[(sx, sy)] = mirror_s_plus((r[0] + sx * h, r[1] + sy * h), KD, CFG)
    fd = (vals[(1, 1)] - vals[(1, -1)] - vals[(-1, 1)] + vals[(-1, -1)]) / (4 * h * h)
    assert mirror_partial(MirrorKind.DXY, r, KD, CFG) == pytest.approx(
        2.0 * fd / KD**2, rel=1e-4)


def test_f_matches_derivative_recipe():
    h = 1e-3
    r = (0.41, 0.67)
    def s(x, y):
        return mirror_s((x, y), KD, CFG)
    d3x = (s(r[0] + 2*h, r[1]) - 2*s(r[0] + h, r[1]) + 2*s(r[0] - h, r[1])
           - s(r[0] - 2*h, r[1])) / (2 * h**3)
    dxyy = ((s(r[0] + h, r[1] + h) - 2*s(r[0] + h, r[1]) + s(r[0] + h, r[1] - h))
            - (s(r[0] - h, r[1] + h) - 2*s(r[0] - h, r[1]) + s(r[0] - h, r[1] - h))) \
        / (2 * h**3)
    fd = (d3x - 3.0 * dxyy) / KD**3
    assert mirror_partial(MirrorKind.F, r, KD, CFG) == pytest.approx(fd, rel=1e-3)


def test_renormalized_value_reconstructs_sigma():
    st = renorm_state(KD, CFG)
    val = renormalized_mirror_at_impurity(KD, CFG)
    assert abs(st.s * val) ** 2 == pytest.approx(cross_section(KD, CFG), abs=1e-10)


def test_renormalized_value_bounded_at_opening():
    # phi_s(r0) diverges as eps^-1/2 just above the opening; the renormalized
    # value stays bounded because G_r diverges identically
    cfg = WireConfig(y0=0.05, a=0.1)
    bare, renormed = [], []
    for eps in (1e-4, 1e-6, 1e-8):
        bare.append(renorm_sum(2.0 * np.pi + eps, cfg.y0).sigma_open)
        renormed.append(abs(renormalized_mirror_at_impurity(2.0 * np.pi + eps, cfg)))
    assert bare[2] > bare[1] > bare[0]
    assert bare[1] / bare[0] == pytest.approx(10.0, rel=0.05)      # eps^-1/2 growth
    assert max(renormed) / min(renormed) <= 1.05                   # bounded
    # just below, the open-mode sum is finite: chi_1^2(y0)/k_x^(1) alone
    below = renorm_sum(2.0 * np.pi - 1e-8, cfg.y0).sigma_open
    assert below == pytest.approx(2.0 * np.sin(np.pi * 0.05) ** 2
                                  / (np.pi * np.sqrt(3.0)), rel=1e-4)


def test_field_map_determinism_and_shape():
    spec = GridSpec(-0.5, 0.5, 0.0, 1.0, 21, 11)
    g1 = field_map(MirrorKind.S, 40.0, WireConfig(y0=0.6, a=0.1), spec)
    g2 = field_map("s", 40.0, WireConfig(y0=0.6, a=0.1), spec)
    assert isinstance(g1, FieldGrid)
    assert g1.values.shape == (21, 11)
    assert np.array_equal(g1.values, g2.values)
    # twelve open modes at kd = 40 feed the sum
    from wirescat.waveguide import open_channel_count
    assert open_channel_count(40.0) == 12
    # walls are nodal for the chi-built kinds
    assert np.max(np.abs(g1.values[:, 0])) <= 1e-12


def test_field_map_px_nodal_line():
    spec = GridSpec(-0.5, 0.5, 0.0, 1.0, 21, 11)   # includes x = 0 column
    g = field_map(MirrorKind.PX, 40.0, WireConfig(y0=0.6, a=0.1), spec)
    i0 = list(spec.xs).index(0.0)
    assert np.max(np.abs(g.values[i0, :])) <= 1e-10


def test_field_map_greens_below_threshold_real():
    spec = GridSpec(0.05, 0.6, 0.1, 0.9, 8, 6)
    g = field_map("greens", 0.5 * np.pi, WireConfig(y0=0.3, a=0.1), spec, tol=1e-10)
    assert np.max(np.abs(g.values.imag)) <= 1e-10


def test_field_map_rejects_bad_grid():
    with pytest.raises(DomainError):
        GridSpec(-0.5, 0.5, -0.1, 1.0, 10, 10)
    with pytest.raises(DomainError):
        GridSpec(-0.5, 0.5, 0.0, 1.0, 1, 10)


@pytest.mark.parametrize("y_min, y_max", [(0.3, 0.3), (0.7, 0.2), (0.0, 1.5), (float("nan"), 0.5),
                                          (0.2, float("nan"))])
def test_grid_y_range_must_increase_inside_the_strip(y_min, y_max):
    # equal or reversed bounds inside [0, 1] are refused as such, not as lying outside
    with pytest.raises(DomainError, match="y range must be increasing and inside") as info:
        GridSpec(-0.5, 0.5, y_min, y_max, 10, 10)
    assert f"y_min={y_min!r}, y_max={y_max!r}" in str(info.value)


def test_grid_identity_with_im_greens():
    cfg = WireConfig(y0=0.6, a=0.1)
    spec = GridSpec(-1.0, 1.0, 0.0, 1.0, 60, 25)
    gw = greens_kummer_grid(spec.xs, spec.ys, cfg.r0, 40.0, tol=1e-8)
    worst = 0.0
    for i, x in enumerate(spec.xs):
        for j, y in enumerate(spec.ys):
            worst = max(worst, abs(mirror_s((x, y), 40.0, cfg) + gw[i, j].imag))
    assert worst <= 1e-10


@pytest.mark.parametrize("kind", list(MirrorKind))
def test_mirror_waves_reject_points_outside_the_wire(kind):
    cfg = WireConfig(y0=0.3)
    for y in (1.5, 2.0, -1e-9):
        with pytest.raises(DomainError):
            mirror_partial(kind, (0.2, y), 7.85, cfg)
    # below kd = pi too, where only s_plus has a mode to evaluate
    with pytest.raises(DomainError):
        mirror_partial(kind, (0.2, 1.5), 0.5 * np.pi, cfg)


def test_field_map_evaluates_modes_once(monkeypatch):
    calls = []
    real = mirror.open_channel_count

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mirror, "open_channel_count", spy)
    spec = GridSpec(-0.5, 0.5, 0.0, 1.0, 21, 11)
    for kind in MirrorKind:
        calls.clear()
        field_map(kind, 40.0, WireConfig(y0=0.6, a=0.1), spec)
        assert len(calls) == 1


def test_mirror_waves_below_threshold():
    # only the n = 0 order of s_plus propagates below kd = pi
    k = 0.7 * np.pi
    cfg = WireConfig(y0=0.3, x0=0.13)
    spec = GridSpec(-1.0, 1.0, 0.0, 1.0, 40, 9)
    want = np.cos(k * (spec.xs - cfg.x0))[:, None] / k
    s_plus = field_map(MirrorKind.S_PLUS, k, cfg, spec).values
    assert np.max(np.abs(s_plus - want)) <= 1e-15
    for kind in (MirrorKind.S, MirrorKind.PX, MirrorKind.DXY, MirrorKind.F):
        assert np.all(field_map(kind, k, cfg, spec).values == 0.0)


def _kd_values():
    # generic kd and kd within 1e-6 of a mode opening (outside the 1e-9 guard)
    near = st.builds(lambda n, eps: n * np.pi + eps, st.integers(1, 12),
                     st.sampled_from([-1e-6, -1e-7, -1e-8, 1e-8, 1e-7, 1e-6]))
    return st.one_of(st.floats(0.3, 40.0), near)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kd=_kd_values(), y0=st.floats(0.01, 0.99), x=st.floats(-1.0, 1.0),
       y=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
def test_mirror_property_identities(kd, y0, x, y):
    assume(min(abs(kd - n * np.pi) for n in range(1, 14)) > 1e-9)
    cfg = WireConfig(y0=y0, a=0.1)
    # the Kummer oracle's plan needs a finite distance from the source
    assume(np.hypot(x - cfg.x0, y - y0) > 1e-3)
    gw = greens_kummer((x, y), cfg.r0, kd, 1e-10).value
    assert abs(mirror_s((x, y), kd, cfg) + gw.imag) <= 1e-10
    for kind in (MirrorKind.PX, MirrorKind.DXY, MirrorKind.F):
        assert mirror_partial(kind, cfg.r0, kd, cfg) == 0.0


@pytest.mark.parametrize("x_max", [-0.5, 0.25], ids=["decreasing", "empty"])
def test_grid_spec_refuses_an_x_range_that_does_not_increase(x_max):
    with pytest.raises(DomainError, match=rf"x range must be increasing, got x_min=0.25, x_max={x_max!r}$"):
        GridSpec(0.25, x_max, 0.0, 1.0, 3, 3)
