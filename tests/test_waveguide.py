"""Channel bookkeeping, transverse modes and the image array."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wirescat.errors import DomainError, ModeOpeningSingularity
from wirescat.waveguide import (DEFAULT_MODE_GUARD, WireConfig, _abs_kx, _kx, _n_open, channels, image_positions,
                                longitudinal_wavenumber, mode_opening_gaps, open_channel_count,
                                transverse_mode)


def test_open_channel_count_basic():
    assert open_channel_count(0.5 * np.pi) == 0
    assert open_channel_count(2.5 * np.pi) == 2
    assert open_channel_count(12.3 * np.pi) == 12


def test_open_channel_count_guard():
    with pytest.raises(ModeOpeningSingularity):
        open_channel_count(2.0 * np.pi)
    with pytest.raises(ModeOpeningSingularity):
        open_channel_count(np.pi * (1.0 + 1e-12))
    # below the first threshold there is nothing to open
    assert open_channel_count(1e-6) == 0


def test_longitudinal_wavenumber_branches():
    assert longitudinal_wavenumber(1, 2.0 * np.pi - 1e-3) == pytest.approx(
        np.sqrt((2.0 * np.pi - 1e-3) ** 2 - np.pi**2), abs=1e-12)
    k1 = longitudinal_wavenumber(1, 2.5 * np.pi)
    assert k1.imag == 0.0 and k1.real == pytest.approx(np.pi * np.sqrt(2.5**2 - 1), rel=1e-15)
    k3 = longitudinal_wavenumber(3, 2.0 * np.pi + 1e-3)
    assert k3.real == 0.0 and k3.imag > 0.0
    # algebra: m=3 at kd=2.5pi -> i pi sqrt(9 - 6.25)
    assert longitudinal_wavenumber(3, 2.5 * np.pi) == pytest.approx(
        1j * np.pi * np.sqrt(9 - 6.25), rel=1e-15)
    with pytest.raises(DomainError):
        longitudinal_wavenumber(0, 2.5 * np.pi)
    # per-mode guard: mode 1 is regular at the mode-2 opening...
    assert longitudinal_wavenumber(1, 2.0 * np.pi) == pytest.approx(
        np.pi * np.sqrt(3.0), rel=1e-15)
    # ...but each mode refuses its own threshold
    with pytest.raises(ModeOpeningSingularity):
        longitudinal_wavenumber(2, 2.0 * np.pi)


def test_channels_layout():
    ch = channels(2.5 * np.pi, 10)
    assert ch.n_open == 2
    assert np.all(ch.kx[:2].imag == 0.0)
    assert np.all(ch.kx[2:].real == 0.0)
    assert np.all(ch.kx[2:].imag > 0.0)
    assert np.all(np.diff(ch.kx[2:].imag) > 0.0)


def test_transverse_mode_values():
    d = 1.0
    assert transverse_mode(1, d / 2) == pytest.approx(np.sqrt(2.0 / d), rel=1e-15)
    assert transverse_mode(2, d / 2) == pytest.approx(0.0, abs=1e-15)
    for m in (1, 2, 5):
        assert transverse_mode(m, 0.0) == 0.0
    with pytest.raises(DomainError):
        transverse_mode(1, 1.2)


def test_transverse_mode_orthonormality():
    nodes, weights = np.polynomial.legendre.leggauss(200)
    y = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    for m in range(1, 11):
        for p in range(1, 11):
            val = np.sum(w * transverse_mode(m, y) * transverse_mode(p, y))
            assert abs(val - (1.0 if m == p else 0.0)) <= 1e-10


def test_image_positions_enumeration():
    cfg = WireConfig(y0=0.3, a=0.1)
    arr = image_positions(cfg, -3, 3)
    got = dict(zip(arr.indices.tolist(), arr.positions[:, 1].tolist()))
    signs = dict(zip(arr.indices.tolist(), arr.signs.tolist()))
    assert got[0] == pytest.approx(0.3) and signs[0] == 1.0
    assert got[1] == pytest.approx(1.7) and signs[1] == -1.0     # reflection across y = d
    assert got[-1] == pytest.approx(-0.3) and signs[-1] == -1.0  # reflection across y = 0
    assert got[2] == pytest.approx(2.3) and got[-2] == pytest.approx(-1.7)
    # full reflection orbit {2nd + y0} U {2nd - y0}
    expect = sorted([0.3, 1.7, 2.3, 3.7, -0.3, -1.7, -2.3])
    assert sorted(got.values()) == pytest.approx(expect)


def test_image_midpoints_on_walls():
    cfg = WireConfig(y0=0.37, a=0.1)
    arr = image_positions(cfg, -10, 10)
    mid = 0.5 * (arr.positions[:-1, 1] + arr.positions[1:, 1])
    assert np.max(np.abs(mid - np.round(mid))) <= 1e-12
    assert np.all(arr.signs[:-1] * arr.signs[1:] == -1.0)


def test_image_mirror_symmetry():
    a = image_positions(WireConfig(y0=0.3, a=0.1), -8, 8).positions[:, 1]
    b = image_positions(WireConfig(y0=0.7, a=0.1), -8, 8).positions[:, 1]
    assert np.allclose(np.sort(a), np.sort(1.0 - b), atol=1e-14)


def test_image_range_must_include_source():
    with pytest.raises(DomainError):
        image_positions(WireConfig(y0=0.3, a=0.1), 1, 5)


def test_wire_config_validation():
    with pytest.raises(DomainError):
        WireConfig(y0=0.0, a=0.1)
    with pytest.raises(DomainError):
        WireConfig(y0=1.0, a=0.1)
    with pytest.raises(DomainError):
        WireConfig(y0=0.5, a=0.6)
    cfg = WireConfig(y0=0.5, a=-0.1)
    assert cfg.r0 == (0.0, 0.5)


def _kd_values():
    """kd in (0, 40 pi): anywhere, or within 1e-8 of an opening n pi but outside its guard band."""
    near = st.tuples(st.integers(1, 40), st.floats(1.01 * DEFAULT_MODE_GUARD, 1e-8), st.sampled_from((-1.0, 1.0)))
    return st.one_of(st.floats(1e-3, 40 * np.pi), near.map(lambda t: t[0] * np.pi + t[2] * t[1]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kds=st.lists(_kd_values(), min_size=1, max_size=4), extra=st.integers(0, 30))
def test_every_kx_is_the_one_kx(kds, extra):
    # channels, longitudinal_wavenumber and _kx read one r_m (_abs_kx) on the branch N picks
    kd = np.array(kds)
    assume(not mode_opening_gaps(kd)[1].any())  # 40 pi itself, say
    m = np.arange(1, max(np.max(_n_open(kd)), 1) + extra + 1)
    kx, r = _kx(kd, m), _abs_kx(kd[:, None], m)
    assert np.abs(kx).tobytes() == r.tobytes()
    is_open = m <= _n_open(kd)[:, None]
    assert np.all(kx.real[is_open] > 0.0) and np.all(kx.imag[is_open] == 0.0)
    assert np.all(kx.real[~is_open] == 0.0) and np.all(kx.imag[~is_open] > 0.0)
    # k_x^2 + (m pi)^2 = kd^2, to the rounding of kd^2 - (m pi)^2
    scale = np.maximum(kd[:, None] ** 2, (m * np.pi) ** 2)
    assert np.all(np.abs((kx * kx).real + (m * np.pi) ** 2 - kd[:, None] ** 2) <= 8e-16 * scale)
    batch = channels(kd, m.size)
    assert batch.kx.tobytes() == kx.tobytes()
    for i, kd_i in enumerate(kds):
        # a batch of kd holds the bits of its lone calls
        assert _kx(kd_i, m).tobytes() == kx[i].tobytes() == channels(kd_i, m.size).kx.tobytes()
        lone = np.array([longitudinal_wavenumber(int(j), kd_i) for j in m])
        assert lone.tobytes() == kx[i].tobytes()
