"""S-matrix assembly, cross sections, conductance, phase shift, edge laws."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wirescat.errors import DegenerateMode, DomainError, ModeOpeningSingularity, PoleEncountered, WireError
from wirescat.mirror import renormalized_mirror_at_impurity
from wirescat.renorm import attach_strength, renorm_grid, renorm_state, t_matrix
from wirescat.scattering import (conductance, cross_section, cross_section_mode,
                                 forward_amplitude, free_cross_section,
                                 optical_residual, phase_shift, s_matrix,
                                 sigma_edge_asymptote, sigma_from_greens)
from wirescat.waveguide import WireConfig

KD = 2.5 * np.pi
CFG = WireConfig(y0=0.3, a=0.1)
J0_ROOT_1 = 2.404825557695773
BOUND_KD, BOUND_CFG = 2.647549698739732, WireConfig(y0=0.3, a=-0.1)  # 1 - s G_r = 0 below kd = pi


def test_smatrix_structure():
    sm = s_matrix(KD, CFG)
    assert sm.n_open == 2
    assert np.allclose(sm.trans, np.eye(2) - sm.refl, atol=0)       # T = I - R
    assert sm.unitarity_residual <= 1e-10
    assert sm.rank_one_residual <= 1e-10
    assert sm.conductance == pytest.approx(sm.n_open - sm.sigma, abs=1e-12)
    tr = float(np.trace(sm.trans.conj().T @ sm.trans).real)
    assert tr == pytest.approx(sm.conductance, abs=1e-10)


def test_smatrix_transparent_impurity():
    sm = s_matrix(KD, WireConfig(y0=0.3, a=0.0))
    assert np.all(sm.refl == 0.0)
    assert np.allclose(sm.trans, np.eye(2), atol=0)
    assert sm.sigma == 0.0 and sm.conductance == 2.0


def test_smatrix_center_decouples_even_mode():
    sm = s_matrix(KD, WireConfig(y0=0.5, a=0.1))
    assert np.max(np.abs(sm.refl[1, :])) <= 1e-15
    assert np.max(np.abs(sm.refl[:, 1])) <= 1e-15
    assert abs(sm.trans[1, 1] - 1.0) <= 1e-15


def test_smatrix_mode_opening_guard():
    with pytest.raises(ModeOpeningSingularity):
        s_matrix(2.0 * np.pi, CFG)


def test_cross_section_modes_sum():
    sm = s_matrix(KD, CFG)
    total = sum(cross_section_mode(n, KD, CFG) for n in (1, 2))
    assert total / 1.0 == pytest.approx(sm.sigma, abs=1e-12)
    assert all(cross_section_mode(n, KD, CFG) > 0.0 for n in (1, 2))
    assert cross_section_mode(2, KD, WireConfig(y0=0.5, a=0.1)) <= 1e-30
    with pytest.raises(DomainError):
        cross_section_mode(3, KD, CFG)


def test_cross_section_range_and_convention():
    assert cross_section(0.5 * np.pi, CFG) == 0.0       # below threshold by convention
    sig = cross_section(KD, CFG)
    assert 0.0 <= sig <= 1.0


def test_conductance_values():
    assert conductance(0.5 * np.pi, CFG) == 0.0
    assert conductance(KD, WireConfig(y0=0.3, a=0.0)) == 2.0
    g = conductance(KD, CFG)
    assert 1.0 - 1e-10 <= g <= 2.0 + 1e-10


def test_free_cross_section():
    assert free_cross_section(J0_ROOT_1 / 0.1, 0.1) <= 1e-25
    s = t_matrix(KD, 0.1).s
    assert free_cross_section(KD, 0.1) == pytest.approx(-2.0 * s.imag / KD, rel=1e-12)
    # observed (not asserted as a theorem): decreasing with k between roots
    ks = np.linspace(np.pi, 13.0 * np.pi, 25)
    vals = [free_cross_section(k, 0.1) for k in ks]
    assert vals[0] > vals[-1]


def test_optical_residual_detector():
    assert optical_residual(KD, CFG) <= 1e-10
    # perturbing Rs by 1e-6 must move the residual well above the pass level
    st = renorm_state(KD, CFG)
    rs = st.rs + 1e-6
    assert abs(abs(rs) ** 2 * st.sigma_open + rs.imag) > 1e-8
    assert optical_residual(KD, WireConfig(y0=0.3, a=0.0)) == 0.0


def test_forward_amplitude_diagnostic():
    st = renorm_state(KD, CFG)
    fn = forward_amplitude(1, KD, CFG)
    assert fn == pytest.approx(-1j * st.rs * np.sqrt(2.0) * np.sin(np.pi * 0.3)
                               / np.sqrt(KD**2 - np.pi**2), rel=1e-12)
    # per-channel optical theorem sigma_n = -Re[chi_n(y0) f_n] over every open n
    for kd, y0, a in ((KD, 0.3, 0.1), (7.3 * np.pi, 0.17, -0.05), (12.2 * np.pi, 0.5, 0.02)):
        cfg = WireConfig(y0=y0, a=a)
        for n in range(1, int(kd // np.pi) + 1):
            chi = np.sqrt(2.0) * np.sin(n * np.pi * y0)
            assert abs(cross_section_mode(n, kd, cfg)
                       + (chi * forward_amplitude(n, kd, cfg)).real) <= 1e-15


def test_phase_shift_properties():
    ps = phase_shift(KD, CFG)
    assert ps.unit_modulus_residual <= 1e-12
    assert 0.25 * abs(1.0 - ps.e2id) ** 2 == pytest.approx(cross_section(KD, CFG), abs=1e-10)
    assert 0.0 <= ps.delta0 < np.pi
    # delta ~ pi/2 <-> sigma ~ 1 just above an opening
    near = phase_shift(2.0 * np.pi + 1e-8, WireConfig(y0=0.05, a=0.1))
    assert abs(near.delta0 - np.pi / 2) <= 1e-2
    # transparent impurity: delta = 0, sigma = 0
    zero = phase_shift(KD, WireConfig(y0=0.3, a=0.0))
    assert zero.delta0 == 0.0 and zero.e2id == 1.0 + 0.0j


def _outcome(call):
    try:
        return call()
    except WireError as exc:
        return exc


# closed, open and near-opening kd, the bound state, and kd <= 0, NaN, +-inf and guard-band kd
_ARRAY_KD = st.one_of(st.floats(0.05, 3.1), st.floats(3.2, 40.0), st.just(BOUND_KD),
                      st.builds(lambda n, eps: n * np.pi + eps, st.integers(1, 12),
                                st.sampled_from([-1e-6, -1e-8, 1e-8, 1e-6])),
                      st.sampled_from([0.0, -1.0, np.nan, np.inf, -np.inf, 3 * np.pi + 1e-10, 2 * np.pi - 1e-10, np.pi - 1e-10]))
_ARRAY_OBSERVABLES = {
    "cross_section": (cross_section, lambda v, i: v[i]),
    "conductance": (conductance, lambda v, i: v[i]),
    "free_cross_section": (lambda k, cfg: free_cross_section(k, cfg.a), lambda v, i: v[i]),
    "phase_shift": (phase_shift, lambda v, i: (v.delta0[i], v.e2id[i])),
    "renorm_state": (renorm_state, lambda v, i: vars(v[i])),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kds=st.lists(_ARRAY_KD, min_size=1, max_size=5),
       cfg=st.sampled_from([BOUND_CFG, WireConfig(y0=0.3, a=0.0), WireConfig(y0=0.61, a=0.07)]))
@example(kds=[4.0, 7.5, 11.0], cfg=CFG)
@example(kds=[4.0, BOUND_KD, 0.5], cfg=BOUND_CFG)
@example(kds=[np.inf, -1.0], cfg=CFG)
def test_array_observables_are_their_lone_calls(kds, cfg):
    # an array call equals its lone calls bit for bit, or raises the error of the first lone
    # call that raises; renorm_state's guard refuses every bad kd before a pole (attach_strength)
    for name, (fn, element) in _ARRAY_OBSERVABLES.items():
        lone = [_outcome(lambda: fn(k, cfg)) for k in kds]
        errors = [e for e in lone if isinstance(e, WireError)]
        if errors:
            first = next((e for e in errors if not isinstance(e, PoleEncountered)), errors[0])
            with pytest.raises(type(first)) as exc:
                fn(np.array(kds), cfg)
            assert str(exc.value) == str(first), name
            continue
        out = fn(np.array(kds), cfg)
        one = [element(fn(np.array(k), cfg), ()) for k in kds]
        assert [element(out, i) for i in range(len(kds))] == one, name
        assert one == [element(v, ()) for v in lone], name
        if name in ("cross_section", "conductance") and cfg is BOUND_CFG and BOUND_KD in kds:
            assert out[kds.index(BOUND_KD)] == 0.0  # a closed element: nothing built, nothing raised


def test_phase_shift_below_threshold_is_a_domain_error_even_at_a_bound_state():
    # kd = 2.6475... is the sub-threshold bound state of (a, y0) = (-0.1, 0.3):
    # 1 - s G_r vanishes there, so building the state first would hit the pole
    # one refusal, with one message, for every observable that needs an open channel
    cfg = WireConfig(y0=0.3, a=-0.1)
    messages = set()
    for kd in (2.647549698739732, 0.5 * np.pi):
        for call in (lambda: phase_shift(kd, cfg), lambda: renormalized_mirror_at_impurity(kd, cfg),
                     lambda: s_matrix(kd, cfg), lambda: cross_section_mode(1, kd, cfg),
                     lambda: forward_amplitude(1, kd, cfg)):
            with pytest.raises(DomainError, match="open channel") as exc:
                call()
            messages.add(str(exc.value))
    assert len(messages) == 1


def test_sigma_edge_asymptote_scaling():
    base = sigma_edge_asymptote(2, 1e-6, 0.05)
    assert sigma_edge_asymptote(2, 2e-6, 0.05) == pytest.approx(2.0 * base, rel=1e-12)
    full = cross_section(2.0 * np.pi - 1e-6, WireConfig(y0=0.05, a=0.1))
    assert base / full == pytest.approx(1.0, abs=0.1)
    with pytest.raises(DegenerateMode):
        sigma_edge_asymptote(2, 1e-6, 0.5)


def test_sigma_from_greens_kummer_route():
    assert sigma_from_greens(KD, CFG, "kummer") == pytest.approx(
        cross_section(KD, CFG), abs=1e-8)
    assert sigma_from_greens(KD, WireConfig(y0=0.3, a=0.0), "kummer") == 0.0
    assert sigma_from_greens(KD, WireConfig(y0=0.3, a=0.0), "semiclassical") == 0.0


@pytest.mark.parametrize("kd", [2.0, 5.0])
def test_sigma_from_greens_refuses_an_unknown_variant_at_every_kd(kd):
    # the closed wire (kd = 2) answers 0 only for a known variant
    with pytest.raises(DomainError, match="unknown variant 'bogus'"):
        sigma_from_greens(kd, WireConfig(y0=0.3), "bogus")


def test_sigma_from_greens_matches_its_grid_evaluation():
    # at these kd C pow's x ** 2 of Python's abs differs in the last bit
    # from np.square(np.abs(x)), which the grid arithmetic uses
    kd = np.array([4.3494835724512555, 7.64073199010928, 8.207931263900685])
    st = attach_strength(renorm_grid(kd, CFG.y0), np.array([t_matrix(k, CFG.a).s for k in kd]))
    grid = np.square(np.abs(st.rs * (0.5 - st.g_r.imag)))
    assert [sigma_from_greens(k, CFG, "kummer") for k in kd.tolist()] == grid.tolist()


def test_sigma_from_greens_semiclassical_resonance_positions():
    """Strong maxima of the semiclassical renormalized amplitude sit at odd
    multiples of pi for a centered impurity (wavelets in phase per double
    bounce); amplitude = sqrt(sigma)/|s|."""
    cfg = WireConfig(y0=0.5, a=0.1)
    kds = np.linspace(1.2 * np.pi, 9.8 * np.pi, 3000)
    amp = np.array([np.sqrt(sigma_from_greens(kd, cfg, "semiclassical"))
                    / abs(t_matrix(kd, cfg.a).s) for kd in kds])
    peaks = np.where((amp[1:-1] > amp[:-2]) & (amp[1:-1] > amp[2:]))[0] + 1
    strong = peaks[amp[peaks] >= 0.4 * amp.max()]
    assert len(strong) >= 2
    for idx in strong:
        harmonic = kds[idx] / np.pi
        nearest_odd = 2 * round((harmonic - 1) / 2) + 1
        assert abs(harmonic - nearest_odd) <= 0.05


def test_resonance_thresholds():
    cfg = WireConfig(y0=0.05, a=0.1)
    assert cross_section(2.0 * np.pi - 1e-4, cfg) <= 1e-3
    seq = [cross_section(2.0 * np.pi + eps, cfg) for eps in (1e-4, 1e-6, 1e-8)]
    assert seq[1] >= 0.9
    assert seq[0] < seq[1] < seq[2]


def test_missing_resonance_at_center():
    cfg = WireConfig(y0=0.5, a=0.1)
    assert abs(cross_section(2.0 * np.pi + 1e-6, cfg)
               - cross_section(2.0 * np.pi - 1e-6, cfg)) <= 1e-3
    jump = cross_section(3.0 * np.pi + 1e-6, cfg) - cross_section(3.0 * np.pi - 1e-6, cfg)
    assert jump > 0.9


@pytest.mark.parametrize("variant", ["kummer", "semiclassical"])
def test_sigma_from_greens_is_zero_below_the_first_opening(variant):
    # no channel is open at kd < pi, so there is no cross section to reconstruct
    assert sigma_from_greens(2.0, CFG, variant) == 0.0


def test_the_sigma_edge_law_needs_an_open_mode_below_its_threshold():
    with pytest.raises(DomainError, match="edge law needs at least one mode open below the threshold"):
        sigma_edge_asymptote(1, 1e-6, 0.3)
