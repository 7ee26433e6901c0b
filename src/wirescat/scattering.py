"""S-matrix, cross sections, conductance and the waveguide optical theorem.

With flux-normalized open modes phi^(n) = chi_n(y) exp(+-i k_x^(n) x)/sqrt(k_x^(n)),
a single impurity is a rank-one target: the outgoing amplitude in every
channel is proportional to Rs chi_n(y0) chi_m(y0)/sqrt(k_x^(n) k_x^(m)) with
Rs = s/(1 - s G_r).  We store

    R_mn = i Rs chi_n(y0) chi_m(y0) / sqrt(k_x^(n) k_x^(m)),   T = I - R,

    S = [[R, T], [T, R]],

a sign convention (outgoing left-movers re-phased by -1) under which
T = I - R holds by construction and S is exactly unitary whenever the
optical constraint |Rs|^2 Sigma = -Im Rs holds.  Reflection probabilities,
cross sections and Tr T^dag T are convention independent.

Observables (d = 1, conductance in quanta of 2e^2/h):

    sigma_n = |Rs|^2 d (chi_n^2(y0)/k_x^(n)) Sigma          per incoming mode
    sigma   = |Rs|^2 Sigma^2 = Im(Rs)^2/|Rs|^2 = |s phi_s~(r0)|^2
            = (1/4)|1 - e^{2 i delta_0}|^2,                  0 <= sigma <= 1
    G       = N - sigma = Tr T^dag T

with e^{2 i delta_0} = 1 - 2 i s phi_s~(r0) the eigenvalue of S in the one
scattering channel (phi_s~(r0) = Sigma/(1 - s G_r)).  cross_section, conductance,
free_cross_section and phase_shift are elementwise over kd (a lone kd is the 0-d case, and an array
raises its first bad kd's error); sigma and G are 0 below kd = pi, where renorm._zero_below_pi builds
no state, even at a bound state, and those needing an open channel refuse it in renorm._open_state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import DomainError
from .greens import semiclassical_renorm_sum
from .renorm import (PhaseShift, RenormState, _open_state, _threshold_chi2, _zero_below_pi, attach_strength,
                     renorm_state, t_matrix, t_matrix_grid)
from .specfun import _integer_in
from .waveguide import WireConfig, _abs_kx, _chi, _closed

__all__ = [
    "SMatrixResult",
    "PhaseShift",
    "s_matrix",
    "cross_section_mode",
    "cross_section",
    "conductance",
    "free_cross_section",
    "optical_residual",
    "forward_amplitude",
    "phase_shift",
    "sigma_edge_asymptote",
    "sigma_from_greens",
]


@dataclass(frozen=True)
class SMatrixResult:
    """Open-channel scattering data at one wavenumber, or a stack of them sharing n_open.

    For a stack every field gains a leading axis and the properties are per matrix.
    """

    k: float
    n_open: int
    refl: np.ndarray = field(repr=False)
    trans: np.ndarray = field(repr=False)
    sigma_n: np.ndarray = field(repr=False)
    sigma: float
    conductance: float

    @property
    def full_matrix(self) -> np.ndarray:
        """The 2N x 2N block S-matrix [[R, T], [T, R]]."""
        return np.block([[self.refl, self.trans], [self.trans, self.refl]])

    @property
    def unitarity_residual(self) -> float:
        """max |S^dag S - I| over the entries."""
        s = self.full_matrix
        dev = np.swapaxes(s.conj(), -1, -2) @ s - np.eye(2 * self.n_open)
        return np.max(np.abs(dev), axis=(-2, -1))[()]

    @property
    def rank_one_residual(self) -> float:
        """Second singular value of R over the first (0 for an exact rank-one R)."""
        sv = np.linalg.svd(self.refl, compute_uv=False)
        if self.n_open < 2:
            return np.zeros(sv.shape[:-1])[()]
        first = np.where(sv[..., 0] == 0.0, 1.0, sv[..., 0])
        return (sv[..., 1] / first)[()]


def s_matrix(k: float, cfg: WireConfig, tol: float = 1e-12) -> SMatrixResult:
    """Assemble R, T and the derived observables for the open channels."""
    return _state_s_matrix(_open_state(k, cfg, tol))


def _state_s_matrix(st: RenormState) -> SMatrixResult:
    """SMatrixResult of a state with the strength attached, over its st.n_open channels.

    A grid state whose elements all share one open-channel count gives the
    stack of their S matrices.
    """
    (n,) = np.unique(st.n_open).tolist()  # a stack with mixed counts fails here
    kx = _abs_kx(np.asarray(st.k, dtype=float)[..., None], np.arange(1, n + 1))
    v = _chi(np.arange(1, n + 1), st.y0).T / np.sqrt(kx)
    rs = np.asarray(st.rs)[..., None]
    refl = 1j * rs[..., None] * (v[..., :, None] * v[..., None, :])
    sigma_modes = abs(rs) ** 2 * (v * v) * np.asarray(st.sigma_open)[..., None]
    return SMatrixResult(k=st.k, n_open=n, refl=refl, trans=np.eye(n) - refl,
                         sigma_n=sigma_modes, sigma=st.cross_section, conductance=st.conductance)


def _open_mode_state(n, k: float, cfg: WireConfig, tol: float) -> RenormState:
    """_open_state(k, cfg, tol), before any S matrix, once n is an integer open-mode index 1..N."""
    st = _open_state(k, cfg, tol)
    if not _integer_in(n, 1, st.n_open):
        raise DomainError(f"mode must be an integer in 1..{st.n_open} at kd = {k!r}, got {n!r}")
    return st


def cross_section_mode(n: int, k: float, cfg: WireConfig, tol: float = 1e-12) -> float:
    """sigma_n = |Rs|^2 d (chi_n^2(y0)/k_x^(n)) Sigma for open mode n."""
    return float(_state_s_matrix(_open_mode_state(n, k, cfg, tol)).sigma_n[n - 1])


def cross_section(k, cfg: WireConfig, tol: float = 1e-12) -> float:
    """Total cross section as a fraction of the wire width, elementwise over kd; 0 below kd = pi."""
    return _zero_below_pi(k, lambda kd: renorm_state(kd, cfg, tol).cross_section)


def conductance(k, cfg: WireConfig, tol: float = 1e-12) -> float:
    """Two-terminal conductance N - sigma in quanta, elementwise over kd; 0 below first threshold."""
    return _zero_below_pi(k, lambda kd: renorm_state(kd, cfg, tol).conductance)


def free_cross_section(k, a: float) -> float:
    """Free-space cross section sigma_f = |s|^2 / k (a length), elementwise over k; 0 for a = 0."""
    return t_matrix_grid(k, a).cross_section[()]


def optical_residual(k: float, cfg: WireConfig, tol: float = 1e-12) -> float:
    """Residual of the waveguide optical theorem |Rs|^2 Sigma + Im Rs."""
    return renorm_state(k, cfg, tol).optical_residual


def forward_amplitude(n: int, k: float, cfg: WireConfig, tol: float = 1e-12) -> complex:
    """Forward amplitude f_n = -i Rs chi_n(y0) / k_x^(n) of open mode n.

    It obeys the per-channel optical theorem sigma_n = -Re[chi_n(y0) f_n].
    """
    st = _open_mode_state(n, k, cfg, tol)
    return complex(-1j * st.rs * _chi(n, cfg.y0) / _abs_kx(k, np.array([n]))[0])


def phase_shift(k, cfg: WireConfig, tol: float = 1e-12) -> PhaseShift:
    """Phase shift of the scattering channel: e^{2 i delta_0} = 1 - 2 i s phi_s~(r0).

    This is the eigenvalue of S on the symmetric scattering combination; the
    optical constraint pins it to the unit circle, and
    sigma = (1/4)|1 - e^{2 i delta_0}|^2 = sin^2(delta_0).  Elementwise over
    kd, each of which must open a channel.
    """
    return _open_state(k, cfg, tol).phase_shift


def sigma_edge_asymptote(n_mode: int, eps: float, y0: float) -> float:
    """Leading-order sigma at kd = n_mode*pi - eps (eps in kd units, in (0, 1e-3]).

    Just below the opening Rs -> -1/G_r with G_r ~ -chi_N^2 d/sqrt(2 pi N eps)
    while phi_s(r0) stays finite, giving the linear-in-eps law

        sigma ~ 2 N (eps/pi) | sum_{n<N} (chi_n(y0)/chi_N(y0))^2 / sqrt(N^2-n^2) |^2.
    """
    if n_mode < 2:
        raise DomainError("edge law needs at least one mode open below the threshold")
    chi_n2 = _threshold_chi2(n_mode, eps, y0)
    n = np.arange(1, n_mode)
    total = np.sum((_chi(n, y0) ** 2 / chi_n2) / np.sqrt(n_mode**2 - n**2))
    return float(2.0 * n_mode * (eps / np.pi) * total**2)


def sigma_from_greens(k: float, cfg: WireConfig,
                      variant: Literal["kummer", "semiclassical"] = "kummer",
                      tol: float = 1e-12) -> float:
    """Cross section from empty-guide Green's function data alone.

    sigma = |s Im G_w / (1 - s [G_w - G_0])|^2 in the coincidence limit,
    i.e. |s phi_s(r0) / (1 - s G_r)|^2 with phi_s(r0) = 1/2 - Im G_r.

    ``kummer`` uses the exact tail-completed G_r and reproduces
    cross_section; ``semiclassical`` substitutes the asymptotic image sum
    (no accuracy contract, resonance-position diagnostic only).
    """
    if variant not in ("kummer", "semiclassical"):
        raise DomainError(f"unknown variant {variant!r}")
    if _closed(k):
        return 0.0
    if variant == "kummer":
        st = renorm_state(k, cfg, tol)
    else:
        g_r = semiclassical_renorm_sum(k, cfg.y0)
        base = RenormState(k=k, y0=cfg.y0, g_r=g_r, sigma_open=0.5 - g_r.imag,
                           tail_bound=float("inf"), terms_used=0)
        st = attach_strength(base, t_matrix(k, cfg.a).s)
    return float(np.square(np.abs(st.rs * (0.5 - st.g_r.imag))))
