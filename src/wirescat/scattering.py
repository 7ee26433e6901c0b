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
scattering channel (phi_s~(r0) = Sigma/(1 - s G_r)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import DegenerateMode, DomainError
from .greens import semiclassical_renorm_sum
from .renorm import RenormState, attach_strength, renorm_state, t_matrix
from .waveguide import WireConfig, channels, open_channel_count, transverse_mode

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

_D = 1.0


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


@dataclass(frozen=True)
class PhaseShift:
    """s-wave phase shift analog of the confined scatterer."""

    delta0: float
    e2id: complex

    @classmethod
    def from_state(cls, st: RenormState) -> "PhaseShift":
        """e^{2 i delta_0} = 1 - 2 i Rs Sigma from a state with the strength attached.

        Elementwise for a grid state.
        """
        e2id = 1.0 - 2j * st.rs * st.sigma_open
        return cls(delta0=np.angle(e2id) / 2.0 % np.pi, e2id=e2id)

    @property
    def unit_modulus_residual(self) -> float:
        return abs(abs(self.e2id) - 1.0)


def s_matrix(k: float, cfg: WireConfig, tol: float = 1e-12) -> SMatrixResult:
    """Assemble R, T and the derived observables for the open channels."""
    n = open_channel_count(k * _D)
    if n < 1:
        raise DomainError("no open channels below kd = pi; sweeps report sigma = 0 there")
    return _state_s_matrix(renorm_state(k, cfg, tol), n)


def _state_s_matrix(st: RenormState, n: int) -> SMatrixResult:
    """SMatrixResult of a state with the strength attached and n open channels.

    A grid state whose elements all have n open channels gives the stack of
    their S matrices.
    """
    kx = channels(st.k * _D, n).kx.real
    v = transverse_mode(np.arange(1, n + 1), st.y0).T / np.sqrt(kx)
    rs = np.asarray(st.rs)[..., None]
    refl = 1j * rs[..., None] * (v[..., :, None] * v[..., None, :])
    sigma_modes = abs(rs) ** 2 * _D * (v * v) * np.asarray(st.sigma_open)[..., None]
    return SMatrixResult(k=st.k, n_open=n, refl=refl, trans=np.eye(n) - refl,
                         sigma_n=sigma_modes, sigma=st.cross_section,
                         conductance=n - st.cross_section)


def cross_section_mode(n: int, k: float, cfg: WireConfig, tol: float = 1e-12) -> float:
    """sigma_n = |Rs|^2 d (chi_n^2(y0)/k_x^(n)) Sigma for open mode n."""
    if not 1 <= n <= open_channel_count(k * _D):
        raise DomainError(f"mode {n} is not open at kd = {k * _D!r}")
    return float(s_matrix(k, cfg, tol).sigma_n[n - 1])


def cross_section(k: float, cfg: WireConfig, tol: float = 1e-12) -> float:
    """Total cross section as a fraction of the wire width; 0 below kd = pi."""
    if k * _D < np.pi:
        return 0.0
    return renorm_state(k, cfg, tol).cross_section


def conductance(k: float, cfg: WireConfig, tol: float = 1e-12) -> float:
    """Two-terminal conductance N - sigma in quanta; 0 below first threshold."""
    if k * _D < np.pi:
        return 0.0
    return float(open_channel_count(k * _D) - renorm_state(k, cfg, tol).cross_section)


def free_cross_section(k: float, a: float) -> float:
    """Free-space cross section sigma_f = |s|^2 / k (a length)."""
    if k <= 0.0:
        raise DomainError("k must be positive")
    if a == 0.0:
        return 0.0
    return t_matrix(k, a).cross_section


def optical_residual(k: float, cfg: WireConfig, tol: float = 1e-12) -> float:
    """Residual of the waveguide optical theorem |Rs|^2 Sigma + Im Rs."""
    return renorm_state(k, cfg, tol).optical_residual


def forward_amplitude(n: int, k: float, cfg: WireConfig, tol: float = 1e-12) -> complex:
    """Forward amplitude f_n = -i Rs chi_n(y0) / k_x^(n) of open mode n.

    It obeys the per-channel optical theorem sigma_n = -Re[chi_n(y0) f_n].
    """
    n_open = open_channel_count(k * _D)
    if not 1 <= n <= n_open:
        raise DomainError(f"mode {n} is not open at kd = {k * _D!r}")
    st = renorm_state(k, cfg, tol)
    kx = channels(k * _D, n_open).kx_open
    return complex(-1j * st.rs * transverse_mode(n, cfg.y0) / kx[n - 1])


def phase_shift(k: float, cfg: WireConfig, tol: float = 1e-12) -> PhaseShift:
    """Phase shift of the scattering channel: e^{2 i delta_0} = 1 - 2 i s phi_s~(r0).

    This is the eigenvalue of S on the symmetric scattering combination; the
    optical constraint pins it to the unit circle, and
    sigma = (1/4)|1 - e^{2 i delta_0}|^2 = sin^2(delta_0).
    """
    st = renorm_state(k, cfg, tol)
    if int(np.floor(k * _D / np.pi)) < 1:
        raise DomainError("phase shift needs at least one open channel")
    return PhaseShift.from_state(st)


def sigma_edge_asymptote(n_mode: int, eps: float, y0: float) -> float:
    """Leading-order sigma at kd = n_mode*pi - eps (eps in kd units).

    Just below the opening Rs -> -1/G_r with G_r ~ -chi_N^2 d/sqrt(2 pi N eps)
    while phi_s(r0) stays finite, giving the linear-in-eps law

        sigma ~ 2 N (eps/pi) | sum_{n<N} (chi_n(y0)/chi_N(y0))^2 / sqrt(N^2-n^2) |^2.
    """
    if n_mode < 2:
        raise DomainError("edge law needs at least one mode open below the threshold")
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    chi_n2 = transverse_mode(n_mode, y0) ** 2
    if chi_n2 < 1e-24:
        raise DegenerateMode(f"mode {n_mode} has a node at y0={y0!r}")
    n = np.arange(1, n_mode)
    total = np.sum((transverse_mode(n, y0) ** 2 / chi_n2) / np.sqrt(n_mode**2 - n**2))
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
    if cfg.a == 0.0:
        return 0.0
    if k * _D < np.pi:
        return 0.0
    if variant == "kummer":
        st = renorm_state(k, cfg, tol)
    elif variant == "semiclassical":
        g_r = semiclassical_renorm_sum(k, cfg.y0)
        base = RenormState(k=k, y0=cfg.y0, g_r=g_r, sigma_open=0.5 - g_r.imag,
                           tail_bound=float("inf"), terms_used=0)
        st = attach_strength(base, t_matrix(k, cfg.a).s)
    else:
        raise DomainError(f"unknown variant {variant!r}")
    return float(np.square(np.abs(st.rs * (0.5 - st.g_r.imag))))
