"""Impurity strength s(k), the renormalization sum G_r and the Foldy solver.

The impurity is an s-wave point scatterer of strength

    s(k) = -2i J_0(k a) / H_0^(1)(k a)        (hard disk, a > 0)

which satisfies the free-space optical theorem -2 Im s = |s|^2 identically.
Negative scattering lengths (attractive impurity) are modelled by
conjugating the denominator phase, s = -2i J_0(k|a|) / [J_0 - i Y_0], which
flips the sign of the phase shift while preserving the optical theorem.

Confinement renormalizes the incident amplitude at the impurity by
1/(1 - s G_r), where

    G_r = lim_{r -> r0} [G_w(r, r0) - G_0(r, r0)]
        = sum_m (1/(i k_x^(m)) + d/(m pi)) chi_m^2(y0)
          - (1/pi) ln[(kd/pi) sin(pi y0/d)] + i/2 - gamma/pi

(gamma the Euler-Mascheroni constant).  Two identities anchor everything
downstream and are enforced by the test suite:

    Im G_r = 1/2 - Sigma,       Sigma = sum_open chi_m^2(y0)/k_x^(m)
    |Rs|^2 Sigma = -Im Rs,      Rs = s/(1 - s G_r)

the second being the waveguide optical theorem (it forces S-matrix
unitarity).  G_r is the Kummer Green's function's mode sum at r = r0 with
the static form replaced by the constant above, summed and tail-completed
by the same greens kernel and truncation plan, so ~300 modes already give
~1e-14.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .errors import (BornDiverged, DegenerateMode, DomainError, PoleEncountered,
                     SingularSystem)
from .greens import EULER_GAMMA  # noqa: F401  (callers import it from here too)
from .greens import _kummer_plan, _kummer_value
from .specfun import cylinder_bessel_j, cylinder_bessel_y, hankel1
from .waveguide import WireConfig, channels, open_channel_count, transverse_mode

__all__ = [
    "TMatrix",
    "RenormState",
    "FoldyProblem",
    "t_matrix",
    "hard_disk_boundary_check",
    "renorm_sum",
    "renorm_grid",
    "attach_strength",
    "renorm_state",
    "effective_strength",
    "gr_edge_asymptote",
    "foldy_solve",
]

_D = 1.0
POLE_THRESHOLD = 1e-14
# elements of the largest (rows x modes) temporary that renorm_grid builds
_BLOCK = 2 ** 12


@dataclass(frozen=True)
class TMatrix:
    """Free-space s-wave scattering strength at one wavenumber (or arrays of them)."""

    k: float
    a: float
    s: complex

    @property
    def optical_residual(self) -> float:
        """|-2 Im s - |s|^2|; zero up to rounding for any admissible strength."""
        return abs(-2.0 * self.s.imag - np.square(np.abs(self.s)))

    @property
    def cross_section(self) -> float:
        """Free-space cross section sigma_f = |s|^2 / k (a length)."""
        return np.square(np.abs(self.s)) / self.k


@dataclass(frozen=True)
class RenormState:
    """G_r, the open-channel sum Sigma and (optionally) the effective strength.

    From renorm_grid every field is an array and the properties are elementwise.
    """

    k: float
    y0: float
    g_r: complex
    sigma_open: float
    tail_bound: float
    terms_used: int
    s: complex | None = None
    rs: complex | None = None
    renorm_factor: complex | None = None

    @property
    def im_identity_residual(self) -> float:
        """|Im G_r - (1/2 - Sigma)|; analytic identity, rounding-level."""
        return abs(self.g_r.imag - (0.5 - self.sigma_open))

    @property
    def cross_section(self) -> float:
        """sigma = |Rs|^2 Sigma^2 as a fraction of the wire width (strength attached)."""
        if self.rs is None:
            raise DomainError("cross_section needs the effective strength attached")
        return np.square(np.abs(self.rs)) * np.square(self.sigma_open)

    @property
    def optical_residual(self) -> float:
        """Waveguide optical constraint residual | |Rs|^2 Sigma + Im Rs |."""
        if self.rs is None:
            raise DomainError("optical_residual needs the effective strength attached")
        return abs(np.square(np.abs(self.rs)) * self.sigma_open + self.rs.imag)

    def __getitem__(self, index) -> "RenormState":
        """The states at index of a grid state."""
        return RenormState(**{name: None if value is None else value[index]
                              for name, value in vars(self).items()})


@dataclass(frozen=True)
class FoldyProblem:
    """Point-scatterer array with identical strength and incident values."""

    positions: np.ndarray     # (n, 2)
    strength: complex
    incident: np.ndarray      # (n,) complex

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise DomainError("positions must be an (n, 2) array")
        if len(pos) != len(self.incident):
            raise DomainError("positions and incident values must align")
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        if np.any(dist[~np.eye(len(pos), dtype=bool)] == 0.0):
            raise DomainError("scatterer positions must be pairwise distinct")


def _strength(k, a):
    """s(k, a) for scalar or array k and a; the one copy of the hard-disk strength formula.

    k and a broadcast against each other and the sign of the denominator
    phase is picked per element, so sweeps get s over a whole kd grid or a
    whole a grid in one call per Bessel function.
    """
    k = np.asarray(k, dtype=float)
    a = np.asarray(a, dtype=float)
    if np.any(k <= 0.0):
        raise DomainError("k must be positive")
    if np.any(a == 0.0):
        raise DomainError("a must be nonzero; a transparent impurity has s = 0")
    ka = k * np.abs(a)
    j = cylinder_bessel_j(0, ka)
    y = cylinder_bessel_y(0, ka)
    denom = np.where(a > 0, j + 1j * y, j - 1j * y)
    return -2j * j / denom


def t_matrix(k: float, a: float) -> TMatrix:
    """Hard-disk s-wave strength; rejects a = 0 (use s = 0 directly for sweeps).

    Scalar k only; the same formula over an array of k is ``_strength``,
    which this wraps.
    """
    return TMatrix(k=k, a=a, s=complex(_strength(k, a)))


def hard_disk_boundary_check(k: float, a: float) -> float:
    """|psi| on the disk boundary for an incident s wave J_0(k|r - r0|).

    psi = phi + s phi(r0) G_0 must vanish on |r - r0| = a by construction of
    s(k); the returned residual is a direct Lippmann-Schwinger check.  The
    incident and scattered s waves are both isotropic about r0, so one
    boundary point stands for every angle.
    """
    if a <= 0.0:
        raise DomainError("boundary check is defined for a > 0")
    tm = t_matrix(k, a)
    ka = k * a
    psi = cylinder_bessel_j(0, ka) + tm.s * (-0.5j) * hankel1(0, ka)
    return float(np.abs(psi))


def renorm_sum(k: float, y0: float, tol: float = 1e-12) -> RenormState:
    """G_r(k, y0) and Sigma: renorm_grid for one (k, y0); attach an impurity with renorm_state."""
    st = renorm_grid(k, y0, tol)
    return RenormState(k=k, y0=y0, g_r=complex(st.g_r), sigma_open=float(st.sigma_open),
                       tail_bound=float(st.tail_bound), terms_used=int(st.terms_used))


def renorm_grid(k, y0, tol: float = 1e-12) -> RenormState:
    """G_r and Sigma over arrays of k and y0 that broadcast together; a RenormState of arrays.

    G_r is the greens Kummer kernel at x = x0, y = y0 under one call of
    greens_kummer's truncation plan (_kummer_plan), so it raises
    TruncationLimit where the plan cannot meet tol (y0 very close to a wall);
    the first bad element, in order, raises.  Elements sharing the plan's
    mode count and the open-channel count are summed in row blocks of at
    most _BLOCK (row x mode) elements.
    """
    k, y0 = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(y0, dtype=float))
    if not np.all((0.0 < y0) & (y0 < _D)):
        raise DomainError("y0 must lie strictly inside the wire")
    kd, yy = (k * _D).ravel(), y0.ravel()
    n_open = open_channel_count(kd)
    terms, completion, bound = _kummer_plan(kd, 0.0, tol, yy, yy)
    g_r, sigma = np.empty(kd.size, dtype=complex), np.empty(kd.size)
    for m_trunc, n in set(zip(terms.tolist(), n_open.tolist())):
        rows = np.flatnonzero((terms == m_trunc) & (n_open == n))
        step = max(1, _BLOCK // m_trunc)
        for b in (rows[i:i + step] for i in range(0, len(rows), step)):
            ch, y_b = channels(kd[b], m_trunc), yy[b]
            g_r[b] = _kummer_value(ch, 0.0, y_b, y_b, completion[b])
            # contiguous rows, so each row sums like one kd's open modes alone
            chi2 = np.ascontiguousarray(transverse_mode(np.arange(1, n + 1), y_b).T) ** 2
            sigma[b] = np.sum(chi2 / ch.kx[:, :n].real, axis=-1)
    return RenormState(k=k, y0=y0, g_r=g_r.reshape(k.shape), sigma_open=sigma.reshape(k.shape),
                       tail_bound=bound.reshape(k.shape), terms_used=terms.reshape(k.shape))


def attach_strength(base: RenormState, s) -> RenormState:
    """base with the impurity strength s attached: Rs = s/(1 - s G_r), elementwise.

    The one place the effective strength and the pole check live; raises
    PoleEncountered at the first element (row-major) with |1 - s G_r| < POLE_THRESHOLD.
    """
    # object dtype: Python complex arithmetic per element, so that each grid
    # element is bit-identical to the scalar state at its (k, y0); numpy's own
    # complex multiply may fuse multiply-adds
    denom = 1.0 - np.multiply(s, base.g_r, dtype=object)
    poles = np.flatnonzero(np.abs(denom) < POLE_THRESHOLD)
    if poles.size:
        at = np.unravel_index(poles[0], np.shape(denom))
        k_at = float(np.broadcast_to(base.k, np.shape(denom))[at])
        raise PoleEncountered(f"1 - s G_r = {np.asarray(denom, dtype=object)[at]!r} "
                              f"at k={k_at!r}: resonance pole")
    rs, factor = s / denom, 1.0 / denom
    if isinstance(denom, np.ndarray):
        rs, factor = rs.astype(complex), factor.astype(complex)
    return replace(base, s=s, rs=rs, renorm_factor=factor)


def renorm_state(k: float, cfg: WireConfig, tol: float = 1e-12) -> RenormState:
    """renorm_sum with cfg's impurity attached (attach_strength; s = 0 for a = 0)."""
    base = renorm_sum(k, cfg.y0, tol)
    s = t_matrix(k, cfg.a).s if cfg.a != 0.0 else 0.0 + 0.0j
    return attach_strength(base, s)


def effective_strength(k: float, y0: float, a: float, tol: float = 1e-12) -> complex:
    """Confined scattering strength Rs = s/(1 - s G_r)."""
    if a == 0.0:
        return 0.0 + 0.0j
    return renorm_state(k, WireConfig(y0=y0, a=a), tol).rs


def gr_edge_asymptote(n_mode: int, eps: float, y0: float,
                      side: Literal["below", "above"] = "below") -> complex:
    """Leading divergence of G_r at kd = n_mode*pi -+ eps (eps in kd units).

    The threshold mode contributes 1/(i k_x^(N)) chi_N^2(y0) with
    k_x^(N) d = sqrt(2 N pi eps) to leading order, hence

        G_r ~ -chi_N^2(y0) d / sqrt(2 pi N eps)     (below: real)
        G_r ~ -i chi_N^2(y0) d / sqrt(2 pi N eps)   (above: imaginary)
    """
    if n_mode < 1:
        raise DomainError("mode index must be >= 1")
    if not 0.0 < eps <= 1e-3:
        raise DomainError("eps must lie in (0, 1e-3] for the leading order to apply")
    chi2 = transverse_mode(n_mode, y0) ** 2
    if chi2 < 1e-24:
        raise DegenerateMode(f"mode {n_mode} has a node at y0={y0!r}")
    amp = chi2 * _D / np.sqrt(2.0 * np.pi * n_mode * eps)
    if side == "below":
        return complex(-amp)
    if side == "above":
        return complex(-1j * amp)
    raise DomainError(f"side must be 'below' or 'above', got {side!r}")


def foldy_solve(problem: FoldyProblem, k: float,
                method: Literal["direct", "born"] = "direct",
                max_order: int = 8) -> np.ndarray:
    """Effective wavefunction values psi_i(r_i) at every scatterer.

    Solves psi = (1 - s G)^-1 phi where G_ij = G_0(r_i, r_j) off the
    diagonal and zero on it (the singular self-interaction is excluded).
    ``born`` iterates the multiple-scattering series instead and refuses if
    its spectral radius is >= 1.
    """
    pos = np.asarray(problem.positions, dtype=float)
    n = len(pos)
    phi = np.asarray(problem.incident, dtype=complex)
    if n == 1:
        return phi.copy()
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    off = ~np.eye(n, dtype=bool)
    g = np.zeros((n, n), dtype=complex)
    g[off] = -0.5j * hankel1(0, k * dist[off])
    sg = problem.strength * g
    if method == "direct":
        a = np.eye(n) - sg
        try:
            psi = np.linalg.solve(a, phi)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(str(exc)) from exc
        resid = np.linalg.norm(a @ psi - phi)
        if not np.isfinite(resid) or resid > 1e-6 * max(np.linalg.norm(phi), 1.0):
            raise SingularSystem("multiple-scattering system is numerically singular")
        return psi
    if method == "born":
        radius = float(np.max(np.abs(np.linalg.eigvals(sg))))
        if radius >= 1.0:
            raise BornDiverged(f"spectral radius of sG is {radius:.3f} >= 1")
        psi = phi.copy()
        term = phi.copy()
        for _ in range(max_order):
            term = sg @ term
            psi = psi + term
        return psi
    raise DomainError(f"unknown method {method!r}")
