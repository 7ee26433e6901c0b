"""Impurity strength s(k), the renormalization sum G_r and the Foldy solver.

The impurity is an s-wave point scatterer of strength

    s(k) = -2i J_0(k a) / H_0^(1)(k a)        (hard disk, a > 0)

which satisfies the free-space optical theorem -2 Im s = |s|^2 identically.
Negative scattering lengths (attractive impurity) are modelled by
conjugating the denominator phase, s = -2i J_0(k|a|) / [J_0 - i Y_0], which
flips the sign of the phase shift while preserving the optical theorem.
A transparent impurity (a = 0) has s = 0; _strength alone applies that rule.

Confinement renormalizes the incident amplitude at the impurity by
1/(1 - s G_r), where

    G_r = lim_{r -> r0} [G_w(r, r0) - G_0(r, r0)]
        = sum_m (1/(i k_x^(m)) + d/(m pi)) chi_m^2(y0)
          - (1/pi) ln[(kd/pi) sin(pi y0/d)] + i/2 - gamma/pi

(gamma the Euler-Mascheroni constant).  The mode sum is real arithmetic:
with r_m = |k_x^(m)| = sqrt|kd^2 - (m pi)^2| and N open modes,

    Re sum = sum_m chi_m^2 [d/(m pi) - [m > N]/r_m],   Im sum = -sum_{m <= N} chi_m^2/r_m.

Two identities anchor everything downstream and are enforced by the test suite:

    Im G_r = 1/2 - Sigma,       Sigma = sum_open chi_m^2(y0)/k_x^(m)
    |Rs|^2 Sigma = -Im Rs,      Rs = s/(1 - s G_r)

the second being the waveguide optical theorem (it forces S-matrix
unitarity).  Sigma sums the RenormState.n_open = floor(kd/pi) open channels,
so below kd = pi it is 0 and so are sigma and G = N - sigma.  Observables
that need an open channel get their state from _open_state, the one
closed-wire refusal, made before the state is built (1 - s G_r can vanish
at a bound state there).  G_r is the Kummer Green's function's mode sum at
r = r0 with the static form replaced by the constant above, summed and
tail-completed by the same greens kernel and plan: ~300 modes give ~1e-14.
Past m = 2N + 2 each closed term is a power series in kd^2, and the kernel sums
those modes through moments of chi_m^2(y0) that a sweep over kd shares.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .errors import DegenerateMode, DomainError, PoleEncountered, SingularSystem
from .greens import EULER_GAMMA  # noqa: F401  (callers import it from here too)
from .greens import _cabs, _cdiv, _cmul, _kummer_coincident, _kummer_plan
from .specfun import _integer_in, cylinder_bessel_j, cylinder_bessel_y, hankel1
from .waveguide import (WireConfig, _chi, _closed, _interior, _n_open, guard_mode_openings, open_channel_count,
                        transverse_mode)

__all__ = [
    "TMatrix",
    "RenormState",
    "FoldyProblem",
    "t_matrix",
    "t_matrix_grid",
    "hard_disk_boundary_check",
    "renorm_sum",
    "renorm_grid",
    "attach_strength",
    "renorm_state",
    "effective_strength",
    "gr_edge_asymptote",
    "foldy_solve",
]

POLE_THRESHOLD = 1e-14
# (row x mode) elements per renorm_grid block: a 2,000-kd sweep's largest group
# (286 rows of 512 modes) fits whole; a block of mixed y0 holds two arrays this size
_ROW_BLOCK = 2 ** 18


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
class PhaseShift:
    """s-wave phase shift analog of the confined scatterer (scattering.phase_shift)."""

    delta0: float
    e2id: complex

    @property
    def unit_modulus_residual(self) -> float:
        return abs(abs(self.e2id) - 1.0)


@dataclass(frozen=True)
class RenormState:
    """G_r, the open-channel sum Sigma and (optionally) the effective strength.

    From renorm_grid every field is an array and the properties (n_open too) are elementwise.
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
    def n_open(self) -> int:
        """Number of open channels N = floor(kd/pi) that Sigma sums over."""
        return _n_open(self.k)

    @property
    def im_identity_residual(self) -> float:
        """|Im G_r - (1/2 - Sigma)|; analytic identity, rounding-level."""
        return abs(self.g_r.imag - (0.5 - self.sigma_open))

    def _attached(self):
        """(s, Rs): the one check that a strength is attached, DomainError on a bare state."""
        if self.rs is None:
            raise DomainError("this observable needs a strength attached (attach_strength or renorm_state)")
        return self.s, self.rs

    @property
    def cross_section(self) -> float:
        """sigma = |Rs|^2 Sigma^2 as a fraction of the wire width, capped at 1 against rounding at a dip."""
        return np.minimum(np.square(np.abs(self._attached()[1])) * np.square(self.sigma_open), 1.0)

    @property
    def conductance(self) -> float:
        """G = N - sigma in quanta of 2e^2/h (strength attached)."""
        return self.n_open - self.cross_section

    @property
    def free_cross_section(self) -> float:
        """The attached strength's free-space cross section |s|^2 / k (TMatrix.cross_section)."""
        return TMatrix(k=self.k, a=None, s=self._attached()[0]).cross_section

    @property
    def phase_shift(self) -> PhaseShift:
        """e^{2 i delta_0} = 1 - 2 i Rs Sigma and delta_0 in [0, pi), NaN below kd = pi (no channel scatters)."""
        e2id = 1.0 - 2j * self._attached()[1] * self.sigma_open
        return PhaseShift(delta0=np.where(_closed(self.k), np.nan, np.angle(e2id) / 2.0 % np.pi)[()], e2id=e2id)

    @property
    def rs_imag(self) -> float:
        """Im Rs, but 0 below kd = pi, where Im Rs = -|Rs|^2 Sigma = 0 and s/(1 - s G_r) leaves rounding."""
        return np.where(_closed(self.k), 0.0, self._attached()[1].imag)[()]

    @property
    def optical_residual(self) -> float:
        """Waveguide optical constraint residual | |Rs|^2 Sigma + Im Rs |."""
        rs = self._attached()[1]
        return abs(np.square(np.abs(rs)) * self.sigma_open + rs.imag)

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
        if pos.ndim != 2 or pos.shape[1] != 2 or not np.isfinite(pos).all():
            raise DomainError("positions must be a finite (n, 2) array")
        if len(pos) != len(self.incident):
            raise DomainError("positions and incident values must align")
        if len(np.unique(pos, axis=0)) < len(pos):
            raise DomainError("scatterer positions must be pairwise distinct")


def _strength(k, a):
    """s(k, a) for scalar or array k and a; the one copy of the hard-disk strength formula.

    k and a broadcast against each other; the sign of the denominator phase
    and s = 0 at a = 0 are picked per element, so sweeps get s over a whole kd
    grid or a whole a grid in one call per Bessel function.  Every k must be > 0.
    """
    k = np.asarray(k, dtype=float)
    a = np.asarray(a, dtype=float)
    bad = k[~(k > 0.0) | (k == np.inf)]  # NaN fails k > 0
    if bad.size and bad[0] != np.inf:  # a first k of inf is refused by specfun, as its lone call is
        raise DomainError("k must be positive")
    ka = k * np.where(a == 0.0, 1.0, np.abs(a))  # Y_0(0) is singular; a = 0 gets s = 0 below
    j = cylinder_bessel_j(0, ka)
    y = cylinder_bessel_y(0, ka)
    denom = np.where(a > 0, j + 1j * y, j - 1j * y)
    return np.where(a == 0.0, 0j, -2j * j / denom)


def t_matrix_grid(k, a) -> TMatrix:
    """Hard-disk s-wave strength over broadcast k and a; s = 0 for a transparent impurity (a = 0)."""
    return TMatrix(k=k, a=a, s=_strength(k, a))


def t_matrix(k: float, a: float) -> TMatrix:
    """t_matrix_grid at one (k, a), with s a numpy scalar."""
    return TMatrix(k=k, a=a, s=_strength(k, a)[()])


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
    h = hankel1(0, ka)
    psi = h.real + tm.s * (-0.5j) * h
    return float(np.abs(psi))


def renorm_sum(k: float, y0: float, tol: float = 1e-12) -> RenormState:
    """G_r(k, y0) and Sigma: renorm_grid for one (k, y0); attach an impurity with renorm_state."""
    return renorm_grid(k, y0, tol)[()]


def renorm_grid(k, y0, tol: float = 1e-12) -> RenormState:
    """G_r and Sigma over arrays of k and y0 that broadcast together; a RenormState of arrays.

    G_r is the greens Kummer kernel at r = r0 (_kummer_coincident) under one call
    of greens_kummer's truncation plan (_kummer_plan), so it raises
    TruncationLimit where the plan cannot meet tol (y0 very close to a wall);
    the first bad element, in order, raises.  Elements sharing the plan's
    mode count and the open-channel count are summed in row blocks of at
    most _ROW_BLOCK (row x mode) elements, so a sweep over a few thousand kd
    takes one block per group; each row sums contiguously, so the block size
    changes no bit.  _kummer_coincident gives each block's G_r and Sigma in
    real arithmetic, from chi_m(y0) evaluated once where the block shares one
    y0 (every block of a sweep over kd).  Per kd it weights only the 2N + 1
    modes below 2N + 2; the closed modes from there to M enter as the power
    series -sum_j a_j kd^(2j) S_j of their terms, whose moments S_j are summed
    once per block of one y0 (greens._closed_moments), so a sweep over kd
    pays O(N + J) per kd, not O(M).
    """
    k, y0 = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(y0, dtype=float))
    if not np.all(_interior(y0)):
        raise DomainError("y0 must lie strictly inside the wire")
    kd, yy = k.ravel(), y0.ravel()
    n_open = open_channel_count(kd)
    terms, completion, bound = _kummer_plan(kd, 0.0, tol, yy, yy)
    g_r, sigma = np.empty(kd.size, dtype=complex), np.empty(kd.size)
    for m_trunc, n in set(zip(terms.tolist(), n_open.tolist())):
        rows = np.flatnonzero((terms == m_trunc) & (n_open == n))
        step, modes = max(1, _ROW_BLOCK // m_trunc), np.arange(1, m_trunc + 1)
        for b in (rows[i:i + step] for i in range(0, len(rows), step)):
            yb = yy[b]
            # contiguous rows of modes, so that each row sums like one kd's modes alone:
            # chi_m(y) = sqrt(2) sin(m pi y) is symmetric in m and y, and y first lays them out
            w = np.square(_chi(yb[:1] if (yb == yb[0]).all() else yb, modes))
            (g_r[b],), sigma[b] = _kummer_coincident(kd[b], yb, w, n, completion[b][:, None], [m_trunc])
    return RenormState(k=k, y0=y0, g_r=g_r.reshape(k.shape), sigma_open=sigma.reshape(k.shape),
                       tail_bound=bound.reshape(k.shape), terms_used=terms.reshape(k.shape))


def attach_strength(base: RenormState, s) -> RenormState:
    """base with the impurity strength s attached: Rs = s/(1 - s G_r), elementwise.

    The one place the effective strength and the pole check live; raises
    PoleEncountered at the first element (row-major) with |1 - s G_r| < POLE_THRESHOLD.
    greens' real-operation arithmetic keeps each element equal to its lone state bit for bit.
    """
    denom = 1.0 - _cmul(s, base.g_r)
    poles = np.flatnonzero(_cabs(denom) < POLE_THRESHOLD)
    if poles.size:
        at = np.unravel_index(poles[0], np.shape(denom))
        k_at = float(np.broadcast_to(base.k, np.shape(denom))[at])
        raise PoleEncountered(f"1 - s G_r = {complex(np.asarray(denom)[at])!r} "
                              f"at k={k_at!r}: resonance pole")
    return replace(base, s=s, rs=_cdiv(s, denom), renorm_factor=_cdiv(1.0, denom))


def renorm_state(k, cfg: WireConfig, tol: float = 1e-12) -> RenormState:
    """renorm_grid over kd at cfg.y0 with cfg's impurity attached (attach_strength; s = 0 for a = 0),
    elementwise (a lone kd gives numpy scalars); G_r's guard refuses the first bad kd before s is evaluated."""
    return attach_strength(renorm_grid(k, cfg.y0, tol), t_matrix_grid(k, cfg.a).s)[()]


def _open_state(k, cfg: WireConfig, tol: float) -> RenormState:
    """renorm_state where every kd opens a channel; DomainError for 0 < kd < pi, before building it,
    once the guard has refused any kd ahead of the first closed one, as their lone calls would."""
    closed = _closed(np.asarray(k, dtype=float))
    if closed.any():
        guard_mode_openings(np.ravel(k)[:np.argmax(closed)])
        raise DomainError("no open channels below kd = pi; sweeps report sigma = 0 there")
    return renorm_state(k, cfg, tol)


def _zero_below_pi(k, build, shape=None):
    """build(kd) over the kd not below kd = pi, scattered into zeros of shape (k's by default): the one
    home of sigma = G = 0 for 0 < kd < pi, where nothing is built, so a bound state there raises nothing."""
    k = np.asarray(k, dtype=float)
    out, is_open = np.zeros(k.shape if shape is None else shape), ~_closed(k)
    if is_open.any():
        out[is_open] = build(k[is_open])
    return out[()]


def _cross_section_at(k: float, y0, s, tol: float):
    """sigma at one kd over broadcast y0 and strengths s (sweep-geom's grid), one G_r grid over y0."""
    return _zero_below_pi(k, lambda kd: attach_strength(renorm_grid(kd, y0, tol), s).cross_section,
                          np.broadcast_shapes(np.shape(y0), np.shape(s)))


def effective_strength(k, y0: float, a: float, tol: float = 1e-12) -> complex:
    """Confined scattering strength Rs = s/(1 - s G_r), elementwise over kd; 0 for a = 0."""
    return renorm_state(k, WireConfig(y0=y0, a=a), tol).rs


def _threshold_chi2(n_mode: int, eps: float, y0: float) -> float:
    """chi_N^2(y0) of the threshold mode N = n_mode, the one domain check of both edge laws:
    DomainError unless N is an integer >= 1 and eps lies in (0, 1e-3], where the leading order
    applies; DegenerateMode where y0 sits on the mode's node."""
    if not _integer_in(n_mode, 1):
        raise DomainError(f"mode index must be an integer >= 1, got {n_mode!r}")
    if not 0.0 < eps <= 1e-3:
        raise DomainError("eps must lie in (0, 1e-3] for the leading order to apply")
    chi2 = transverse_mode(n_mode, y0) ** 2
    if chi2 < 1e-24:
        raise DegenerateMode(f"mode {n_mode} has a node at y0={y0!r}")
    return chi2


def gr_edge_asymptote(n_mode: int, eps: float, y0: float,
                      side: Literal["below", "above"] = "below") -> complex:
    """Leading divergence of G_r at kd = n_mode*pi -+ eps (eps in kd units, in (0, 1e-3]).

    The threshold mode contributes 1/(i k_x^(N)) chi_N^2(y0) with
    k_x^(N) d = sqrt(2 N pi eps) to leading order, hence

        G_r ~ -chi_N^2(y0) d / sqrt(2 pi N eps)     (below: real)
        G_r ~ -i chi_N^2(y0) d / sqrt(2 pi N eps)   (above: imaginary)
    """
    amp = _threshold_chi2(n_mode, eps, y0) / np.sqrt(2.0 * np.pi * n_mode * eps)
    if side == "below":
        return complex(-amp)
    if side == "above":
        return complex(-1j * amp)
    raise DomainError(f"side must be 'below' or 'above', got {side!r}")


def foldy_solve(problem: FoldyProblem, k: float) -> np.ndarray:
    """Effective wavefunction values psi_i(r_i) at every scatterer.

    Solves psi = (1 - s G)^-1 phi where G_ij = G_0(r_i, r_j) off the
    diagonal and zero on it (the singular self-interaction is excluded).
    """
    if not 0.0 < k < np.inf:
        raise DomainError(f"k must be positive and finite, got {k!r}")
    pos = np.asarray(problem.positions, dtype=float)
    n = len(pos)
    phi = np.asarray(problem.incident, dtype=complex)
    if n == 1:
        return phi.copy()
    x, y = pos[:, 0], pos[:, 1]
    kr = k * np.hypot(np.subtract.outer(x, x), np.subtract.outer(y, y))
    # In an image array kr depends on i - j and the two parities alone, so it
    # mostly repeats two rows up and two columns left: G_0 is evaluated only
    # where it does not, and copied along the diagonal elsewhere.
    fresh = np.ones((n, n), dtype=bool)
    fresh[2:, 2:] = kr[2:, 2:] != kr[:-2, :-2]
    np.fill_diagonal(fresh, False)
    g = np.zeros((n, n), dtype=complex)
    g[fresh] = -0.5j * hankel1(0, kr[fresh])
    for i in range(2, n):
        np.copyto(g[i, 2:], g[i - 2, :-2], where=~fresh[i, 2:])
    # I - sG in g's memory: G_ii = 0, so the diagonal is exactly 1
    a = np.multiply(-problem.strength, g, out=g)
    np.fill_diagonal(a, 1.0)
    try:
        psi = np.linalg.solve(a, phi)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    resid = np.linalg.norm(a @ psi - phi)
    if not np.isfinite(resid) or resid > 1e-6 * max(np.linalg.norm(phi), 1.0):
        raise SingularSystem("multiple-scattering system is numerically singular")
    return psi
