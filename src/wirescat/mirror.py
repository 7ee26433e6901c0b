"""Mirror-basis wavefunctions: the one combination of open modes that scatters.

Of the N degenerate open-channel wavefunctions, exactly one is nonzero at
the impurity; it is the free-space s wave plus all of its wall images and
equals -Im G_w:

    phi_s(x, y) = sum_{n=1}^N (1/k_x^(n)) chi_n(y) chi_n(y0) cos[k_x^(n)(x-x0)]

The companion all-positive-image object

    phi_s+(x, y) = (1/kd) cos[k(x-x0)]
                 + (2/d) sum_{n=1}^N (1/k_x^(n)) cos(n pi y/d) cos(n pi y0/d) cos[k_x^(n)(x-x0)]

(the n = 0 diffraction order belongs to the cosine extension and survives
in the half-Bessel image sum it resums) feeds the even-derivative partial
waves.  Higher mirrored partial waves come from analytic term-by-term
derivatives of these sums and all vanish at the impurity, so they pass the
scatterer untouched:

    p_x  = (1/k) d/dx phi_s
    d_xy = (2/k^2) d2/dxdy phi_s+
    f    = (1/k^3) (d^3/dx^3 - 3 d^3/dx dy^2) phi_s

Everything here uses open channels only; no image sums (those live in
greens and serve as test oracles).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .greens import greens_kummer_grid
from .renorm import _open_state
from .specfun import _integer_in
from .waveguide import WireConfig, _abs_kx, _check_separation, _check_span, _check_strip, _chi, open_channel_count

__all__ = [
    "MirrorKind",
    "GridSpec",
    "FieldGrid",
    "mirror_s",
    "mirror_s_plus",
    "mirror_partial",
    "renormalized_mirror_at_impurity",
    "field_map",
]


class MirrorKind(enum.Enum):
    S = "s"
    S_PLUS = "s_plus"
    PX = "px"
    DXY = "dxy"
    F = "f"


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling grid; finite bounds, and the y range inside the strip."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (_integer_in(self.nx, 2) and _integer_in(self.ny, 2)):
            raise DomainError(f"grid needs integer counts of at least 2 points, got {self.nx!r} x {self.ny!r}")
        if not (0.0 <= self.y_min < self.y_max <= 1.0):
            raise DomainError(f"y range must be increasing and inside [0, d], got y_min={self.y_min!r}, "
                              f"y_max={self.y_max!r}")
        _check_span("x", self.x_min, self.x_max)
        if not self.x_min < self.x_max:
            raise DomainError(f"x range must be increasing, got x_min={self.x_min!r}, x_max={self.x_max!r}")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)


@dataclass(frozen=True)
class FieldGrid:
    """Sampled field values; values[i, j] belongs to (xs[i], ys[j])."""

    kind: str
    k: float
    xs: np.ndarray = field(repr=False)
    ys: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)


def _mirror_grid(kind: MirrorKind, k: float, cfg: WireConfig, xs, ys) -> np.ndarray:
    """values[i, j] of one mirror wave at (xs[i], ys[j]).

    Every kind is a separable open-mode sum sum_m c_m T_m(y) L_m(x - x0)
    with L_m = cos or sin(k_x^(m) (x - x0)) and T_m = chi_m(y), except
    s_plus, whose T_m = cos(m pi y/d) includes the n = 0 order at half weight,
    mode 0 of the same r_m table (r_0 = k exactly); the grid is one
    (nx x M)(M x ny) product.
    """
    xs, ys = _check_strip(xs, ys)
    _check_separation(xs, cfg.x0)
    n = open_channel_count(k)  # guards kd; none open below kd = pi
    m = np.arange(0 if kind == MirrorKind.S_PLUS else 1, n + 1)
    kx, q = _abs_kx(k, m), m * np.pi
    if kind == MirrorKind.S_PLUS:
        c = 2.0 * np.cos(q * cfg.y0) / kx
        c[0] *= 0.5
        trans = np.cos(np.multiply.outer(q, ys))
    else:
        trans = _chi(m, ys)
        chi0 = _chi(m, cfg.y0)
        if kind == MirrorKind.S:
            c = chi0 / kx
        elif kind == MirrorKind.PX:
            c = -chi0 / k
        elif kind == MirrorKind.DXY:
            c = (2.0 / k**2) * np.sqrt(2.0) * q * np.cos(q * cfg.y0)
        else:
            c = (kx**2 - 3.0 * q**2) * chi0 / k**3
    trig = np.cos if kind in (MirrorKind.S, MirrorKind.S_PLUS) else np.sin
    xi = xs - cfg.x0
    return trig(np.multiply.outer(xi, kx)) @ (c[:, None] * trans)


def mirror_s(r, k: float, cfg: WireConfig) -> float:
    """Scattering mirror s wave; identically -Im G_w and 0 below kd = pi."""
    return float(_mirror_grid(MirrorKind.S, k, cfg, [r[0]], [r[1]])[0, 0])


def mirror_s_plus(r, k: float, cfg: WireConfig) -> float:
    """Cosine-extension companion of the mirror s wave (includes the n = 0 order)."""
    return float(_mirror_grid(MirrorKind.S_PLUS, k, cfg, [r[0]], [r[1]])[0, 0])


def mirror_partial(kind: MirrorKind, r, k: float, cfg: WireConfig) -> float:
    """Any mirror wave at one point (analytic derivatives, never numeric).

    px, dxy and f vanish on the line x = x0, in particular at the impurity:
    they are the non-scattering channels.
    """
    return float(_mirror_grid(MirrorKind(kind), k, cfg, [r[0]], [r[1]])[0, 0])


def renormalized_mirror_at_impurity(k: float, cfg: WireConfig, tol: float = 1e-12) -> complex:
    """phi_s~(r0) = phi_s(r0)/(1 - s G_r); satisfies sigma = |s phi_s~(r0)|^2.

    phi_s(r0) diverges as eps^(-1/2) just above a mode opening while this
    renormalized value stays bounded: the divergence cancels against G_r.
    """
    st = _open_state(k, cfg, tol)
    return complex(st.sigma_open * st.renorm_factor)


def field_map(kind, k: float, cfg: WireConfig, spec: GridSpec, tol: float = 1e-10) -> FieldGrid:
    """Deterministic field sample of a mirror wave or the wire Green's function.

    ``kind`` is a MirrorKind (or its value) or the string "greens" for the
    kummer-representation G_w.  Output ordering is row-major in (x, y);
    repeated runs are bit-identical.
    """
    kind_str = kind.value if isinstance(kind, MirrorKind) else str(kind)
    if kind_str == "greens":
        values = greens_kummer_grid(spec.xs, spec.ys, cfg.r0, k, tol)
    else:
        values = _mirror_grid(MirrorKind(kind_str), k, cfg, spec.xs, spec.ys)
    return FieldGrid(kind=kind_str, k=k, xs=spec.xs, ys=spec.ys, values=values)
