"""Geometry, transverse modes, channel bookkeeping and image positions.

The wire occupies 0 < y < d with hard (Dirichlet) walls at y = 0 and y = d
and is infinite along x.  The width d is the unit of length: all physics depends
only on kd, y0/d and a/d, so no function or WireConfig field takes a width, and
other docstrings keep d in formulas as notation only.

Mode m has transverse profile chi_m(y) = sqrt(2/d) sin(m pi y / d) and
longitudinal wavenumber

    k_x^(m) = sqrt(k^2 - (m pi/d)^2)            (open,   m <= N = floor(kd/pi))
    k_x^(m) = i sqrt((m pi/d)^2 - k^2)          (closed, decaying as x -> +inf)

The +i branch for closed channels makes exp(i k_x |x-x0|) die off away from
the source; it is applied consistently everywhere.

Public functions validate their inputs once, at the boundary: _check_strip
(finite x, 0 <= y <= d), _check_separation (a finite x - x0), _interior (a
source at 0 < y0 < d), _check_span (a grid axis), guard_mode_openings (kd > 0,
finite, off every opening) and _covered_open_count (the guard, and a mode count
covering the open channels) serve every module.  The _-prefixed kernels
(_chi, _abs_kx, _kx, _n_open and the mode sums built on them) take validated
arrays and never check again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ModeOpeningSingularity
from .specfun import _integer_in

__all__ = [
    "WireConfig",
    "ChannelSet",
    "ImageArray",
    "open_channel_count",
    "longitudinal_wavenumber",
    "channels",
    "transverse_mode",
    "image_positions",
    "guard_mode_openings",
    "mode_opening_gaps",
]

DEFAULT_MODE_GUARD = 1e-9


@dataclass(frozen=True)
class WireConfig:
    """Wire geometry and impurity parameters, lengths in units of the wire width d.

    Attributes
    ----------
    y0 : float
        Transverse impurity position, 0 < y0 < d.
    a : float
        Effective scattering length; may be negative (attractive impurity)
        and must satisfy |a| < d/2.  a = 0 denotes a transparent impurity.
    x0 : float
        Longitudinal impurity position; observables don't depend on it.
    """

    y0: float
    a: float = 0.1
    x0: float = 0.0

    def __post_init__(self):
        if not _interior(self.y0):
            raise DomainError(f"impurity must sit strictly inside the wire, got y0={self.y0!r}")
        if not abs(self.a) < 0.5:
            raise DomainError(f"|a| must be < d/2, got a={self.a!r}")
        if not np.isfinite(self.x0):
            raise DomainError(f"x0 must be finite, got x0={self.x0!r}")

    @property
    def r0(self) -> tuple[float, float]:
        return (self.x0, self.y0)


@dataclass(frozen=True)
class ChannelSet:
    """Wavenumber, open-channel count and longitudinal wavenumbers m = 1..m_max (per kd)."""

    k: float | np.ndarray
    n_open: int | np.ndarray
    kx: np.ndarray = field(repr=False)  # complex, kx[..., m-1] = k_x^(m)


@dataclass(frozen=True)
class ImageArray:
    """Alternating-sign image array of a point source between the walls.

    The walls generate the reflection orbit {2nd + y0} U {2nd - y0}; indexed
    monotonically in y as

        y_n = 2 ceil(n/2) d + (-1)^n y0,     sign_n = (-1)^n,

    so consecutive images mirror each other across successive wall lines
    y = ..., -d, 0, d, 2d, ... and the n = 0 entry is the source itself.
    """

    indices: np.ndarray
    positions: np.ndarray = field(repr=False)  # shape (len, 2)
    signs: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.indices)


def mode_opening_gaps(kd):
    """Nearest opening n = round(kd/pi) and whether kd lies in its guard band (scalar or array).

    guard_mode_openings refuses exactly the kd flagged here; sweeps emit gap rows there.
    """
    n = np.rint(np.divide(kd, np.pi))
    with np.errstate(invalid="ignore"):  # kd = inf lies in no band
        return n, (n >= 1) & (np.abs(kd - n * np.pi) <= DEFAULT_MODE_GUARD)


def guard_mode_openings(kd) -> None:
    """Raise for the first kd (scalar or array, in order) that is not positive
    and finite, or that lies within DEFAULT_MODE_GUARD of an opening n*pi (n >= 1)."""
    n, gap = mode_opening_gaps(kd)
    bad = gap | ~(np.greater(kd, 0.0) & np.isfinite(kd))
    if bad.any():
        i = np.argmax(bad)
        kd_i, n_i = float(np.ravel(kd)[i]), np.ravel(n)[i]
        if np.ravel(gap)[i]:
            raise ModeOpeningSingularity(kd_i, int(n_i), DEFAULT_MODE_GUARD)
        raise DomainError(f"kd must be positive and finite, got {kd_i!r}")


def open_channel_count(kd):
    """Number of propagating transverse modes, N = floor(kd/pi), for scalar or array kd."""
    guard_mode_openings(kd)
    return _n_open(kd)


def _n_open(kd):
    """N = floor(kd/pi) for validated kd (unchecked); the one copy of the open-channel count."""
    n = np.floor(np.divide(kd, np.pi)).astype(int)
    return n if n.ndim else int(n)


def _closed(kd):
    """Whether no channel is open, 0 < kd < pi, elementwise; the one copy of the closed-wire test."""
    return (0.0 < kd) & (kd < np.pi)


def _interior(y0):
    """Whether a source sits strictly inside the wire, 0 < y0 < d, elementwise; the one copy of that test."""
    return (0.0 < y0) & (y0 < 1.0)


def _covered_open_count(kd, m_max, name: str = "m_max"):
    """open_channel_count(kd), after refusing a mode count m_max that is not an integer >= max(N, 1);
    a list of counts is checked in order, and the error names the first one refused."""
    n_open = open_channel_count(kd)
    least = max(np.max(n_open), 1)
    for m in m_max if isinstance(m_max, list) else [m_max]:
        if not _integer_in(m, least):
            raise DomainError(f"{name}={m!r} must be an integer >= 1 and cover the {np.max(n_open)} open channels")
    return n_open


def _check_strip(x, y):
    """x and y as float arrays; DomainError unless every x is finite and 0 <= y <= d (NaN is out)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and ((0.0 <= y) & (y <= 1.0)).all()):
        raise DomainError("a point lies outside the strip: x must be finite and 0 <= y <= d")
    return x, y


def _check_separation(x, x0) -> None:
    """DomainError unless every separation x - x0 of strip-checked coordinates is finite: finite
    points whose separation overflows are refused before any sum turns it into NaN."""
    with np.errstate(over="ignore"):
        if not np.isfinite(np.subtract(x, x0)).all():
            raise DomainError("x - x0 must be finite, but the points lie too far apart along the wire")


def _check_span(name: str, lo, hi) -> None:
    """DomainError unless a grid axis from lo to hi has finite bounds and span, as np.linspace needs."""
    if not np.isfinite(float(hi) - float(lo)):
        raise DomainError(f"{name} range must be finite, its span too, got {name}_min={lo!r}, {name}_max={hi!r}")


def longitudinal_wavenumber(m: int, kd: float) -> complex:
    """k_x^(m) in units 1/d, on the decaying branch for closed channels.

    Guards only this mode's own threshold kd = m pi; other modes opening
    nearby leave k_x^(m) perfectly regular.
    """
    if not _integer_in(m, 1):
        raise DomainError(f"mode index must be an integer >= 1, got {m!r}")
    if kd <= 0.0 or not np.isfinite(kd):
        raise DomainError(f"kd must be positive and finite, got {kd!r}")
    n, gap = mode_opening_gaps(kd)
    if gap and n == m:
        raise ModeOpeningSingularity(kd, m, DEFAULT_MODE_GUARD)
    return complex(_kx(kd, np.array([m]))[0])


def channels(kd, m_max: int) -> ChannelSet:
    """ChannelSet with kx for modes 1..m_max; an array of kd adds a leading axis."""
    return ChannelSet(k=kd, n_open=_covered_open_count(kd, m_max), kx=_kx(kd, np.arange(1, m_max + 1)))


def _abs_kx(kd, m):
    """r_m = |k_x^(m)| = sqrt|kd^2 - (m pi)^2| for validated kd and an integer array of modes m:
    the one copy of the formula behind every mode sum, k_x^(m) itself included (_kx)."""
    r = kd * kd - (m * np.pi) ** 2
    return np.sqrt(np.abs(r, out=r), out=r)


def _kx(kd, m):
    """k_x^(m) for an integer array of modes m along a new last axis of kd (validated kd, unchecked):
    r_m for |m| <= N = _n_open(kd), open, and i r_m, decaying, for any other."""
    kd = np.asarray(kd, dtype=float)[..., None]
    r = _abs_kx(kd, m)
    return np.where(np.abs(m) <= _n_open(kd), r + 0j, 1j * r)


def transverse_mode(m, y):
    """chi_m(y) = sqrt(2/d) sin(m pi y / d) on 0 <= y <= d, for a mode index or an array of them."""
    if not all(_integer_in(v, 1) for v in np.ravel(m).tolist()):
        raise DomainError(f"mode index must be an integer >= 1, got {m!r}")
    out = _chi(m, _check_strip(0.0, y)[1])
    return out if out.ndim else float(out)


def _chi(m, y):
    """chi_m(y) over the outer product of m and y (validated y, unchecked)."""
    return np.sqrt(2.0) * np.sin(np.multiply.outer(np.asarray(m, dtype=float), y) * np.pi)


def image_positions(cfg: WireConfig, n_min: int, n_max: int) -> ImageArray:
    """Image array entries for n in [n_min, n_max]; the range must include n = 0."""
    if not (_integer_in(n_min, -np.inf, 0) and _integer_in(n_max, 0)):
        raise DomainError(f"image index range must be integers n_min <= 0 <= n_max, got {n_min!r}, {n_max!r}")
    n, signs, ys = _images(n_min, n_max, cfg.y0)
    return ImageArray(indices=n, positions=np.column_stack([np.full(n.shape, cfg.x0), ys]), signs=signs)


def _images(n_min: int, n_max: int, y0: float):
    """Indices n = n_min..n_max of the images of a source at y0, their signs (-1)^n and heights
    y_n = 2 ceil(n/2) d + (-1)^n y0, filled by parity slices: 2 ceil(n/2) is exactly n for an even
    n and n + 1 for an odd one, so an even image sits at n + y0 and an odd one at (n + 1) - y0."""
    n = np.arange(n_min, n_max + 1)
    signs, ys = np.ones(n.size), n.astype(float)
    even, odd = slice(n_min % 2, None, 2), slice(1 - n_min % 2, None, 2)
    signs[odd] = -1.0
    ys[even] += y0
    ys[odd] += 1.0
    ys[odd] -= y0
    return n, signs, ys
