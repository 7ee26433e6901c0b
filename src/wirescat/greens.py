"""Empty-wire Green's function in all of its representations.

For a unit point source at r0 = (x0, y0) between hard walls at y = 0, d the
Green's function G_w solves (in units hbar = m = 1, so the source strength
is 2)

    (nabla^2 + k^2) G_w = 2 delta(r - r0),   G_w(x, 0) = G_w(x, d) = 0.

Representations implemented here:

free          G_0 = -(i/2) H_0^(1)(k |r - r0|), no walls.
image         alternating sum of G_0 over the wall-reflection images;
              converges painfully slowly, kept for validation/benchmarks.
spectral      -i sum_m (1/k_x^(m)) chi_m(y) chi_m(y0) exp(i k_x^(m)|x-x0|).
static        k = 0 closed form (the grounded-plates electrostatic potential),
              evaluated through the cancellation-free identity
              cos A - cosh B = -2 [sin^2(A/2) + sinh^2(B/2)].
kummer        spectral sum with the static series subtracted term by term and
              added back in closed form; the remainder decays as m^-3 at
              x = x0 and geometrically off-axis.  An analytic tail completion
              (mode_product_tail: Hurwitz-zeta + iterated Abel summation of
              the oscillatory part) brings the truncation error far below the
              requested tolerance.  One kernel (_mode_sum) sums the series; one
              elementwise plan (_kummer_plan) picks M, completion and bound for
              all points of a call at once: a greens_kummer point, a whole
              greens_kummer_grid, or a whole G_r grid (r = r0, the closed form
              replaced by the coincidence constant).
diffraction   difference of two period-2d grating Green's functions, the
              Poisson-resummed form of the image array.
semiclassical image sum with each Hankel function replaced by its large-
              argument form; one -1 per wall reflection.

All evaluators are pure; points are (x, y) tuples with y in [0, d].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import comb
from operator import mul

import numpy as np

from .errors import CoincidentPoints, DomainError, TruncationLimit
from .specfun import hankel1
from .waveguide import (ChannelSet, _branch_kx, _image_heights, channels,
                        guard_mode_openings, transverse_mode)

__all__ = [
    "GreensValue",
    "BraggSpectrum",
    "BenchmarkRow",
    "greens_free",
    "greens_spectral",
    "greens_image",
    "greens_static",
    "greens_kummer",
    "greens_kummer_grid",
    "greens_diffraction",
    "greens_semiclassical",
    "semiclassical_renorm_sum",
    "bragg_spectrum",
    "convergence_benchmark",
    "image_sum_alternating",
    "image_sum_positive",
]

EULER_GAMMA = 0.5772156649015328606
_D = 1.0
_COSH_OVERFLOW = 700.0  # pi |x-x0| / d beyond which the static form is 0 to 1e-300
_GEOMETRIC_MODE_CAP = 200000
_KUMMER_MODE_CAP = 65536
REPRESENTATIONS = ("free", "spectral", "image", "static", "kummer", "diffraction", "semiclassical")


@dataclass(frozen=True)
class GreensValue:
    """A Green's function evaluation with its truncation bookkeeping."""

    value: complex
    representation: str
    terms_used: int
    tail_bound: float

    def __post_init__(self):
        if self.representation not in REPRESENTATIONS:
            raise DomainError(f"unknown representation {self.representation!r}")
        if self.terms_used < 1 or self.tail_bound < 0.0:
            raise DomainError("terms_used must be >= 1 and tail_bound >= 0")


@dataclass(frozen=True)
class BraggSpectrum:
    """Diffracted orders of a periodic source array.

    Angles of evanescent orders are reported with positive imaginary part;
    the physically binding quantity is the longitudinal wavenumber ``kx``,
    which always carries the decaying (+i) branch, and the per-order weight
    1/kx.
    """

    orders: np.ndarray
    angles: np.ndarray = field(repr=False)
    ky: np.ndarray = field(repr=False)
    kx: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class BenchmarkRow:
    representation: str
    terms: int
    error: float


def _deltas(r, r0) -> tuple[float, float, float]:
    dx = float(r[0]) - float(r0[0])
    dy = float(r[1]) - float(r0[1])
    return dx, dy, float(np.hypot(dx, dy))


def _check_strip(*points):
    for p in points:
        if not 0.0 <= p[1] <= _D:
            raise DomainError(f"point {p!r} lies outside the strip 0 <= y <= d")


# ---------------------------------------------------------------------------
# elementary representations
# ---------------------------------------------------------------------------

def greens_free(r, r0, k: float) -> complex:
    """Free-space Green's function -(i/2) H_0^(1)(k |r - r0|)."""
    _, _, rho = _deltas(r, r0)
    if rho == 0.0:
        raise CoincidentPoints("free-space Green's function diverges at r = r0")
    return -0.5j * hankel1(0, k * rho)


def greens_static(r, r0) -> float:
    """Closed-form k = 0 wire Green's function.

    (1/2pi) ln of [sin^2(pi(y-y0)/2d) + sinh^2(pi(x-x0)/2d)] over the same
    with y - y0 -> y + y0.  This is algebraically identical to the
    cos - cosh quotient but stays fully accurate at separations ~1e-8 d,
    where the naive form loses five digits to cancellation.
    """
    _check_strip(r, r0)
    dx, _, rho = _deltas(r, r0)
    if rho == 0.0:
        raise CoincidentPoints("static Green's function diverges at r = r0")
    return float(_static_form(abs(dx), float(r[1]), float(r0[1])))


def _static_form(ax: float, y, y0: float):
    """greens_static at |x - x0| = ax for scalar or array y."""
    y = np.asarray(y, dtype=float)
    u = np.pi * ax / (2.0 * _D)
    if u > _COSH_OVERFLOW / 2.0:
        return np.zeros(y.shape)
    sh2 = np.sinh(u) ** 2
    num = np.sin(np.pi * (y - y0) / (2.0 * _D)) ** 2 + sh2
    den = np.sin(np.pi * (y + y0) / (2.0 * _D)) ** 2 + sh2
    return np.log(num / den) / (2.0 * np.pi)


def _coincidence_constant(kd, y0):
    """lim_{r -> r0} [greens_static - greens_free] for scalar or array kd and y0.

    The closed-form part of G_r, which replaces the static form at r = r0.
    """
    return -np.log((kd / np.pi) * np.sin(np.pi * y0 / _D)) / np.pi + 0.5j - EULER_GAMMA / np.pi


def greens_spectral(r, r0, k: float, terms: int) -> GreensValue:
    """Plain truncated spectral sum over ``terms`` transverse modes.

    Off-axis the tail decays like exp(-m pi |x-x0|/d); at x = x0 the decay
    is only ~1/m (conditional), which the returned tail_bound reflects.
    """
    _check_strip(r, r0)
    guard_mode_openings(k * _D)
    if terms < 1:
        raise DomainError("terms must be >= 1")
    dx, _, rho = _deltas(r, r0)
    if rho == 0.0:
        raise CoincidentPoints("spectral sum diverges at r = r0 (use renorm_sum)")
    ax = abs(dx)
    ch = channels(k * _D, terms)
    m = np.arange(1, terms + 1)
    term = (-1j / ch.kx) * transverse_mode(m, r[1]) * transverse_mode(m, r0[1]) * np.exp(1j * ch.kx * ax)
    value = complex(term.sum())
    if ax > 0.0:
        tail = _geometric_mode_tail_bound(terms, k, ax)
    else:
        # conditional convergence: Dirichlet bound on sum cos(m theta)/m
        tail = (1.0 / np.pi) * sum(
            2.0 / (abs(1.0 - np.exp(1j * t)) * (terms + 1)) if abs(np.exp(1j * t) - 1.0) > 1e-12 else np.inf
            for t in _mode_angles(r[1], r0[1]))
    return GreensValue(value, "spectral", terms, float(tail))


def _image_distances(r, r0, n_images: int):
    """Image indices n = -n_images..n_images and rho_n = |r - r_n|, r_n = (x0, y_n)."""
    n = np.arange(-n_images, n_images + 1)
    ys = _image_heights(n, float(r0[1]), _D)
    return n, np.hypot(float(r[0]) - float(r0[0]), float(r[1]) - ys)


def image_sum_alternating(r, r0, k: float, n_images: int, include_source: bool = True) -> complex:
    """sum over images of (-1)^n G_0(r, r_n), pairwise-grouped.

    Adjacent opposite-sign terms are summed first; that stabilises the
    conditionally convergent series without changing its value.
    """
    n, rho = _image_distances(r, r0, n_images)
    i0 = n_images
    live = (n != 0) | include_source
    if np.any(rho[live] == 0.0):
        raise CoincidentPoints("field point coincides with an image point")
    t = np.zeros(len(n), dtype=complex)
    t[live] = ((-1.0) ** n[live]) * (-0.5j) * hankel1(0, k * rho[live])
    return t[i0] + _paired(t[i0 + 1:]) + _paired(t[:i0][::-1])


def image_sum_positive(r, r0, k: float, n_images: int) -> float:
    """sum over images of J_0(k |r - r_n|) with all-positive signs, pairwise-grouped."""
    _, rho = _image_distances(r, r0, n_images)
    if np.any(rho == 0.0):
        raise CoincidentPoints("field point coincides with an image point")
    t = hankel1(0, k * rho).real
    i0 = n_images
    return float(t[i0] + _paired(t[i0 + 1:]) + _paired(t[:i0][::-1]))


def _paired(arr: np.ndarray):
    half = len(arr) // 2
    head = arr[: 2 * half].reshape(half, 2).sum(axis=1).sum() if half else 0.0
    return head + arr[2 * half:].sum()


def greens_image(r, r0, k: float, n_images: int) -> GreensValue:
    """Raw image representation, for validation and benchmarking only.

    The tail bound is the magnitude of the last retained image term, which
    is honest for a conditionally convergent alternating series; expect
    ~1e-3 accuracy even at 1e5 images.
    """
    _check_strip(r, r0)
    if n_images < 0:
        raise DomainError("n_images must be >= 0")
    value = image_sum_alternating(r, r0, k, n_images)
    rho_last = max(2.0 * n_images * _D - 2.0 * _D, _deltas(r, r0)[2])
    tail = float(np.sqrt(2.0 / (np.pi * k * max(rho_last, 1e-300))))
    return GreensValue(complex(value), "image", 2 * n_images + 1, tail)


# ---------------------------------------------------------------------------
# series tail machinery (shared with renorm)
# ---------------------------------------------------------------------------

def zeta_tail(s: float, m_trunc: int, shift: float = 0.0) -> float:
    """sum_{m > m_trunc} (m + shift)^(-s) by Euler-Maclaurin; ~1e-16 for m_trunc >= 50."""
    a = m_trunc + 1.0 + shift
    f = a ** (-s)
    return (a ** (1.0 - s) / (s - 1.0) + 0.5 * f + s * a ** (-s - 1.0) / 12.0
            - s * (s + 1.0) * (s + 2.0) * a ** (-s - 3.0) / 720.0
            + s * (s + 1) * (s + 2) * (s + 3) * (s + 4) * a ** (-s - 5.0) / 30240.0)


_ABEL_DEPTH = 5
# signed binomial rows: level j of the Abel transform needs the forward
# difference sum_i (-1)^i C(j, i) f(m + i)
_FORWARD_DIFFERENCE = tuple(tuple((-1) ** i * comb(j, i) for i in range(j + 1))
                            for j in range(_ABEL_DEPTH))


def geometric_tail(z: complex, s: float, m_trunc: int,
                   shift: float = 0.0) -> tuple[complex, float]:
    """sum_{m > m_trunc} z^m (m + shift)^(-s) for |z| <= 1, z != 1.

    Iterated Abel (summation-by-parts) transform; each level trades one
    power of (m + shift) for a factor z/(1-z).  Returns (value, bound on
    the dropped remainder).
    """
    one_minus = 1.0 - z
    if abs(one_minus) < 1e-12:
        raise DomainError("geometric_tail requires z != 1")
    lead = z ** (m_trunc + 1) / one_minus
    f = [(m_trunc + 1.0 + i + shift) ** (-s) for i in range(_ABEL_DEPTH)]
    total = 0.0 + 0.0j
    coef = 1.0 + 0.0j
    for row in _FORWARD_DIFFERENCE:
        total += coef * lead * sum(map(mul, row, f))
        coef *= -z / one_minus
    rising = 1.0
    for j in range(_ABEL_DEPTH):
        rising *= s + j
    bound = abs(coef) * rising * zeta_tail(s + _ABEL_DEPTH, m_trunc, shift)
    return total, float(bound)


def _cos_tail(theta: float, s: float, m_trunc: int) -> tuple[float, float]:
    """sum_{m > m_trunc} cos(m theta) / m^s with remainder bound."""
    th = float(theta) % (2.0 * np.pi)
    if min(th, 2.0 * np.pi - th) < 1e-9:
        return zeta_tail(s, m_trunc), 0.0
    val, bound = geometric_tail(np.exp(1j * th), s, m_trunc)
    return float(val.real), bound


def kummer_tail_coefficients(kd):
    """c3, c5 and the neglected-order coefficient of the subtracted-mode tail.

    For closed modes 1/(i k_x) + d/(m pi) = -(d/(m pi)) [q^2/2 + 3q^4/8 + 5q^6/16 + ...]
    with q = kd/(m pi), so the tail of the Kummer-subtracted series is
    -(c3/m^3 + c5/m^5 + O(m^-7)) times the transverse-mode product.
    Elementwise; np.float_power keeps Python's C pow (np.power may not), so batches match lone calls.
    """
    c3 = np.float_power(kd, 2) / (2.0 * np.pi ** 3)
    c5 = 3.0 * np.float_power(kd, 4) / (8.0 * np.pi ** 5)
    c7 = 5.0 * np.float_power(kd, 6) / (16.0 * np.pi ** 7)
    return c3, c5, c7


def _per_distinct(fn, *args) -> np.ndarray:
    """fn(*element) over broadcast args, stacked on a leading axis; fn runs once per distinct element.

    The Kummer tails depend on (M, alpha, beta) through scalar series, and few elements differ there.
    """
    args = np.broadcast_arrays(*args)
    keys = list(zip(*(a.ravel().tolist() for a in args)))
    values = {key: fn(*key) for key in set(keys)}
    return np.array([values[key] for key in keys], dtype=float).T.reshape((-1,) + args[0].shape)


def mode_product_tail(kd, m_trunc, alpha, beta):
    """Analytic tail of the Kummer-subtracted series past ``m_trunc``, elementwise.

    The transverse product is (1/d)[cos(m alpha) - cos(m beta)]
    (_mode_angles), so the alpha cos-tails add and the beta ones subtract.
    Returns (tail value, error bound including the O(m^-7) neglect).
    """
    c3, c5, c7 = kummer_tail_coefficients(kd)
    z7, t3a, b3a, t5a, b5a, t3b, b3b, t5b, b5b = _per_distinct(lambda m, a, b: (
        zeta_tail(7.0, m), *_cos_tail(a, 3.0, m), *_cos_tail(a, 5.0, m),
        *_cos_tail(b, 3.0, m), *_cos_tail(b, 5.0, m)), m_trunc, alpha, beta)
    total = (-(c3 * t3a) - c5 * t5a) - (-(c3 * t3b) - c5 * t5b)
    bound = 2.0 * c7 * z7 + (c3 * b3a + c5 * b5a) + (c3 * b3b + c5 * b5b)
    return total, bound


def _abel_gap6(theta: float) -> float:
    """|1 - e^{i theta}|^6; inf at theta = 0 mod 2 pi, where a cos-tail has no Abel remainder."""
    t = theta % (2.0 * np.pi)
    return abs(1.0 - np.exp(1j * t)) ** 6 if min(t, 2.0 * np.pi - t) >= 1e-9 else np.inf


def _closed_form_bound(kd, m_trunc, alpha, beta):
    """Closed-form estimate of mode_product_tail's bound, the plan's deciding criterion.

    A cos-tail's Abel remainder is at most (s)_5 zeta_tail(s + 5, M) / _abel_gap6.
    """
    c3, c5, c7 = kummer_tail_coefficients(kd)
    z7, z8, z10, *gaps6 = _per_distinct(lambda m, a, b: (
        zeta_tail(7.0, m), zeta_tail(8.0, m), zeta_tail(10.0, m), _abel_gap6(a), _abel_gap6(b)),
        m_trunc, alpha, beta)
    bound = 4.0 * c7 * z7
    for gap6 in gaps6:
        bound = bound + c3 * (3 * 4 * 5 * 6 * 7) * z8 / gap6
        bound = bound + c5 * (5 * 6 * 7 * 8 * 9) * z10 / gap6
    return bound


def _mode_angles(y, y0):
    """Angles of chi_m(y) chi_m(y0) = (1/d)[cos(m alpha) - cos(m beta)], as (alpha, beta)."""
    return np.pi * (y - y0) / _D, np.pi * (y + y0) / _D


def _geometric_mode_tail_bound(m_trunc, k, ax):
    """Bound on the neglected spectral/kummer modes for ax = |x-x0| > 0, elementwise."""
    kappa_rate = np.pi * ax / _D
    m1 = m_trunc + 1
    # kappa_m >= 0.85 m pi / d once m exceeds ~1.9 kd/pi; be conservative below that
    rate = kappa_rate * np.where(m1 > 1.9 * k * _D / np.pi, 0.85, 0.5)
    amp = (2.0 / _D) * (2.0 * _D / (m1 * np.pi))
    tail = amp * np.exp(-rate * m1) / np.maximum(1.0 - np.exp(-rate), 1e-300)
    return np.where(rate * m1 > 700.0, 0.0, tail)


def _doubled(m_trunc, live, cap, done):
    """Double each live M of m_trunc in place until done(M, i) holds at its index i or M reaches cap."""
    i = np.flatnonzero(live & (m_trunc < cap))
    while i.size:
        i = i[~done(m_trunc[i], i)]
        m_trunc[i] *= 2
        i = i[m_trunc[i] < cap]
    return m_trunc


def _kummer_plan(kd, ax, tol: float, y, y0):
    """Mode count M, analytic tail completion and error bound of the Kummer sum, elementwise.

    The one code that picks a Kummer M, over broadcast kd, ax = |x - x0|, y and
    y0.  Geometric truncation wins wherever it fits; essentially on-axis elements
    (ax < ~4e-5 d, and r = r0 for G_r) take the m^-3 completion from the M of
    _closed_form_bound.  Off the axis the completion ignores the x decay, so the
    tail is smaller by at most the completion: that is charged to the bound, and
    M doubles until it fits.  Raises TruncationLimit for the first element, in
    row-major order, whose bound misses tol under the caps.
    """
    args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (kd, ax, y, y0)))
    kd, ax, y, y0 = (v.ravel() for v in args)
    m_trunc = _doubled(np.full(kd.shape, 64), ax > 0.0, _GEOMETRIC_MODE_CAP,
                       lambda m, i: _geometric_mode_tail_bound(m, kd[i] / _D, ax[i]) <= tol)
    bound = np.where(ax > 0.0, _geometric_mode_tail_bound(m_trunc, kd / _D, ax), np.inf)
    completion = np.zeros(kd.shape)
    near = np.flatnonzero(~(bound <= tol))
    if near.size:
        kd_n, ax_n = kd[near], ax[near]
        alpha, beta = _mode_angles(y[near], y0[near])

        def charged_bound(m, i):
            completion_i, bound_i = mode_product_tail(kd_n[i], m, alpha[i], beta[i])
            return completion_i, np.where(ax_n[i] > 0.0, bound_i + np.abs(completion_i), bound_i)

        m_n = _doubled(np.maximum(256, 4 * np.floor(kd_n / np.pi).astype(int)), True, _KUMMER_MODE_CAP,
                       lambda m, i: _closed_form_bound(kd_n[i], m, alpha[i], beta[i]) < tol)
        m_n = _doubled(m_n, ax_n > 0.0, _KUMMER_MODE_CAP, lambda m, i: charged_bound(m, i)[1] < tol)
        completion_n, bound[near] = charged_bound(m_n, slice(None))
        m_trunc[near], completion[near] = m_n, completion_n
        bad = near[~(bound[near] < tol)]
        if bad.size:
            j = bad[0]
            raise TruncationLimit(f"Kummer series at |x - x0|={ax[j].item()!r}, y={y[j].item()!r}, "
                                  f"y0={y0[j].item()!r}, kd={kd[j].item()!r}: bound "
                                  f"{bound[j]:.3g} with {m_trunc[j]} modes misses tol={tol:g}")
    return tuple(v.reshape(args[0].shape) for v in (m_trunc, completion, bound))


def _same_point(y, y0) -> bool:
    """y = y0 for a scalar y, or the y0 array itself (the rows of a G_r grid)."""
    return y is y0 or (np.ndim(y) == 0 and y == y0)


def _mode_sum(ch: ChannelSet, ax: float, y, y0):
    """The Kummer-subtracted mode sum over the M modes of ch = channels(kd, M),

        sum_{m <= M} chi_m(y) chi_m(y0) [exp(i k_x ax)/(i k_x) + (d/m pi) exp(-m pi ax/d)],

    for one kd and a scalar y, or an array of y through one (M) x (M, n_y)
    product; or, at the coincident point y = y0 of G_r, for a leading axis of
    kd (ch from an array of kd) and one y0 per kd, one dot product per row.
    """
    m = np.arange(1, ch.kx.shape[-1] + 1)
    # rows of modes, contiguous so that each row's dot product sums like a lone one
    chi_y0 = np.ascontiguousarray(transverse_mode(m, y0).T)
    # on the axis (G_r and x = x0 points) both exponentials are exactly 1
    phase, decay = ((1.0, 1.0) if ax == 0.0
                    else (np.exp(1j * ch.kx * ax), np.exp(-m * np.pi * ax / _D)))
    coef = chi_y0 * (phase / (1j * ch.kx) + (_D / (m * np.pi)) * decay)
    if _same_point(y, y0):
        # the mode product is chi_m(y0)^2
        return (coef[..., None, :] @ chi_y0[..., :, None])[..., 0, 0]
    return coef @ transverse_mode(m, y)


def _kummer_value(ch: ChannelSet, ax: float, y, y0, completion):
    """Mode sum + tail completion + closed form: G_w, or G_r = G_w - G_0 at r = r0.

    At r = r0 ch, y0 and completion may carry a leading kd axis.
    """
    if ax == 0.0 and _same_point(y, y0):
        closed = _coincidence_constant(ch.k, y0)
    else:
        closed = _static_form(ax, y, y0)
    return _mode_sum(ch, ax, y, y0) + completion + closed


def greens_kummer(r, r0, k: float, tol: float = 1e-10) -> GreensValue:
    """Convergence-accelerated wire Green's function.

    G_w = sum_m chi_m(y) chi_m(y0) [exp(i k_x|x-x0|)/(i k_x) + (d/m pi) exp(-m pi |x-x0|/d)]
          + greens_static(r, r0),

    truncated and tail-completed by _kummer_plan.  The returned tail_bound
    is an honest bound on everything dropped and below tol; very close to
    the source, where the plan cannot meet tol, it raises TruncationLimit.
    """
    _check_strip(r, r0)
    kd = k * _D
    guard_mode_openings(kd)
    dx, _, rho = _deltas(r, r0)
    if rho == 0.0:
        raise CoincidentPoints("coincident points are routed to renorm_sum")
    ax, y, y0 = abs(dx), float(r[1]), float(r0[1])
    m_trunc, completion, bound = _kummer_plan(kd, ax, tol, y, y0)
    value = complex(_kummer_value(channels(kd, int(m_trunc)), ax, y, y0, completion))
    return GreensValue(value, "kummer", int(m_trunc), float(bound))


def greens_kummer_grid(xs, ys, r0, k: float, tol: float = 1e-10) -> np.ndarray:
    """Vectorized greens_kummer over a rectangular grid (complex, shape (nx, ny)).

    One truncation plan covers every grid point; the points of a column that share
    a mode count (all of them, off the axis) cost one _kummer_value product.  Exact
    coincidence with r0 yields NaN.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.any(ys < 0.0) or np.any(ys > _D):
        raise DomainError("grid extends outside the strip")
    kd = k * _D
    guard_mode_openings(kd)
    x0, y0 = float(r0[0]), float(r0[1])
    ax = np.abs(xs - x0)
    ax_grid, y_grid = np.broadcast_arrays(ax[:, None], ys)
    live = (ax_grid != 0.0) | (y_grid != y0)
    m_trunc, completion = np.zeros(live.shape, dtype=int), np.zeros(live.shape)
    m_trunc[live], completion[live], _ = _kummer_plan(kd, ax_grid[live], tol, y_grid[live], y0)
    out = np.full(live.shape, np.nan, dtype=complex)
    for i, ax_i in enumerate(ax.tolist()):
        for m in np.unique(m_trunc[i, live[i]]).tolist():
            at = live[i] & (m_trunc[i] == m)
            out[i, at] = _kummer_value(channels(kd, m), ax_i, ys[at], y0, completion[i, at])
    return out


# ---------------------------------------------------------------------------
# diffraction (periodic-array) representation
# ---------------------------------------------------------------------------

def _grating_sum(ax: float, eta: float, k: float, period: float, tol: float) -> tuple[complex, int, float]:
    """G_p for a period-`period` array: -(i/period) sum_n exp(i k_x^(n) ax) cos(2 n pi eta / period) / k_x^(n)."""
    n_open = int(np.floor(k * period / (2.0 * np.pi)))
    n_max = n_open + 8
    while True:
        kyq = 2.0 * np.pi * (n_max + 1) / period
        kappa = np.sqrt(max(kyq ** 2 - k ** 2, 0.0))
        tail = (4.0 / period) * np.exp(-kappa * ax) / max(kappa, 1e-300) / max(
            1.0 - np.exp(-2.0 * np.pi * ax / period), 1e-300)
        if tail < tol or n_max > 200000:
            break
        n_max *= 2
    n = np.arange(-n_max, n_max + 1)
    ky = 2.0 * np.pi * n / period
    kx = _branch_kx(k, ky)
    if np.any(np.abs(kx) < 1e-9 * k):
        raise DomainError("grazing diffraction order: k coincides with a reciprocal vector")
    total = (-1j / period) * np.sum(np.exp(1j * kx * ax) * np.cos(ky * eta) / kx)
    return complex(total), 2 * n_max + 1, float(tail)


def greens_diffraction(r, r0, k: float, tol: float = 1e-10) -> GreensValue:
    """Two-array (period 2d) decomposition of the image lattice.

    The positive images {y0 + 2nd} and negative images {-y0 + 2nd} are each
    a periodic array; their grating Green's functions combine to exactly the
    spectral form.  Requires x != x0 for per-order decay.
    """
    _check_strip(r, r0)
    guard_mode_openings(k * _D)
    dx, _, _ = _deltas(r, r0)
    ax = abs(dx)
    if ax == 0.0:
        raise DomainError("diffraction representation requires x != x0")
    minus, n1, b1 = _grating_sum(ax, r[1] - r0[1], k, 2.0 * _D, tol / 2)
    plus, n2, b2 = _grating_sum(ax, r[1] + r0[1], k, 2.0 * _D, tol / 2)
    return GreensValue(minus - plus, "diffraction", n1 + n2, b1 + b2)


def bragg_spectrum(k: float, period: float, n_max: int | None = None) -> BraggSpectrum:
    """Diffracted orders of a period-`period` array: angles, wavenumbers, weights.

    theta_n = arcsin(2 n pi / (k period)); orders with |2 n pi| > k period are
    evanescent and get complex angles (positive imaginary part by convention)
    while kx keeps the +i decaying branch.
    """
    if k <= 0.0 or period <= 0.0:
        raise DomainError("k and period must be positive")
    n_open = int(np.floor(k * period / (2.0 * np.pi)))
    if n_max is None:
        n_max = n_open + 8
    n = np.arange(-n_max, n_max + 1)
    z = 2.0 * np.pi * n / (k * period)
    if np.any(np.abs(np.abs(z) - 1.0) < 1e-12):
        raise DomainError("grazing order: 2 n pi equals k * period")
    ky = k * z
    kx = _branch_kx(k, ky)
    angles = np.empty(n.shape, dtype=complex)
    prop = np.abs(z) < 1.0
    angles[prop] = np.arcsin(z[prop])
    ev = ~prop
    angles[ev] = np.sign(z[ev]) * np.pi / 2 + 1j * np.arccosh(np.abs(z[ev]))
    return BraggSpectrum(orders=n, angles=angles, ky=ky, kx=kx, weights=1.0 / kx)


# ---------------------------------------------------------------------------
# semiclassical representation
# ---------------------------------------------------------------------------

def greens_semiclassical(r, r0, k: float, n_images: int) -> complex:
    """Asymptotic image sum (1/sqrt(2 pi)) e^{5 i pi/4} sum_n e^{i(k rho_n - n pi)} / sqrt(k rho_n).

    Each reflection contributes a -1 (Maslov phase); validity needs
    k rho_n >~ 1 for every retained image, warned about otherwise.
    """
    _check_strip(r, r0)
    n, rho = _image_distances(r, r0, n_images)
    if np.any(rho == 0.0):
        raise CoincidentPoints("field point coincides with an image point")
    x = k * rho
    if np.any(x < 1.0):
        warnings.warn("semiclassical form used at k|r - r_n| < 1; asymptotics invalid",
                      RuntimeWarning, stacklevel=2)
    pref = np.exp(5j * np.pi / 4) / np.sqrt(2.0 * np.pi)
    return complex(pref * np.sum(np.exp(1j * (x - n * np.pi)) / np.sqrt(x)))


def semiclassical_renorm_sum(k: float, y0: float, n_explicit: int = 400) -> complex:
    """Self-field sum over images with asymptotic Hankel forms, tail-completed.

    The three image families seen from the source sit at distances
    {2jd}, {2jd - 2y0}, {2jd + 2y0 - 2d} (j >= 1) with signs +, -, -; each
    family is a geometric-phase series resummed by geometric_tail, so the
    result is a smooth function of kd away from mode openings and diverges
    at them, which is what makes it useful as a resonance-position
    diagnostic.
    """
    guard_mode_openings(k * _D)
    step = 2.0 * _D
    z = np.exp(1j * k * step)
    total = 0.0 + 0.0j
    for sign, dist0 in ((2.0, 0.0), (-1.0, -2.0 * y0), (-1.0, 2.0 * y0 - 2.0 * _D)):
        j = np.arange(1, n_explicit + 1)
        x = k * (dist0 + j * step)
        explicit = np.sum(-0.5j * np.sqrt(2.0 / (np.pi * x)) * np.exp(1j * (x - np.pi / 4)))
        pref = -0.5j * np.sqrt(2.0 / (np.pi * k * step)) * np.exp(1j * (k * dist0 - np.pi / 4))
        tail, _ = geometric_tail(z, 0.5, n_explicit, shift=dist0 / step)
        total += sign * (explicit + pref * tail)
    return complex(total)


# ---------------------------------------------------------------------------
# convergence benchmark
# ---------------------------------------------------------------------------

def _kummer_truncated(kd: float, ax: float, y: float, y0: float, m_trunc: int,
                      completion: bool) -> complex:
    """Kummer form summed to exactly m_trunc modes, with or without tail completion.

    At r = r0 this is the renormalization sum G_w - G_0.
    """
    tail = float(mode_product_tail(kd, m_trunc, *_mode_angles(y, y0))[0]) if completion else 0.0
    return complex(_kummer_value(channels(kd, m_trunc), ax, y, y0, tail))


def convergence_benchmark(r, r0, k: float, representations=("spectral", "image", "kummer"),
                          term_grid=(10, 30, 100, 300, 1000, 3000, 10000)) -> list[BenchmarkRow]:
    """Terms-versus-error table for each representation at one point pair.

    Errors are measured against greens_kummer at tol = 1e-12.  ``kummer``
    rows use the shipped evaluator (completion included); ``kummer_raw``
    rows document the bare m^-3 truncation decay.  For a coincident pair the
    benchmark measures the regularized self-field G_w - G_0 instead (only
    the kummer representations are defined there).
    """
    dx, _, rho = _deltas(r, r0)
    kd, ax, y, y0 = k * _D, abs(dx), float(r[1]), float(r0[1])
    if rho == 0.0:
        bad = set(representations) - {"kummer", "kummer_raw"}
        if bad:
            raise CoincidentPoints(f"only the kummer forms exist at coincidence, not {sorted(bad)}")
        ref = _kummer_truncated(kd, ax, y, y0, 65536, completion=True)
    else:
        ref = greens_kummer(r, r0, k, tol=1e-12).value
    rows: list[BenchmarkRow] = []
    for rep in representations:
        for terms in term_grid:
            if rep in ("kummer", "kummer_raw"):
                val = _kummer_truncated(kd, ax, y, y0, terms, completion=(rep == "kummer"))
            elif rep == "spectral":
                val = greens_spectral(r, r0, k, terms).value
            elif rep == "image":
                val = greens_image(r, r0, k, terms).value
            elif rep == "diffraction":
                val = greens_diffraction(r, r0, k, tol=1e-14).value
            else:
                raise DomainError(f"benchmark does not support representation {rep!r}")
            rows.append(BenchmarkRow(rep, terms, float(abs(val - ref))))
    return rows
