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
              A closed mode has k_x = i r_m, r_m = |k_x^(m)|, and the real
              term -(1/r_m) chi_m(y) chi_m(y0) exp(-r_m |x-x0|): the open modes
              are summed in complex arithmetic, the closed ones in real.
static        k = 0 closed form (the grounded-plates electrostatic potential),
              evaluated through the cancellation-free identity
              cos A - cosh B = -2 [sin^2(A/2) + sinh^2(B/2)].
kummer        spectral sum with the static series subtracted term by term and
              added back in closed form; the remainder decays as m^-3 at
              x = x0 and geometrically off-axis.  An analytic tail completion
              (mode_product_tail: Hurwitz-zeta + iterated Abel summation of
              the oscillatory part) brings the truncation error far below the
              requested tolerance.  The tail functions are elementwise, and a
              batch equals its lone calls bit for bit.  What a tail takes from
              (M, alpha, beta) alone is evaluated once per distinct key of a
              call (_per_key) and combined with kd elementwise: an elementwise
              factor has the same bits in any batch, so this keeps batch = lone
              while a sweep at one y0 pays for its few keys, not its rows.
              The kd factors (kummer_tail_coefficients) are computed once per
              plan.  One elementwise plan (_kummer_plan) picks M, completion
              and bound for all points of a call.  One driver per shape sums
              it: _kummer_sum a grid of field points around one source, in
              one pass over the modes that stops each point at its own M, and
              _kummer_truncated one point pair
              (greens_kummer and convergence_benchmark); both call
              _mode_product, so a lone value is its 1 x 1 grid's bit for bit.
              _kummer_coincident sums the G_r rows at r = r0, one per
              (kd, y0).  The coincident kernel weights only the 2N + 1 modes
              below m_s = 2N + 2 per row; every later mode has kd/(m pi) < 1/2 and
              enters through the power series of its closed term in kd^2,
              whose moments (_closed_moments) depend on chi_m^2(y0) alone and
              are summed once for all rows that share it, in blocks that keep
              only the orders their q needs (_SERIES_ORDERS).
              (Kummer's subtraction for the wire: C. M. Linton, J. Eng. Math.
              33, 377 (1998).)  Both kernels keep closed modes real:
              with r_m = |k_x^(m)|, 1/(i k_x) is -i/r_m for an open mode and
              -1/r_m for a closed one, whose wave term
              exp(i k_x|x-x0|)/(i k_x) = -exp(-r_m|x-x0|)/r_m is real, so
              _mode_product sums a block of closed modes in real arithmetic.
              It sums every mode it is given; only a pair's mode table, cut
              by _live_modes where every later term is exactly 0, is shorter.
diffraction   difference of two period-2d grating Green's functions, the
              Poisson-resummed form of the image array.
semiclassical G_r at the source, not G_w (semiclassical_renorm_sum): the
              three image families, each Hankel function replaced by its
              large-argument form and each family's tail resummed by
              geometric_tail; a resonance-position diagnostic.

convergence_benchmark reads every mode sum of an off-source pair from one
mode table (_pair_modes), which ends where every later term is exactly 0
(_live_modes), and every coincident row from one _kummer_coincident pass.

All evaluators are pure; points are (x, y) tuples with y in [0, d].
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, frexp, inf, prod
from operator import mul

import numpy as np

from .errors import CoincidentPoints, DomainError, TruncationLimit
from .specfun import _integer_in, cylinder_bessel_j, hankel1, hankel1_parts
from .waveguide import (_abs_kx, _check_separation, _check_strip, _chi, _covered_open_count, _images, _interior,
                        _kx, _n_open, guard_mode_openings)

__all__ = [
    "GreensValue",
    "BenchmarkRow",
    "greens_free",
    "greens_spectral",
    "greens_image",
    "greens_static",
    "greens_kummer",
    "greens_kummer_grid",
    "greens_diffraction",
    "semiclassical_renorm_sum",
    "convergence_benchmark",
    "image_sum_alternating",
    "image_sum_positive",
]

EULER_GAMMA = 0.5772156649015328606
_COSH_OVERFLOW = 700.0  # pi |x-x0| / d beyond which the static form is exactly 0
# the plan's caps end the doubling of M, not M (_doubled): a geometric M, from 64, is at most 2^18; a Kummer M,
# from max(256, 4N), is below 2^17 (101,824 at kd = 5000.1), or 4N itself where that is past its cap (kd > 51,472)
_GEOMETRIC_MODE_CAP = 200000
_KUMMER_MODE_CAP = 65536
# elements in a (rows x modes) or (modes x points) block of a Kummer sum
_BLOCK = 2 ** 12
_EXP_UNDERFLOW = 745.2  # exp(-t) is exactly 0 past t = 745.13, where it falls below half of 2^-1074
_SC_EXPLICIT = 400  # images per family that semiclassical_renorm_sum sums before its tail
# orders J_t of the closed-mode series in G_r's block t, modes [2^t m_s, 2^(t+1) m_s) with
# q < 2^-(t+1); the last entry serves every later block.  Each is the fewest orders whose
# dropped remainder sum_{j > J_t} a_j q^(2j) stays below 2^-53 of the leading term q^2/2.
_SERIES_ORDERS = (26, 13, 9, 7, 6, 5, 4, 4, 3, 3, 3, 3, 3, 2)
# a_j = C(2j, j)/4^j, j = 1..26: 1/sqrt(1 - q^2) = sum_{j >= 0} a_j q^(2j)
_SERIES_COEFS = np.array([comb(2 * j, j) / 4 ** j for j in range(1, _SERIES_ORDERS[0] + 1)])
_TABLE = 2 ** 15  # elements in one (rows x orders x modes) table of the closed-mode moments
# (j0, j1, reach): the orders j0 + 1..j1 reach the first reach m_s closed-series modes, m_s <= m <
# (reach + 1) m_s, to the end of the last block t whose tier keeps them, 2^(t + 1) m_s; the last
# tier's orders reach every mode
_ORDER_REACH = ((0, _SERIES_ORDERS[-1], inf),) + tuple(
    (_SERIES_ORDERS[t + 1], _SERIES_ORDERS[t], 2 ** (t + 1) - 1)
    for t in reversed(range(len(_SERIES_ORDERS) - 1)) if _SERIES_ORDERS[t + 1] < _SERIES_ORDERS[t])
REPRESENTATIONS = ("free", "spectral", "image", "static", "kummer", "diffraction")
_BENCHMARK_FORMS = ("spectral", "image", "kummer", "kummer_raw", "diffraction")  # convergence_benchmark's rows


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
class BenchmarkRow:
    representation: str
    terms: int
    error: float


def _pair(r, r0) -> tuple[float, float, float, float]:
    """|x - x0|, y, y0 and |r - r0| of a point pair, after the one strip check of both points."""
    (x, x0), (y, y0) = (v.tolist() for v in _check_strip((r[0], r0[0]), (r[1], r0[1])))
    _check_separation(x, x0)
    return abs(x - x0), y, y0, float(np.hypot(x - x0, y - y0))


# ---------------------------------------------------------------------------
# elementary representations
# ---------------------------------------------------------------------------

def greens_free(r, r0, k: float) -> complex:
    """Free-space Green's function -(i/2) H_0^(1)(k |r - r0|), the source term of the image sums."""
    rho = _image_distances(r, r0, 0)[2][0]
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
    ax, y, y0, rho = _pair(r, r0)
    if rho == 0.0:
        raise CoincidentPoints("static Green's function diverges at r = r0")
    return float(_static_form(ax, y, y0))


def _static_form(ax, y, y0: float):
    """greens_static at |x - x0| = ax, elementwise over broadcast ax and y."""
    # capped where sinh^2 swamps both sines, so that the quotient there is exactly 1
    sh2 = np.sinh(np.minimum(np.pi * ax / 2.0, _COSH_OVERFLOW / 2.0)) ** 2
    num = np.sin(np.pi * (y - y0) / 2.0) ** 2 + sh2
    den = np.sin(np.pi * (y + y0) / 2.0) ** 2 + sh2
    return np.log(num / den) / (2.0 * np.pi)


def _coincidence_constant(kd, y0):
    """lim_{r -> r0} [greens_static - greens_free] for scalar or array kd and y0.

    The closed-form part of G_r, which replaces the static form at r = r0.
    """
    return -np.log((kd / np.pi) * np.sin(np.pi * y0)) / np.pi + 0.5j - EULER_GAMMA / np.pi


def greens_spectral(r, r0, k: float, terms: int) -> GreensValue:
    """Plain truncated spectral sum over ``terms`` transverse modes.

    Off-axis the tail decays like exp(-m pi |x-x0|/d); at x = x0 the decay
    is only ~1/m (conditional), which the returned tail_bound reflects.
    """
    ax, y, y0, _ = pair = _pair(r, r0)
    value = _spectral_sums(pair, k, [terms])[0]
    if ax > 0.0:
        tail = _geometric_mode_tail_bound(terms, k, ax)
    else:
        # conditional convergence: Dirichlet bound on sum cos(m theta)/m
        tail = (1.0 / np.pi) * sum(
            2.0 / (abs(1.0 - np.exp(1j * t)) * (terms + 1)) if abs(np.exp(1j * t) - 1.0) > 1e-12 else np.inf
            for t in _mode_angles(y, y0))
    return GreensValue(value, "spectral", terms, float(tail))


def _spectral_sums(pair, k: float, counts: list, table=None) -> list[complex]:
    """The spectral sum of one _pair over each mode count of counts (checked in order): prefix
    sums of one term vector over the modes of the largest, read from the pair's mode table
    (_pair_modes, built here unless given).

    The N open modes are summed in complex arithmetic and the closed ones in
    real: with r_m = |k_x^(m)|, a closed mode has k_x = i r_m, so its term
    -(1/r_m) chi_m(y) chi_m(y0) exp(-r_m |x - x0|) is real.  The vector stops
    at _live_modes: every later term is exactly +-0.
    """
    n_open = _covered_open_count(k, counts, "terms")
    ax, y, y0, rho = pair
    if rho == 0.0:
        raise CoincidentPoints("spectral sum diverges at r = r0 (use renorm_sum)")
    top = _live_modes(k, ax, max(counts))
    r_m, chi_y0, chi_y = _pair_modes(k, top, y, y0) if table is None else table
    r_m, chi_y0, chi_y = r_m[:top], chi_y0[:top], chi_y[:top, 0]
    op, cl = slice(None, n_open), slice(n_open, None)
    open_term = (-1j / r_m[op]) * chi_y[op] * chi_y0[op] * np.exp(1j * r_m[op] * ax)
    closed_term = (-1.0 / r_m[cl]) * chi_y[cl] * chi_y0[cl] * np.exp(-r_m[cl] * ax)
    open_sum = open_term.sum()
    return [complex(open_sum + closed_term[:t - n_open].sum()) for t in counts]


def _live_modes(kd: float, ax: float, count: int) -> int:
    """min(count, the last mode whose closed term can be nonzero at |x - x0| = ax).

    Past the modes open at s = hypot(_EXP_UNDERFLOW/ax, kd) and one more,
    every mode is closed and has ax r_m > _EXP_UNDERFLOW by the margin of a
    whole mode spacing, far above rounding, so exp(-ax r_m) is exactly 0.  On
    the axis nothing decays, and every mode counts.
    """
    s = np.hypot(_EXP_UNDERFLOW / ax, kd) if ax > 0.0 else np.inf
    return count if s >= count * np.pi else min(count, _n_open(s) + 1)


def _pair_modes(kd: float, m_max: int, y: float, y0: float):
    """The mode table of one point pair: r_m = |k_x^(m)|, chi_m(y0) and chi_m(y), the last as an
    (m_max, 1) column, for m = 1..m_max.  Its entries are elementwise, so a slice holds the bits
    of its modes evaluated alone, and every mode sum of the pair reads slices of one table."""
    m = np.arange(1, m_max + 1)
    return _abs_kx(kd, m), _chi(m, y0), _chi(m, np.array([y]))


def _image_distances(r, r0, n_images: int):
    """Image indices n = -n_images..n_images (an integer >= 0), their signs (-1)^n and
    rho_n = |r - r_n|, r_n = (x0, y_n)."""
    if not _integer_in(n_images, 0):
        raise DomainError(f"n_images must be an integer >= 0, got {n_images!r}")
    n, signs, ys = _images(-n_images, n_images, float(r0[1]))
    return n, signs, np.hypot(float(r[0]) - float(r0[0]), float(r[1]) - ys)


def image_sum_alternating(r, r0, k: float, n_images: int, include_source: bool = True) -> complex:
    """sum over images of (-1)^n G_0(r, r_n), pairwise-grouped.

    Adjacent opposite-sign terms are summed first; that stabilises the
    conditionally convergent series without changing its value.
    """
    return _alternating_sums(r, r0, k, [n_images], include_source)[0]


def _alternating_sums(r, r0, k: float, counts: list, include_source: bool = True) -> list:
    """image_sum_alternating at each n_images of counts, from one J_0/Y_0 evaluation over the
    images of the largest: each sum pairs the first n_images terms on either side of the source.

    H_0 = J_0 + i Y_0 is never formed: (-1)^n (-i/2) H_0 = (-1)^n (Y_0 - i J_0) / 2,
    each part an exact +-0.5 scaling of hankel1_parts, is written straight into
    the term array.
    """
    top = max(counts)
    signs, rho = _image_distances(r, r0, top)[1:]
    if not include_source:  # the source term is 0: drop it, so the images are t[:top] and t[-top:]
        signs, rho = np.delete(signs, top), np.delete(rho, top)
    if np.any(rho == 0.0):
        raise CoincidentPoints("field point coincides with an image point")
    j, y = hankel1_parts(0, np.multiply(rho, k, out=rho))
    half = np.multiply(signs, 0.5, out=signs)
    t = np.empty(j.size, dtype=complex)
    np.multiply(half, y, out=t.real)
    np.multiply(np.negative(half, out=half), j, out=t.imag)
    above, below = _paired_sums(t[t.size - top:], counts), _paired_sums(t[:top][::-1], counts)
    source = t[top] if include_source else 0.0
    return [source + a + b for a, b in zip(above, below)]


def image_sum_positive(r, r0, k: float, n_images: int) -> float:
    """sum over images of J_0(k |r - r_n|) with all-positive signs, pairwise-grouped."""
    if not k > 0.0:
        raise DomainError(f"k must be positive, got {k!r}")
    _, _, rho = _image_distances(r, r0, n_images)
    if np.any(rho == 0.0):
        raise CoincidentPoints("field point coincides with an image point")
    t = cylinder_bessel_j(0, k * rho)
    i0 = n_images
    return float(t[i0] + _paired_sums(t[i0 + 1:], [i0])[0] + _paired_sums(t[:i0][::-1], [i0])[0])


def _paired_sums(arr: np.ndarray, counts) -> list:
    """The pairwise-grouped sum of arr[:c] at each c of counts: the sums of adjacent terms are
    formed once, every count sums a prefix of them, and an odd count adds its last term."""
    pairs = arr[0:len(arr) - 1:2] + arr[1::2]
    return [pairs[:c // 2].sum() + arr[c - c % 2:c].sum() for c in counts]


def greens_image(r, r0, k: float, n_images: int) -> GreensValue:
    """Raw image representation, for validation and benchmarking only.

    The tail bound is the magnitude of the last retained image term, which
    is honest for a conditionally convergent alternating series; expect
    ~1e-3 accuracy even at 1e5 images.
    """
    rho = _pair(r, r0)[3]
    guard_mode_openings(k)
    value = image_sum_alternating(r, r0, k, n_images)
    rho_last = max(2.0 * n_images - 2.0, rho)
    tail = float(np.sqrt(2.0 / (np.pi * k * max(rho_last, 1e-300))))
    return GreensValue(complex(value), "image", 2 * n_images + 1, tail)


# ---------------------------------------------------------------------------
# series tail machinery (shared with renorm)
# ---------------------------------------------------------------------------

def zeta_tail(s, m_trunc, shift=0.0):
    """sum_{m > m_trunc} (m + shift)^(-s) by Euler-Maclaurin, elementwise; ~1e-16 for m_trunc >= 50."""
    a = m_trunc + 1.0 + shift
    return (np.float_power(a, 1.0 - s) / (s - 1.0) + 0.5 * np.float_power(a, -s)
            + s * np.float_power(a, -s - 1.0) / 12.0
            - s * (s + 1.0) * (s + 2.0) * np.float_power(a, -s - 3.0) / 720.0
            + s * (s + 1) * (s + 2) * (s + 3) * (s + 4) * np.float_power(a, -s - 5.0) / 30240.0)


_ABEL_DEPTH = 5
# signed binomial rows: level j of the Abel transform needs the forward
# difference sum_i (-1)^i C(j, i) f(m + i)
_FORWARD_DIFFERENCE = tuple(tuple((-1) ** i * comb(j, i) for i in range(j + 1))
                            for j in range(_ABEL_DEPTH))


# numpy's array loops for complex product and modulus may fuse or reorder what its scalar
# ones round step by step; these round alike for both, so a batch matches its lone calls

def _cmul(p, q):
    return (p.real * q.real - p.imag * q.imag) + 1j * (p.real * q.imag + p.imag * q.real)


def _cabs(w):
    return np.hypot(w.real, w.imag)


def _cdiv(p, q):
    """p / q for q != 0, bit for bit as CPython divides complex numbers (Smith's method)."""
    p, q = np.asarray(p, dtype=complex), np.asarray(q, dtype=complex)
    by_re = np.abs(q.real) >= np.abs(q.imag)  # divide through by the larger part of q
    x, y = np.where(by_re, q.real, q.imag), np.where(by_re, q.imag, q.real)
    u, v = np.where(by_re, p.real, p.imag), np.where(by_re, p.imag, p.real)
    r = y / x
    den = x + y * r
    re, im = (u + v * r) / den, np.where(by_re, v - u * r, u * r - v) / den
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im  # not re + 1j * im, which turns an imaginary -0 into +0
    return out[()]


def geometric_tail(z, s, m_trunc, shift=0.0):
    """sum_{m > m_trunc} z^m (m + shift)^(-s) for |z| <= 1, z != 1, elementwise.

    Iterated Abel (summation-by-parts) transform; each level trades one
    power of (m + shift) for a factor z/(1-z).  Returns (value, bound on
    the dropped remainder).
    """
    z = np.asarray(z, dtype=complex)  # numpy's complex power, not Python's, for every caller
    one_minus = 1.0 - z
    if np.any(_cabs(one_minus) < 1e-12):
        raise DomainError("geometric_tail requires z != 1")
    lead = z ** (m_trunc + 1) / one_minus
    f = [np.float_power(m_trunc + 1.0 + i + shift, -s) for i in range(_ABEL_DEPTH)]
    total, coef, ratio = 0.0 + 0.0j, 1.0 + 0.0j, -z / one_minus
    for row in _FORWARD_DIFFERENCE:
        total = total + _cmul(coef, lead) * sum(map(mul, row, f))
        coef = _cmul(coef, ratio)
    rising = prod(s + j for j in range(_ABEL_DEPTH))
    return total, _cabs(coef) * rising * zeta_tail(s + _ABEL_DEPTH, m_trunc, shift)


def _flat(theta):
    """theta mod 2 pi, and where it lies within 1e-9 of 0 mod 2 pi (e^{i theta} = 1)."""
    th = np.remainder(theta, 2.0 * np.pi)
    return th, np.minimum(th, 2.0 * np.pi - th) < 1e-9


def _cos_tail(theta, s, m_trunc):
    """sum_{m > m_trunc} cos(m theta) / m^s with remainder bound, elementwise; flat angles take
    the exact zeta tail (their Abel lane runs at theta = pi and is discarded)."""
    th, flat = _flat(theta)
    val, bound = geometric_tail(np.exp(1j * np.where(flat, np.pi, th)), s, m_trunc)
    return np.where(flat, zeta_tail(s, m_trunc), val.real), np.where(flat, 0.0, bound)


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


def _per_key(factors, m_trunc, alpha, beta):
    """factors(M, alpha, beta) once per distinct (M, alpha, beta) of the broadcast arguments.

    factors is elementwise and returns arrays whose trailing axes are the
    arguments'; it runs on the first element of each distinct key (by bit
    pattern: one lexsort and a change mask) and its results are gathered back
    to every element.  An elementwise result does not depend on the batch it
    is computed in, so this changes no bit; a lone element passes straight
    through.
    """
    keys = np.broadcast_arrays(m_trunc, alpha, beta)
    if keys[0].size <= 1:
        return factors(*keys)
    flat = [k.ravel() for k in keys]
    bits = [np.asarray(k, dtype=float).view(np.uint64) for k in flat]
    order = np.lexsort(bits)
    change = np.zeros(order.size, dtype=bool)
    change[0] = True
    for b in bits:
        b = b[order]
        change[1:] |= b[1:] != b[:-1]
    first, inverse = order[change], np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(change) - 1
    return tuple(np.take(f, inverse, axis=-1).reshape(f.shape[:-1] + keys[0].shape)
                 for f in factors(*(k[first] for k in flat)))


def _tail_factors(m_trunc, alpha, beta):
    """What mode_product_tail takes from (M, alpha, beta) alone: the s = 3, 5 cos-tails (axis 0)
    at alpha and beta (axis 1), their bounds, and zeta_tail(7, M)."""
    angles = np.stack((alpha, beta))
    values, bounds = _cos_tail(angles, np.reshape([3.0, 5.0], (2,) + (1,) * angles.ndim), m_trunc)
    return values, bounds, zeta_tail(7.0, m_trunc)


def mode_product_tail(coefs, m_trunc, alpha, beta):
    """Analytic tail of the Kummer-subtracted series past ``m_trunc``, elementwise.

    coefs is (c3, c5, c7) = kummer_tail_coefficients(kd), along axis 0.  The
    transverse product is (1/d)[cos(m alpha) - cos(m beta)] (_mode_angles), so
    the alpha cos-tails add and the beta ones subtract.  Returns (tail value,
    error bound including the O(m^-7) neglect).
    """
    c3, c5, c7 = coefs
    (t3, t5), (b3, b5), z7 = _per_key(_tail_factors, m_trunc, alpha, beta)
    total_a, total_b = -(c3 * t3[0]) - c5 * t5[0], -(c3 * t3[1]) - c5 * t5[1]
    return total_a - total_b, 2.0 * c7 * z7 + (c3 * b3[0] + c5 * b5[0]) + (c3 * b3[1] + c5 * b5[1])


def _abel_gap6(theta):
    """|1 - e^{i theta}|^6, elementwise; inf at flat theta, where a cos-tail has no Abel remainder."""
    th, flat = _flat(theta)
    return np.where(flat, np.inf, np.float_power(_cabs(1.0 - np.exp(1j * th)), 6))


def _bound_factors(m_trunc, alpha, beta):
    """What _closed_form_bound takes from (M, alpha, beta) alone: zeta_tail at s = 7, 8, 10
    (axis 0), and _abel_gap6 at alpha and beta (axis 0)."""
    s = np.reshape([7.0, 8.0, 10.0], (3,) + (1,) * np.ndim(m_trunc))
    return zeta_tail(s, m_trunc), _abel_gap6(np.stack((alpha, beta)))


def _closed_form_bound(coefs, m_trunc, alpha, beta):
    """Closed-form estimate of mode_product_tail's bound, the plan's deciding criterion.

    coefs as for mode_product_tail.  A cos-tail's Abel remainder is at most
    (s)_5 zeta_tail(s + 5, M) / _abel_gap6.
    """
    c3, c5, c7 = coefs
    (z7, z8, z10), gaps6 = _per_key(_bound_factors, m_trunc, alpha, beta)
    bound = 4.0 * c7 * z7
    for gap6 in gaps6:
        bound = bound + c3 * (3 * 4 * 5 * 6 * 7) * z8 / gap6 + c5 * (5 * 6 * 7 * 8 * 9) * z10 / gap6
    return bound


def _mode_angles(y, y0):
    """Angles of chi_m(y) chi_m(y0) = (1/d)[cos(m alpha) - cos(m beta)], as (alpha, beta)."""
    return np.pi * (y - y0), np.pi * (y + y0)


def _geometric_mode_tail_bound(m_trunc, k, ax):
    """Bound on the neglected spectral/kummer modes for ax = |x-x0| > 0, elementwise."""
    kappa_rate = np.pi * ax
    m1 = m_trunc + 1
    # kappa_m >= 0.85 m pi / d once m exceeds ~1.9 kd/pi, and >= m pi / 2d once m pi sqrt(3/4) >= kd;
    # below that an m > M may be open or barely decaying, and nothing is bounded
    rate = kappa_rate * np.where(m1 > 1.9 * k / np.pi, 0.85, 0.5)
    amp = 2.0 * (2.0 / (m1 * np.pi))
    tail = amp * np.exp(-rate * m1) / np.maximum(1.0 - np.exp(-rate), 1e-300)
    return np.where(m1 * np.pi * np.sqrt(0.75) < k, np.inf, np.where(rate * m1 > 700.0, 0.0, tail))


def _doubled(m_trunc, live, cap, done):
    """Double each live M of m_trunc in place until done(M, i) holds at its index i or M reaches cap:
    an M below cap may end below 2 cap, and one that starts at or past cap is left as it is."""
    i = np.flatnonzero(live & (m_trunc < cap))
    while i.size:
        i = i[~done(m_trunc[i], i)]
        m_trunc[i] *= 2
        i = i[m_trunc[i] < cap]
    return m_trunc


def _check_tol(tol: float) -> None:
    """The one check of a truncation tolerance: a DomainError unless it is positive and finite."""
    if not 0.0 < tol < inf:
        raise DomainError(f"tol must be positive and finite, got {tol!r}")


def _kummer_plan(kd, ax, tol: float, y, y0):
    """Mode count M, analytic tail completion and error bound of the Kummer sum, elementwise.

    The one code that picks a Kummer M, over broadcast kd, ax = |x - x0|, y and
    y0, after _check_tol.  Geometric truncation wins wherever it fits.  It reads
    kd and ax alone, so it runs on their broadcast (a grid's column of ax, not its
    points) and is broadcast to every element.  Essentially on-axis elements
    (ax < ~4e-5 d, and r = r0 for G_r), and only they, take the m^-3
    completion from the M of _closed_form_bound.  Off the axis the completion
    ignores the x decay, so the tail is smaller by at most the completion: that
    is charged to the bound, and M doubles until it fits.  Raises
    TruncationLimit for the first element, in row-major order, whose bound
    misses tol where the caps end the doubling (their comment gives the
    counts).  The tails (_closed_form_bound, mode_product_tail) evaluate their
    (M, alpha, beta) factors once per distinct key, 2 for a 2,000-kd sweep at
    one y0, and each element's kd combination elementwise, from kd coefficients
    computed once per plan, so every element is its lone plan.
    """
    _check_tol(tol)
    kd, ax, y, y0 = (np.asarray(v, dtype=float) for v in (kd, ax, y, y0))
    kd_g, ax_g = np.broadcast_arrays(kd, ax)
    geometric_shape, shape = kd_g.shape, np.broadcast_shapes(kd_g.shape, y.shape, y0.shape)
    kd_g, ax_g = kd_g.ravel(), ax_g.ravel()
    off_axis = ax_g > 0.0
    m_trunc = _doubled(np.full(kd_g.shape, 64), off_axis, _GEOMETRIC_MODE_CAP,
                       lambda m, i: _geometric_mode_tail_bound(m, kd_g[i], ax_g[i]) <= tol)
    bound = np.full(kd_g.shape, np.inf)  # on the axis, as at r = r0 for every G_r, nothing decays
    if off_axis.any():
        bound = np.where(off_axis, _geometric_mode_tail_bound(m_trunc, kd_g, ax_g), bound)
    m_trunc, bound = (np.broadcast_to(v.reshape(geometric_shape), shape).flatten() for v in (m_trunc, bound))
    completion = np.zeros(bound.shape)
    near = np.flatnonzero(~(bound <= tol))
    if near.size:
        kd_n, ax_n, y_n, y0_n = (np.broadcast_to(v, shape).flat[near] for v in (kd, ax, y, y0))
        alpha, beta = _mode_angles(y_n, y0_n)
        coefs = np.stack(kummer_tail_coefficients(kd_n))  # once per plan; each step takes its columns

        def charged_bound(m, i):
            completion_i, bound_i = mode_product_tail(coefs[:, i], m, alpha[i], beta[i])
            return completion_i, np.where(ax_n[i] > 0.0, bound_i + np.abs(completion_i), bound_i)

        m_n = _doubled(np.maximum(256, 4 * _n_open(kd_n)), True, _KUMMER_MODE_CAP,
                       lambda m, i: _closed_form_bound(coefs[:, i], m, alpha[i], beta[i]) < tol)
        m_n = _doubled(m_n, ax_n > 0.0, _KUMMER_MODE_CAP, lambda m, i: charged_bound(m, i)[1] < tol)
        completion_n, bound[near] = charged_bound(m_n, slice(None))
        m_trunc[near], completion[near] = m_n, completion_n
        bad = np.flatnonzero(~(bound[near] < tol))
        if bad.size:
            j = bad[0]
            raise TruncationLimit(f"Kummer series at |x - x0|={ax_n[j].item()!r}, y={y_n[j].item()!r}, "
                                  f"y0={y0_n[j].item()!r}, kd={kd_n[j].item()!r}: bound "
                                  f"{bound[near[j]]:.3g} with {m_n[j]} modes misses tol={tol:g}")
    return tuple(v.reshape(shape) for v in (m_trunc, completion, bound))


def _mode_product(kd: float, counts: list, ax, ys, y0: float, table=None, ends=None) -> list:
    """sum_{m <= M} chi_m(y_j) chi_m(y0) [exp(i k_x ax_i)/(i k_x) + (d/m pi) exp(-m pi ax_i/d)]
    at each M of the ascending mode counts, as running totals of the rows still summed there.

    Row i is summed to its own mode count ends[i] (every row to the last count
    when ends is None) and then dropped.  ends must not increase along the
    rows, so the rows that reach a count lead, and its total holds them alone.
    The sum is blocked over modes, each block shared by every row still summed,
    so each mode is evaluated once per call.  A block ends at every count, and
    its (rows x modes) and (modes x ys) temporaries stay within _BLOCK elements
    while the rows still summed and len(ys) do: a one-row call keeps one block
    size throughout.  A block reads r_m, chi_m(y0) and chi_m(ys) from table,
    one pair's _pair_modes, or else evaluates them.  A closed mode has
    k_x = i r_m, r_m = |k_x^(m)|, and the real wave term -exp(-r_m ax)/r_m, so
    a block of closed modes is summed in real arithmetic; a block holding any
    of the N open modes is complex.  The sum stops where the modes it is given
    end: at the largest count, or at the end of a shorter table, past which
    every term is +-0 (_live_modes, the one home of that rule).
    """
    n_open = _n_open(kd)
    end = min(counts[-1], len(table[0])) if table else counts[-1]
    total, totals, lo = np.zeros((ax.size, ys.size)), [], 0
    for count in counts:
        if ends is not None:
            total = total[:np.count_nonzero(ends >= count)]
        rows = ax[:len(total)]
        step = max(1, _BLOCK // max(rows.size, ys.size))
        while lo < min(count, end):
            hi = min(lo - lo % step + step, count, end)
            m = np.arange(lo + 1, hi + 1)
            r_m, chi_y0, chi_ys = (t[lo:hi] for t in table) if table else (_abs_kx(kd, m), _chi(m, y0), _chi(m, ys))
            n_o = min(max(n_open - lo, 0), hi - lo)  # the block's open modes
            wave = _exp_outer(rows, -r_m[n_o:]) * (-1.0 / r_m[n_o:])
            if n_o:
                wave = np.concatenate([_exp_outer(rows, 1j * r_m[:n_o]) / (1j * r_m[:n_o]), wave], axis=-1)
            coef = chi_y0 * (wave + (1.0 / (m * np.pi)) * _exp_outer(rows, -m * np.pi))
            total = total + coef @ chi_ys
            lo = hi
        totals.append(total)
    return totals


def _exp_outer(ax, v):
    """exp(ax_i v_j) over the outer product; on the axis (every ax 0) exactly 1, as one column."""
    return np.exp(np.multiply.outer(ax, v)) if ax.any() else np.ones((ax.size, 1))


def _kummer_sum(kd: float, ax, ys, y0: float, m_trunc, completion):
    """G_w at the points (ax_i, y_j), ax = |x - x0|: completion + static form + the mode sum to each
    point's M = m_trunc[i, j] (M = 0: r = r0, NaN).

    One _mode_product call sums every row, in order of its largest M, and takes
    its running totals at each distinct M: each mode is evaluated once per grid,
    and a row is dropped once its largest M is summed.
    """
    ends = m_trunc.max(axis=1)
    order = np.argsort(-ends, kind="stable")
    m_sorted = m_trunc[order]
    counts = np.unique(m_sorted[m_sorted > 0]).tolist()
    totals = _mode_product(kd, counts, ax[order], ys, y0, ends=ends[order]) if counts else []
    out = np.full(m_trunc.shape, np.nan, dtype=complex)
    for count, total in zip(counts, totals):
        i, j = np.nonzero(m_sorted[:len(total)] == count)
        out[order[i], j] = total[i, j]
    out += completion
    with np.errstate(divide="ignore"):  # log 0 at r = r0, where out is NaN already
        out += _static_form(ax[:, None], ys, y0)
    return out


def _kummer_truncated(kd: float, ax: float, y: float, y0: float, m_trunc, tail, table=None):
    """Kummer form of one point pair summed to exactly m_trunc modes plus the tail completion
    ``tail`` (0 for none): greens_kummer at its plan's M, and convergence_benchmark's reference
    and kummer rows.

    At r = r0 this is the renormalization sum G_w - G_0.  m_trunc may also be an
    ascending list of mode counts, with tail broadcast along its last axis: every
    count then comes from one mode sum, which reads the pair's mode table when
    given one, or from one _kummer_coincident pass over one chi_m^2(y0) vector
    at r = r0, and the result is an array.
    """
    counts = np.atleast_1d(m_trunc).tolist()
    tail = np.broadcast_to(tail, np.broadcast_shapes(np.shape(tail), (len(counts),)))
    if ax == 0.0 and y == y0:
        w = _chi(np.arange(1, counts[-1] + 1), y0) ** 2
        values = np.stack(_kummer_coincident(kd, y0, w, _n_open(kd), tail, counts)[0], axis=-1)
    else:
        ax, ys = np.array([ax]), np.array([y])
        sums = np.array(_mode_product(kd, counts, ax, ys, y0, table))[:, 0, 0]
        values = sums + tail + _static_form(ax[:, None], ys, y0)[0, 0]
    return values if np.ndim(m_trunc) else complex(values[0])


def _kummer_coincident(kd, y0, w, n_open: int, completion, counts: list):
    """G_r = G_w - G_0 at r = r0 at each M of the ascending mode counts, and Sigma, for rows of
    (kd, y0) with n_open <= counts[0] open modes each.

    w holds chi_m^2(y0), m = 1..counts[-1], in contiguous rows: one per kd, or
    one that every kd shares; completion broadcasts against the rows, with a
    last axis over the counts.  The mode sum sum_{m <= M} chi_m(y0)^2
    [1/(i k_x) + d/(m pi)] is real arithmetic: with r_m = |k_x^(m)| =
    sqrt|kd^2 - (m pi)^2|, 1/(i k_x) is -i/r_m for an open mode and -1/r_m
    for a closed one, so

        Re = sum_m chi_m^2 [d/(m pi) - [m > N]/r_m],   Im = -sum_{m <= N} chi_m^2 / r_m.

    Sigma = sum_{m <= N} chi_m^2 / r_m divides by r_m where Im multiplies by
    1/r_m: the two are rounded apart, so Im G_r = 1/2 - Sigma stays a check.
    The modes m < m_s = 2N + 2 are weighted one by one, and each count's Re
    takes np.sum over a prefix of them.  Every later mode is closed with
    q = kd/(m pi) < (N + 1)/m_s = 1/2, and its term is -chi_m^2/(m pi) times
    1/sqrt(1 - q^2) - 1 = sum_{j >= 1} a_j q^(2j), a_j = C(2j, j)/4^j (the
    binomial series), so those modes add

        -sum_j a_j kd^(2j) S_j,   S_j = sum_{m_s <= m <= M} chi_m^2 / (m pi)^(2j+1):

    the moments of _closed_moments, which depend on w, m_s and M alone.  Block
    t of modes [2^t m_s, 2^(t+1) m_s) has q < 2^-(t+1) and keeps only the
    _SERIES_ORDERS[t] orders that this needs, as specfun's _ASYM_TIERS keep
    the terms of the Hankel expansion.  Rows that share one row of w share
    its moments, so a sweep over kd at one y0 pays O(N + J) per kd rather than
    O(M).  Each term is taken as a_j (kd 2^-e)^(2j) times 2^(2je) S_j, an exact
    rescaling by the power of two 2^e just above m_s pi: kd 2^-e < 1/2, and
    2^e / (m pi) <= 2 for every m >= m_s, so neither factor overflows at any
    kd.  The coincidence constant replaces the static form.  Returns the list
    of G_r, one per count, and Sigma.
    """
    kd, m_s = np.asarray(kd, dtype=float), 2 * n_open + 2
    m = np.arange(1, min(m_s - 1, w.shape[-1]) + 1)
    inv_q, w_explicit = 1.0 / (m * np.pi), w[..., :m.size]
    r = _abs_kx(kd[..., None], m)  # the one buffer then holds 1/r, then the Re weights
    sigma = np.add.reduce(w[..., :n_open] / r[..., :n_open], axis=-1)
    inv_r = np.divide(1.0, r, out=r)
    im = -np.add.reduce(w[..., :n_open] * inv_r[..., :n_open], axis=-1)
    coef = np.subtract(inv_q, inv_r, out=r)
    coef[..., :n_open] = inv_q[:n_open]
    weighted, constant = np.multiply(w_explicit, coef, out=coef), _coincidence_constant(kd, y0)
    e = frexp(m_s * np.pi)[1]  # 2^(e-1) <= m_s pi < 2^e, so kd 2^-e < 1/2
    x_powers = np.repeat(np.square(np.ldexp(kd, -e))[None], len(_SERIES_COEFS), axis=0)
    x_powers = np.multiply.accumulate(x_powers, axis=0, out=x_powers).T  # x^j along the last axis
    series = np.multiply(x_powers, _SERIES_COEFS, order="C")
    moments = _closed_moments(w, m_s, e, counts).reshape((len(counts),) + w.shape[:-1] + (len(_SERIES_COEFS),))
    g_r = []
    for i, c in enumerate(counts):
        re = np.add.reduce(weighted[..., :c], axis=-1) - np.add.reduce(series * moments[i], axis=-1)
        mode_sum = np.empty(np.broadcast_shapes(np.shape(re), np.shape(completion[..., i])), dtype=complex)
        mode_sum.real, mode_sum.imag = re + completion[..., i], im
        g_r.append(mode_sum + constant)
    return g_r, sigma


def _closed_moments(w, m_s: int, e: int, counts: list):
    """2^(2je) S_j, S_j = sum_m chi_m^2 / (m pi)^(2j+1), j = 1.._SERIES_ORDERS[0], over the modes
    m_s <= m <= M that order j reaches, at each M of the ascending counts (axis 0), one row per row
    of w (axis 1), j along the last axis.

    Block t, the modes [2^t m_s, 2^(t+1) m_s), keeps the orders its tier
    _SERIES_ORDERS[t] names, so order j runs over the modes up to the end of
    the last block that keeps it (_ORDER_REACH).  The orders go in chunks:
    as many as fit one (rows x orders x modes) table of _TABLE elements as
    wide as the chunk's first order reaches, and at least one, whose table
    then goes in row chunks.  A chunk's weights 2^(2je) / (m pi)^(2j+1) are
    formed in one buffer, each order the last times (2^e / (m pi))^2: the
    scale is exact, and 2^e / (m pi) <= 2 past m_s, so no weight overflows at
    any kd.  Each order's terms are summed over its own reach only, and every
    count sums a prefix of them by np.add.reduce, pairwise over one
    contiguous run and never a matmul: a count's moments are those of a call
    with that count alone, and a row's those of the row alone.
    """
    w, orders = w.reshape(-1, w.shape[-1]), len(_SERIES_COEFS)
    moments = np.zeros((len(counts), len(w), orders))
    n = counts[-1] - m_s + 1  # closed-series modes of the largest count
    if n <= 0:
        return moments
    ends = [(i, c - m_s + 1) for i, c in enumerate(counts) if c >= m_s]
    short = [(j0, j1, reach * m_s) for j0, j1, reach in _ORDER_REACH if reach * m_s < n]
    groups = [(0, short[0][0] if short else orders, n)] + short  # (j0, j1, the modes they reach)
    size = max(n, min(orders * n, _TABLE // len(w)))  # the weights of the largest chunk
    weights, scratch = np.empty(size), np.empty(min(max(_TABLE, size), len(w) * size))
    weight = np.multiply(np.arange(m_s, counts[-1] + 1, dtype=float), np.pi, out=weights[:n])
    weight = np.divide(1.0, weight, out=weight)  # 1/(m pi), then each order's weights in turn
    square = np.multiply(weight, weight)
    square *= 4.0 ** e  # (2^e / (m pi))^2, exactly
    j = g = 0
    while j < orders:
        while groups[g][1] <= j:  # the group of order j + 1, whose reach is the chunk's width
            g += 1
        width = groups[g][2]
        block = weights[:max(1, min(orders - j, _TABLE // (len(w) * width))) * width].reshape(-1, width)
        factor = square[:width]
        # the last order's weights share block[0]'s elements, or (a chunk of several) lie past them
        weight = np.multiply(weight[:width], factor, out=block[0])
        for r in range(1, len(block)):
            weight = np.multiply(weight, factor, out=block[r])
        rows = max(1, _TABLE // block.size)
        for a in range(0, len(w), rows):
            tail = w[a:a + rows, None, m_s - 1:m_s - 1 + width]
            table = scratch[:len(tail) * block.size].reshape(len(tail), *block.shape)
            np.multiply(tail, block, out=table)
            for j0, j1, reach in groups[g:]:
                lo, hi = max(j0, j), min(j1, j + len(block))
                if lo >= hi:
                    break
                for i, end in ends:
                    np.add.reduce(table[:, lo - j:hi - j, :min(reach, end)], axis=-1,
                                  out=moments[i, a:a + rows, lo:hi])
        j += len(block)
    return moments


def greens_kummer(r, r0, k: float, tol: float = 1e-10) -> GreensValue:
    """Convergence-accelerated wire Green's function.

    G_w = sum_m chi_m(y) chi_m(y0) [exp(i k_x|x-x0|)/(i k_x) + (d/m pi) exp(-m pi |x-x0|/d)]
          + greens_static(r, r0),

    one pair's plan (_kummer_plan) summed by _kummer_truncated; each point of
    greens_kummer_grid holds the same bits.  The returned tail_bound is an
    honest bound on everything dropped and below tol; very close to the
    source, where the plan cannot meet tol, it raises TruncationLimit.
    """
    ax, y, y0, rho = _pair(r, r0)
    guard_mode_openings(k)
    if rho == 0.0:
        raise CoincidentPoints("coincident points are routed to renorm_sum")
    m_trunc, completion, bound = _kummer_plan(k, ax, tol, y, y0)
    return GreensValue(_kummer_truncated(k, ax, y, y0, m_trunc, completion), "kummer", int(m_trunc), float(bound))


def greens_kummer_grid(xs, ys, r0, k: float, tol: float = 1e-10) -> np.ndarray:
    """Vectorized greens_kummer over a rectangular grid (complex, shape (nx, ny)).

    One truncation plan covers every grid point: its geometric part runs once
    per column of |x - x0|, its Kummer completion on the points next to the
    axis alone.  One pass over the modes (_kummer_sum) then sums every point to
    its own mode count.  Exact coincidence with r0 yields NaN.
    """
    x, y = _check_strip(np.append(xs, r0[0]), np.append(ys, r0[1]))
    _check_separation(x[:-1], x[-1])
    guard_mode_openings(k)
    ax, ys, y0 = np.abs(x[:-1] - x[-1]), y[:-1], y[-1]
    at_r0 = (ax == 0.0)[:, None] & (ys == y0)
    # r0 is planned as a point one width away (a cheap geometric plan), then dropped
    ax_plan = np.where(at_r0, 1.0, ax[:, None]) if at_r0.any() else ax[:, None]
    m_trunc, completion, _ = _kummer_plan(k, ax_plan, tol, ys, y0)
    m_trunc[at_r0] = 0
    return _kummer_sum(k, ax, ys, y0, m_trunc, completion)


# ---------------------------------------------------------------------------
# diffraction (periodic-array) representation
# ---------------------------------------------------------------------------

def _grating_sum(ax: float, etas, k: float, tol: float) -> tuple[list[complex], int, float]:
    """G_p = -(i/2) sum_n exp(i k_x^(n) ax) cos(n pi eta) / k_x^(n) at each eta: the period-2d grating, one order set."""
    # orders |n| <= n_max, n_max doubling from N + 8 until the closed orders dropped, bounded at kappa =
    # r_(n_max + 1), meet tol; the first n_max past _GEOMETRIC_MODE_CAP that misses it raises
    def bound(n_max):
        kappa = np.abs(_kx(k, n_max + 1))
        return 2.0 * np.exp(-kappa * ax) / np.maximum(kappa, 1e-300) / max(1.0 - np.exp(-np.pi * ax), 1e-300)

    n_max = _doubled(np.array([_n_open(k) + 8]), True, _GEOMETRIC_MODE_CAP + 1, lambda m, i: bound(m) < tol)
    n_max, tail = int(n_max[0]), float(bound(n_max)[0])
    if not tail < tol:
        raise TruncationLimit(f"grating sum at |x - x0|={ax!r}: bound {tail:.3g} with "
                              f"{2 * n_max + 1} orders misses its share {tol:g} of tol")
    n = np.arange(-n_max, n_max + 1)
    ky = np.pi * n
    kx = _kx(k, n)
    if np.any(np.abs(kx) < 1e-9 * k):
        raise DomainError("grazing diffraction order: k coincides with a reciprocal vector")
    phase = np.exp(1j * kx * ax)
    totals = [complex(-0.5j * np.sum(phase * np.cos(ky * eta) / kx)) for eta in etas]
    return totals, 2 * n_max + 1, tail


def greens_diffraction(r, r0, k: float, tol: float = 1e-10) -> GreensValue:
    """Two-array (period 2d) decomposition of the image lattice.

    The positive images {y0 + 2nd} and negative images {-y0 + 2nd} are each
    a periodic array; their grating Green's functions combine to exactly the
    spectral form.  Requires x != x0 for per-order decay; TruncationLimit where
    the order cap misses tol (|x - x0| below ~3e-5 d).
    """
    ax, y, y0, _ = _pair(r, r0)
    guard_mode_openings(k)
    _check_tol(tol)
    if ax == 0.0:
        raise DomainError("diffraction representation requires x != x0")
    # both arrays sum the same orders, each charged half of tol
    (minus, plus), n, bound = _grating_sum(ax, (y - y0, y + y0), k, tol / 2)
    return GreensValue(minus - plus, "diffraction", 2 * n, 2 * bound)


# ---------------------------------------------------------------------------
# semiclassical G_r
# ---------------------------------------------------------------------------

def semiclassical_renorm_sum(k: float, y0: float) -> complex:
    """Self-field sum over images with asymptotic Hankel forms, tail-completed.

    The three image families seen from the source sit at distances
    {2jd}, {2jd - 2y0}, {2jd + 2y0 - 2d} (j >= 1) with signs +, -, -; past its
    first _SC_EXPLICIT images each family is a geometric-phase series resummed
    by geometric_tail, so the result is a smooth function of kd away from mode
    openings and diverges at them, which makes it useful as a resonance-position diagnostic.
    """
    if not _interior(y0):
        raise DomainError(f"source must sit strictly inside the wire, got y0={y0!r}")
    guard_mode_openings(k)
    step = 2.0
    z = np.exp(1j * k * step)
    total = 0.0 + 0.0j
    for sign, dist0 in ((2.0, 0.0), (-1.0, -2.0 * y0), (-1.0, 2.0 * y0 - 2.0)):
        j = np.arange(1, _SC_EXPLICIT + 1)
        x = k * (dist0 + j * step)
        explicit = np.sum(-0.5j * np.sqrt(2.0 / (np.pi * x)) * np.exp(1j * (x - np.pi / 4)))
        pref = -0.5j * np.sqrt(2.0 / (np.pi * k * step)) * np.exp(1j * (k * dist0 - np.pi / 4))
        tail, _ = geometric_tail(z, 0.5, _SC_EXPLICIT, shift=dist0 / step)
        total += sign * (explicit + pref * tail)
    return complex(total)


# ---------------------------------------------------------------------------
# convergence benchmark
# ---------------------------------------------------------------------------

def convergence_benchmark(r, r0, k: float, representations=("spectral", "image", "kummer"),
                          term_grid=(10, 30, 100, 300, 1000, 3000, 10000)) -> list[BenchmarkRow]:
    """Terms-versus-error table for each representation at one point pair.

    Errors are measured against greens_kummer at tol = 1e-12.  ``kummer``
    rows use the shipped evaluator (completion included); ``kummer_raw``
    rows document the bare m^-3 truncation decay.  For a coincident pair the
    benchmark measures the regularized self-field G_w - G_0 instead (only the
    kummer forms, at a source strictly inside the wire), against the kummer form
    at 65,536 modes.  Each representation is evaluated once, at the largest
    count, and every row is a prefix sum of it; both kummer forms share one
    mode sum.  Off the source one mode table (_pair_modes) over the largest
    count and the reference's M serves the spectral rows, the reference
    (greens_kummer's plan and sum, so its value and its TruncationLimit) and
    the kummer rows; off the axis it stops at the last mode whose term can be
    nonzero (_live_modes).  A name outside _BENCHMARK_FORMS is refused first.
    """
    for rep in representations:
        if rep not in _BENCHMARK_FORMS:
            raise DomainError(f"benchmark does not support representation {rep!r}")
    ax, y, y0, rho = pair = _pair(r, r0)
    if len(term_grid) == 0 or not all(_integer_in(t, 0) for t in term_grid):
        raise DomainError(f"term_grid must be a non-empty sequence of integers >= 0, got {term_grid!r}")
    kummer_forms = {"kummer", "kummer_raw"} & set(representations)
    if kummer_forms:
        _covered_open_count(k, min(term_grid), "terms")
    else:
        guard_mode_openings(k)
    kd, table = k, None
    if rho == 0.0:
        bad = set(representations) - kummer_forms
        if bad:
            raise CoincidentPoints(f"only the kummer forms exist at coincidence, not {sorted(bad)}")
        if not _interior(y0):
            raise DomainError(f"G_w - G_0 at r = r0 needs the source strictly inside the wire, got y0={y0!r}")
        counts = sorted(set(term_grid) | {65536})
    else:
        counts = sorted(set(term_grid))
        # greens_kummer(r, r0, k, tol=1e-12): its plan, then its sum from the pair's table
        m_ref, completion, _ = _kummer_plan(kd, ax, 1e-12, y, y0)
        table = _pair_modes(kd, _live_modes(kd, ax, max(counts[-1], int(m_ref))), y, y0)
        ref = _kummer_truncated(kd, ax, y, y0, m_ref, completion, table)
    kummer = {}
    if kummer_forms:
        tails = mode_product_tail(kummer_tail_coefficients(kd), np.array(counts), *_mode_angles(y, y0))[0]
        raw, completed = _kummer_truncated(kd, ax, y, y0, counts, np.stack([np.zeros(len(counts)), tails]), table)
        kummer = {"kummer_raw": dict(zip(counts, raw)), "kummer": dict(zip(counts, completed))}
        if rho == 0.0:
            ref = complex(kummer["kummer"][65536])
    rows: list[BenchmarkRow] = []
    for rep in representations:
        if rep in kummer:
            values = [kummer[rep][t] for t in term_grid]
        elif rep == "spectral":
            values = _spectral_sums(pair, k, list(term_grid), table)
        elif rep == "image":
            values = _alternating_sums(r, r0, k, list(term_grid))
        else:  # diffraction, independent of the term count
            values = [greens_diffraction(r, r0, k, tol=1e-14).value] * len(term_grid)
        rows += [BenchmarkRow(rep, t, float(abs(complex(v) - ref))) for t, v in zip(term_grid, values)]
    return rows
