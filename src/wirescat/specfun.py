"""Cylinder (Bessel) functions J_0..J_3, Y_0, Y_1 and the outgoing Hankel function.

Self-contained implementation in plain float64, so the results are the same
on every platform; every Green's function and t-matrix formula in this
package rests on these routines, so their accuracy budget is set one to two
orders below the tightest downstream tolerance.

Evaluation strategy
-------------------
Each branch has one kernel that yields J_n and Y_n together, and one
dispatch at ``SWITCHOVER`` serves ``cylinder_bessel_j``, ``cylinder_bessel_y``,
``hankel1`` (= J + iY of the same values) and ``hankel1_parts`` (J and Y
themselves, for callers that scale them apart).  Every operation is
elementwise, so a value does not depend on the batch it is computed in.

* ``x < 15``: Miller's algorithm.  One backward recurrence
  J_{m-1} = (2m/x) J_m - J_{m+1}, started at the fixed even order
  N = 44 for every x, gives J_0..J_3; it is normalised by
  J_0 + 2 sum_{k>=1} J_2k = 1 (A&S 9.1.46; Numerical Recipes 6.5).  The
  Neumann series (A&S 9.1.88) give Y from the same values,

      Y_0 = (2/pi)[(ln(x/2) + gamma) J_0 - 2 sum_{k>=1} (-1)^k J_2k / k],
      Y_1 = -Y_0' = -(2/pi)[J_0/x - (ln(x/2) + gamma) J_1
                            - sum_{k>=1} (-1)^k (J_{2k-1} - J_{2k+1}) / k].

  The recurrence is carried on F_m = J_m (2/x)^m, and |F_m| <= 1/m!, so
  from F_N = 1 no value exceeds N! ~ 3e54 for any x >= 0: nothing needs
  rescaling and x = 0 needs no special case.  The recurrence is about 180
  (J) or 330 (J and Y) numpy operations whatever the batch size, 90 or
  210 us on a one-element array, so a batch with at most _MILLER_SCALAR (8)
  arguments below the switchover runs it on each as a Python float, 6 or
  9 us apiece (11 or 19 us as an np.float64), and the expansion below runs
  over the whole batch: its values at those few elements are overwritten,
  so no argument, J or Y is gathered or scattered.  Python's float and
  numpy's array loops round + - * / alike (IEEE double, nothing fused), and
  the one transcendental, the log of the Y sums, is numpy's on both paths,
  so both give the same bits.  Lone calls and the few near images of an
  image sum take the scalar path.
* ``x >= 15``: Hankel asymptotic expansion, one P/Q evaluation and one phase
  for both functions,

      J_n(x) = sqrt(2/(pi x)) [P_n(x) cos(c) - Q_n(x) sin(c)],
      Y_n(x) = sqrt(2/(pi x)) [P_n(x) sin(c) + Q_n(x) cos(c)],
      c = x - (2n+1) pi/4,

  with P and Q summed by the term recursion of A&S 9.2.9-9.2.10 to at most
  22 terms.  The optimally-truncated remainder of this expansion scales as
  exp(-2x), which is why the switchover sits at 15 (exp(-30) ~ 1e-13)
  rather than the textbook 8 (exp(-16) ~ 1e-7 would wreck the 1e-12
  budget).  Each element stops at the tier its argument reaches:

      x >= 1000: 6 terms,  x >= 100: 11,  x >= 50: 14,  below: 22.

  Every term a tier drops is below 2^-55 * 0.9/(8x) for n = 0 and 1, and
  below 2^-55 * 0.9 (4n^2 - 1)/(8x) for the J-only orders 2 and 3: the test
  suite checks this in exact arithmetic at each threshold, and |term| * 8x
  falls with x.  That is under half an ulp of Q, whose size is at least
  0.9/(8x) (0.9 (4n^2 - 1)/(8x)) there, and far under half an ulp of P,
  which lies within 1 % of 1.  Adding the term would leave P or Q as it
  is, so each value equals the 22-term sum bit for bit.

  The phase is reduced by Cody & Waite (Software Manual for the Elementary
  Functions, 1980): x = k pi/2 + r with k = rint(2x/pi) and
  r = ((x - k P1) - k P2) - k P3, where P1 + P2 + P3 is fdlibm's three-part
  split of pi/2.  k P1 is exact for k < 2^22; a batch holding a larger k
  splits k at 2^22, so r carries no more than the rounding of k P2, below
  1e-15 for x <= 1e11.  Then c = r + (j pi/2 - pi/4) mod 2 pi
  with j = (k - n) mod 4, so |c| <= pi.  In a plain double subtraction
  x - (2n+1) pi/4 the ulp of x ~ 1e4 alone would cost 2e-12.

Accuracy (validated against arbitrary-precision mpmath in the test suite)
--------------------------------------------------------------------------
Absolute error <= 1e-12 * envelope for 0 <= x <= 1e11, where the envelope is
max(|f(x)|, sqrt(2/(pi x))); measured, it is below 2e-15 below the
switchover, 3e-14 at x = 15, where the exp(-2x) remainder dominates, and
below 1e-15 from x = 20 on.  Away from the zeros of f this is a relative
error <= 1e-12.  Both branches agree within 1e-11 around x = 15.  Beyond
x = 1e11 the rounding of k P2 grows like 4e-27 x (4e-15 at x = 1e12).

Orders are capped at J_3 / Y_1, which the recurrence yields anyway.  The
package evaluates order 0 (Green's functions, t-matrix) and, in ``validate``,
J_1 and Y_1 (Wronskian check) and J_2 (recurrence check); J_3 and H_1 serve
the public API alone.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["cylinder_bessel_j", "cylinder_bessel_y", "hankel1", "hankel1_parts", "SWITCHOVER"]

SWITCHOVER = 15.0

_MILLER_START = 44   # even; the first neglected term, J_46(x), is below 1e-18 for x < 15
_MILLER_SCALAR = 8   # at most this many arguments below SWITCHOVER take the recurrence one at a time
# (X, n): an argument x >= X sums the first n terms of P and Q (module docstring)
_ASYM_TIERS = ((1000.0, 6), (100.0, 11), (50.0, 14), (0.0, 22))
_EULER = 0.5772156649015329
_LN2 = 0.6931471805599453
# fdlibm's split of pi/2 (31, 32 and 28 significant bits): k * _PIO2_1 is exact for k < 2**22
_PIO2_1 = 1.57079632673412561417e+00
_PIO2_2 = 6.07710050630396597660e-11
_PIO2_3 = 2.02226624871116645580e-21
# (k - n) pi/2 - pi/4 mod 2 pi for (k - n) mod 4 = 0..3
_QUADRANT_PHASE = np.array([-0.25, 0.25, 0.75, -0.75]) * np.pi


def _miller(n: int, x: np.ndarray, want_y: bool):
    """J_n and, if ``want_y``, Y_n (n <= 1) from one backward recurrence.

    It runs on F_m = J_m (2/x)^m up to a common factor,
    F_{m-1} = m F_m - (x/2)^2 F_{m+1}, and each sum over J_2k or J_{2k+-1}
    is a Horner sum in (x/2)^2 over the same F_m.
    """
    h = x / 2
    q = h * h
    minus_q = -q
    f_up, f = 0.0, 1.0                   # F_{m+1}, F_m
    even = y0_sum = y1_sum = 0.0         # Horner sums in q, -q and -q
    f_n = None
    for m in range(_MILLER_START, 0, -1):
        if m == n:
            f_n = f
        k = (m + 1) // 2
        if m % 2 == 0:
            even = even * q + f
            if want_y:
                y0_sum = y0_sum * minus_q + f / k
        elif want_y:
            y1_sum = y1_sum * minus_q + (f / k - f_up)
        f_up, f = f, m * f - q * f_up
    norm = f + 2 * q * even              # J_0 + 2 sum J_2k = 1
    jn = (f if n == 0 else f_n) * (1.0, h, q, h * q)[n] / norm
    if not want_y:
        return jn, None
    log_term = np.log(x) - _LN2 + _EULER  # ln(x/2) + gamma; x/2 underflows for subnormal x
    if n == 0:
        y = (2 / np.pi) * ((log_term * f + 2 * q * y0_sum) / norm)
    else:
        y = -(2 / np.pi) * (f / norm / x - (log_term * f_up - 2 * y1_sum) * h / norm)
    return jn, y


def _asym_pq(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n, Q_n of the Hankel expansion, each element summed to its tier's term count."""
    p, q, t = np.ones_like(x), np.zeros_like(x), np.ones_like(x)
    _add_pq_terms(4.0 * n * n, x, p, q, t, 1, _ASYM_TIERS)
    return p, q


def _add_pq_terms(mu: float, x, p, q, t, first: int, tiers) -> None:
    """Add terms first, first + 1, ... of P and Q to p and q in place, each element up to the
    count of the first of tiers it reaches; t holds the last term added.

    The term recursion avoids huge coefficients.  The elements that go on to a
    later tier do so in a gathered copy, which is scattered back.
    """
    (x_min, last), later = tiers[0], tiers[1:]
    step = np.empty_like(x)
    for k in range(first, last + 1):
        t *= mu - (2 * k - 1) ** 2
        t /= np.multiply(x, 8.0 * k, out=step)  # rounds as k * (8.0 * x) does: 8.0 * x is exact
        acc = q if k % 2 else p  # odd terms go to Q, even ones to P; signs + + - - by k mod 4
        if k % 4 < 2:
            acc += t
        else:
            acc -= t
    rest = np.flatnonzero(x < x_min)
    if rest.size:
        sub = x[rest], p[rest], q[rest], t[rest]
        _add_pq_terms(mu, *sub, last + 1, later)
        p[rest], q[rest] = sub[1], sub[2]


def _asym(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_n, Y_n from one P/Q evaluation and the phase c = x - (2n+1)pi/4.

    x = k pi/2 + r is reduced by Cody-Waite, so c equals r plus a multiple
    of pi/4 picked by the quadrant (k - n) mod 4, up to a multiple of 2 pi.
    The reduction and the J/Y combination run in place in preallocated
    buffers, each element rounded in the order of amp * (p cos c - q sin c)
    and amp * (p sin c + q cos c).
    """
    p, q = _asym_pq(n, x)
    k = x * (2 / np.pi)
    np.rint(k, out=k)
    r, tmp = np.empty_like(x), np.empty_like(x)
    if k.max(initial=0.0) < 2.0 ** 22:  # k * _PIO2_1 is exact: no split
        k_lo = k
        np.subtract(x, np.multiply(k, _PIO2_1, out=r), out=r)
    else:
        k_lo = np.fmod(k, 2.0 ** 22)    # k = k_hi + k_lo, each times _PIO2_1 exact
        np.subtract(x, np.multiply(k - k_lo, _PIO2_1, out=r), out=r)
        r -= np.multiply(k_lo, _PIO2_1, out=tmp)
    r -= np.multiply(k, _PIO2_2, out=tmp)
    r -= np.multiply(k, _PIO2_3, out=tmp)
    quad = k_lo.astype(np.intp)
    quad -= n
    quad &= 3                                    # (k - n) mod 4; 2**22 is a multiple of 4
    r += np.take(_QUADRANT_PHASE, quad, out=tmp, mode="clip")  # c mod 2 pi, within [-pi, pi]
    cos_c, sin_c = np.cos(r, out=tmp), np.sin(r, out=k)
    q_sin = np.multiply(q, sin_c, out=r)
    p_sin = np.multiply(p, sin_c, out=sin_c)
    p *= cos_c
    q *= cos_c
    amp = np.sqrt(np.divide(2.0, np.multiply(x, np.pi, out=cos_c), out=cos_c), out=cos_c)
    p -= q_sin
    p_sin += q
    p *= amp
    p_sin *= amp
    return p, p_sin


def _integer_in(n, lo: int, hi=np.inf) -> bool:
    """Whether n is an int or numpy integer in lo..hi: the one integer test of orders, indices and counts.
    A bool is refused, though Python counts it as an int: True is no order, index or count."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and lo <= n <= hi


def _checked(n, top: int, x, positive: bool) -> tuple[np.ndarray, bool]:
    """x as a 1-d float array and whether it was a scalar, once n is an order in 0..top."""
    if not _integer_in(n, 0, top):
        raise DomainError(f"order must be an integer in 0..{top}, got {n!r}")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.isfinite(arr)):
        raise DomainError("argument must be finite")
    if positive:
        if np.any(arr <= 0.0):
            raise DomainError("argument must be positive (logarithmic singularity at 0)")
    elif np.any(arr < 0.0):
        raise DomainError("argument must be non-negative")
    return arr, scalar


def _bessel_jy(n: int, x: np.ndarray, want_y: bool):
    """J_n(x) and, if ``want_y``, Y_n(x): the recurrence below SWITCHOVER, the expansion above.

    Up to _MILLER_SCALAR arguments below SWITCHOVER take the recurrence one
    Python float at a time (module docstring), and nothing is gathered: the
    expansion runs on the whole batch, in its own buffers, and the recurrence
    overwrites those few elements, whose expansion values (inf or NaN at
    x = 0) are discarded.  More of them take it as one gathered batch, and
    the rest the expansion."""
    if x.ndim > 1:  # the expansion's tiers index a flat batch
        j, y = _bessel_jy(n, x.ravel(), want_y)
        return j.reshape(x.shape), (y.reshape(x.shape) if want_y else None)
    lo = x < SWITCHOVER
    count = np.count_nonzero(lo)
    if count > _MILLER_SCALAR:
        j, y = np.empty_like(x), np.empty_like(x)
        j[lo], y_lo = _miller(n, x[lo], want_y)
        if want_y:
            y[lo] = y_lo
        hi = ~lo
        if hi.any():
            j[hi], y[hi] = _asym(n, x[hi])
        return j, (y if want_y else None)
    if count == x.size:
        j, y = np.empty_like(x), np.empty_like(x)
    else:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            j, y = _asym(n, x)
    for i in np.flatnonzero(lo):
        j[i], y_i = _miller(n, x[i].item(), want_y)
        if want_y:
            y[i] = y_i
    return j, (y if want_y else None)


def cylinder_bessel_j(n: int, x):
    """Bessel function J_n(x) for n in 0..3 and real x >= 0.

    Accepts a scalar or array; returns the matching shape.
    """
    arr, scalar = _checked(n, 3, x, positive=False)
    out, _ = _bessel_jy(n, arr, want_y=False)
    return float(out[0]) if scalar else out


def cylinder_bessel_y(n: int, x):
    """Neumann function Y_n(x) for n in 0..1 and real x > 0."""
    arr, scalar = _checked(n, 1, x, positive=True)
    _, out = _bessel_jy(n, arr, want_y=True)
    return float(out[0]) if scalar else out


def hankel1(n: int, x):
    """Outgoing Hankel function H_n^(1)(x) = J_n(x) + i Y_n(x), n in 0..1, x > 0."""
    arr, scalar = _checked(n, 1, x, positive=True)
    j, y = _bessel_jy(n, arr, want_y=True)
    out = j + 1j * y
    return complex(out[0]) if scalar else out


def hankel1_parts(n: int, x):
    """(J_n(x), Y_n(x)), the real and imaginary parts of hankel1(n, x) with its checks, for a
    caller that scales the two parts apart and needs no complex H."""
    arr, scalar = _checked(n, 1, x, positive=True)
    j, y = _bessel_jy(n, arr, want_y=True)
    return (float(j[0]), float(y[0])) if scalar else (j, y)
