"""Cylinder (Bessel) functions J_0..J_3, Y_0, Y_1 and the outgoing Hankel function.

Self-contained double-precision implementation; every Green's function and
t-matrix formula in this package rests on these routines, so their accuracy
budget is set one to two orders below the tightest downstream tolerance.

Evaluation strategy
-------------------
Each branch has one kernel that yields J_n and Y_n together, and one
dispatch at ``SWITCHOVER`` serves ``cylinder_bessel_j``, ``cylinder_bessel_y``
and ``hankel1`` (= J + iY of the same values).

* ``x < 15``: one loop over the ascending-series terms
  t_m = (-1)^m (x/2)^(2m+n) / (m!(m+n)!) accumulates J_n = sum t_m and
  S_n = sum (H_m + H_{m+n}) t_m (H_m the harmonic numbers), from which
  A&S 9.1.11 gives Y_n = (2/pi)[(ln(x/2) + gamma) J_n - S_n/2], less
  2/(pi x) for n = 1.  The sums are accumulated in ``numpy.longdouble``
  (80-bit on x86) because the alternating series loses ~6 decimal digits to
  cancellation near the switchover; the extended accumulator keeps the final
  double result at full precision.  A call for J alone skips S_n.
* ``x >= 15``: Hankel asymptotic expansion, one P/Q evaluation and one phase
  for both functions,

      J_n(x) = sqrt(2/(pi x)) [P_n(x) cos(c) - Q_n(x) sin(c)],
      Y_n(x) = sqrt(2/(pi x)) [P_n(x) sin(c) + Q_n(x) cos(c)],
      c = x - (2n+1) pi/4,

  truncated at 22 terms.  The optimally-truncated remainder of this
  expansion scales as exp(-2x), which is why the switchover sits at 15
  (exp(-30) ~ 1e-13) rather than the textbook 8 (exp(-16) ~ 1e-7 would
  wreck the 1e-12 budget).  The phase ``c`` is reduced in longdouble; in
  plain double the ulp of x ~ 1e4 alone costs 2e-12.

Accuracy (validated against arbitrary-precision mpmath in the test suite)
--------------------------------------------------------------------------
Absolute error <= 3e-13 * envelope for x <= 1e4, where the envelope is
max(|f(x)|, sqrt(2/(pi x))).  Away from the zeros of f this is a relative
error <= 1e-12.  Both branches agree within 1e-11 around x = 15.

Orders are capped at J_3 / Y_1: the mirror partial waves stop at the f wave
and the Hankel function is only needed at orders 0 and 1.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["cylinder_bessel_j", "cylinder_bessel_y", "hankel1", "SWITCHOVER"]

SWITCHOVER = 15.0

_LD = np.longdouble
_EULER_LD = _LD("0.577215664901532860606512090082402431")
_PI_LD = _LD("3.14159265358979323846264338327950288")
_SERIES_EPS = float(np.finfo(_LD).eps)
_MAX_SERIES_TERMS = 120
_ASYM_TERMS = 22


def _series(n: int, x: np.ndarray, want_y: bool):
    """J_n and, if ``want_y``, Y_n (n <= 1) from one loop over the series terms t_m.

    J_n and S_n (see the module docstring) each stop at their own convergence;
    Y_n takes J_n rounded to double.
    """
    x = x.astype(_LD)
    q = x * x / 4
    t = (x / 2) ** n
    for j in range(1, n + 1):
        t = t / j
    jn = t.copy()
    h_m, h_mn = _LD(0), _LD(n)   # H_0 and H_n, n <= 1 when Y is wanted
    s = (h_m + h_mn) * t
    j_done, y_done = False, not want_y
    for m in range(1, _MAX_SERIES_TERMS):
        t = -t * q / (m * (m + n))
        if not j_done:
            jn += t
            j_done = np.all(np.abs(t) <= _SERIES_EPS * np.abs(jn))
        if not y_done:
            h_m = h_m + _LD(1) / m
            h_mn = h_mn + _LD(1) / (m + n)
            term = (h_m + h_mn) * t
            s += term
            y_done = np.all(np.abs(term) <= _SERIES_EPS * np.abs(s))
        if j_done and y_done:
            break
    j_out = jn.astype(float)
    if not want_y:
        return j_out, None
    y = (2 / _PI_LD) * ((np.log(x / 2) + _EULER_LD) * j_out.astype(_LD) - s / 2)
    if n == 1:
        y = y - 2 / (_PI_LD * x)
    return j_out, y.astype(float)


def _asym_pq(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n, Q_n of the Hankel expansion; term recursion avoids huge coefficients."""
    mu = 4.0 * n * n
    p = np.ones_like(x)
    q = np.zeros_like(x)
    t = np.ones_like(x)
    for k in range(1, _ASYM_TERMS + 1):
        t = t * (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        if k % 2 == 1:
            q += t if k % 4 == 1 else -t
        else:
            p += -t if k % 4 == 2 else t
    return p, q


def _asym(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_n, Y_n from one P/Q evaluation and the phase c = x - (2n+1)pi/4 reduced in longdouble."""
    p, q = _asym_pq(n, x)
    c = x.astype(_LD) - (2 * n + 1) * _PI_LD / 4
    cc, ss = np.cos(c).astype(float), np.sin(c).astype(float)
    amp = np.sqrt(2.0 / (np.pi * x))
    return amp * (p * cc - q * ss), amp * (p * ss + q * cc)


def _checked(n, top: int, x, positive: bool) -> tuple[np.ndarray, bool]:
    """x as a 1-d float array and whether it was a scalar, once n is an order in 0..top."""
    if not isinstance(n, (int, np.integer)) or not 0 <= n <= top:
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
    """J_n(x) and, if ``want_y``, Y_n(x): the series below SWITCHOVER, the expansion above."""
    j, y = np.empty_like(x), np.empty_like(x)
    lo = x < SWITCHOVER
    if lo.any():
        j[lo], y_lo = _series(n, x[lo], want_y)
        if want_y:
            y[lo] = y_lo
    hi = ~lo
    if hi.any():
        j[hi], y[hi] = _asym(n, x[hi])
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
