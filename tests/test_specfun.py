"""Cylinder function accuracy against an arbitrary-precision oracle (mpmath)."""

import ast
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirescat import specfun
from wirescat.errors import DomainError
from wirescat.specfun import SWITCHOVER, cylinder_bessel_j, cylinder_bessel_y, hankel1, hankel1_parts

mp.mp.dps = 30

# frozen oracle values (mpmath, 30 digits): first J0 root, first Y0 root, J0(1), Y0(1)
J0_ROOT_1 = 2.404825557695773
Y0_ROOT_1 = 0.8935769662791675
J0_AT_1 = 0.7651976865579666
Y0_AT_1 = 0.08825696421567696


def envelope(x):
    return np.maximum(np.sqrt(2.0 / (np.pi * np.maximum(x, 1e-12))), 1e-8)


def test_j_values_at_origin():
    assert cylinder_bessel_j(0, 0.0) == 1.0
    assert cylinder_bessel_j(1, 0.0) == 0.0
    assert cylinder_bessel_j(2, 0.0) == 0.0
    assert cylinder_bessel_j(3, 0.0) == 0.0


def test_j0_first_root():
    assert abs(cylinder_bessel_j(0, J0_ROOT_1)) <= 1e-12


def test_y0_first_root_and_value():
    assert abs(cylinder_bessel_y(0, Y0_ROOT_1)) <= 1e-11
    assert cylinder_bessel_y(0, 1.0) == pytest.approx(Y0_AT_1, abs=1e-13)


@pytest.mark.parametrize("n", [0, 1])
def test_hankel_is_j_plus_iy(n):
    for x in (0.3, 1.0, 7.0, 14.9, 15.1, 200.0):
        h = hankel1(n, x)
        assert h.real == cylinder_bessel_j(n, x)
        assert h.imag == cylinder_bessel_y(n, x)
    xs = np.concatenate([np.logspace(-3, 4, 400), [14.9, 15.0, 15.1]])
    h = hankel1(n, xs)
    assert np.array_equal(h.real, cylinder_bessel_j(n, xs))
    assert np.array_equal(h.imag, cylinder_bessel_y(n, xs))
    assert hankel1(0, 1.0) == pytest.approx(J0_AT_1 + 1j * Y0_AT_1, abs=1e-13)


def test_hankel_asymptotic_amplitude():
    x = 1e3
    assert abs(abs(hankel1(0, x)) * np.sqrt(np.pi * x / 2.0) - 1.0) <= 1e-6


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_j_accuracy_vs_mpmath(n):
    rng = np.random.default_rng(3 + n)
    xs = np.concatenate([10 ** rng.uniform(-3, 6, 200), np.linspace(13.0, 17.0, 41)])
    mine = cylinder_bessel_j(n, xs)
    ref = np.array([float(mp.besselj(n, float(x))) for x in xs])
    assert np.max(np.abs(mine - ref) / envelope(xs)) <= 1e-12


@pytest.mark.parametrize("n", [0, 1])
def test_y_accuracy_vs_mpmath(n):
    rng = np.random.default_rng(13 + n)
    xs = np.concatenate([10 ** rng.uniform(-3, 6, 200), np.linspace(13.0, 17.0, 41)])
    mine = cylinder_bessel_y(n, xs)
    ref = np.array([float(mp.bessely(n, float(x))) for x in xs])
    assert np.max(np.abs(mine - ref) / envelope(xs)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_small_argument_j_is_relatively_accurate(n):
    # J_2 and J_3 ~ (x/2)^n / n! come out of the recurrence, not a leading term
    xs = 10 ** np.random.default_rng(17 + n).uniform(-100, -3, 100)
    mine = cylinder_bessel_j(n, xs)
    ref = np.array([float(mp.besselj(n, float(x))) for x in xs])
    assert np.max(np.abs(mine / ref - 1.0)) <= 1e-14


def test_phase_reduction_holds_to_1e11():
    from wirescat.specfun import _PIO2_1
    # k * P1 is exact below k = 2**22, and so is each half of a larger k split there
    for k in (2 ** 22 - 1, 2 ** 22 * (2 ** 22 - 1)):
        assert Fraction(k * _PIO2_1) == k * Fraction(_PIO2_1)
    xs = 10 ** np.random.default_rng(19).uniform(np.log10(16.0), 11, 120)
    for n in (0, 1):
        mine = hankel1(n, xs)
        ref = np.array([complex(mp.hankel1(n, float(x))) for x in xs])
        assert np.max(np.abs(mine - ref) / envelope(xs)) <= 1e-14


_BATCH_X = st.one_of(
    st.just(0.0), st.just(1e-300),
    st.floats(1e-300, 1e-3),
    st.floats(SWITCHOVER - 1e-9, SWITCHOVER + 1e-9),
    st.floats(1e-3, 1e6),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_BATCH_X, min_size=1, max_size=10))
def test_a_batch_does_not_change_a_value(xs):
    x = np.array(xs)
    pos = x[x > 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(4):
            assert np.array_equal(cylinder_bessel_j(n, x), [cylinder_bessel_j(n, v) for v in xs])
        for n in range(2):
            assert np.array_equal(cylinder_bessel_y(n, pos), [cylinder_bessel_y(n, v) for v in pos])
            assert np.array_equal(hankel1(n, pos), [hankel1(n, v) for v in pos])


_T = specfun._MILLER_SCALAR


def _bits(values, dtype):
    return np.asarray(values, dtype=dtype).tobytes()


@pytest.mark.parametrize("count", [1, _T, _T + 1, 2 * _T])
def test_few_small_arguments_take_the_recurrence_one_at_a_time(monkeypatch, count):
    # up to _T arguments below SWITCHOVER run the recurrence one np.float64 at a time, more run it
    # as one batch; either way every value is its lone call's, bit for bit
    rng = np.random.default_rng(count)
    big = rng.uniform(SWITCHOVER, 1e4, 40)
    x_y = rng.permutation(np.concatenate([rng.uniform(1e-3, SWITCHOVER, count), big]))
    small_j = np.concatenate([[0.0, 1e-300][:count], rng.uniform(1e-3, SWITCHOVER, max(count - 2, 0))])
    x_j = rng.permutation(np.concatenate([small_j, big]))
    shapes, miller = [], specfun._miller
    monkeypatch.setattr(specfun, "_miller", lambda n, x, want_y: shapes.append(np.shape(x)) or miller(n, x, want_y))
    path = [()] * count if count <= _T else [(count,)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(4):
            shapes.clear()
            batch = cylinder_bessel_j(n, x_j)
            assert shapes == path
            assert _bits(batch, float) == _bits([cylinder_bessel_j(n, v) for v in x_j], float)
            two_d = np.stack([x_j, x_j[::-1]])
            assert _bits(cylinder_bessel_j(n, two_d), float) == _bits(np.stack([batch, batch[::-1]]), float)
        for n in range(2):
            shapes.clear()
            y, h, parts = cylinder_bessel_y(n, x_y), hankel1(n, x_y), hankel1_parts(n, x_y)
            assert shapes == path * 3
            assert _bits(y, float) == _bits([cylinder_bessel_y(n, v) for v in x_y], float)
            assert _bits(h, complex) == _bits([hankel1(n, v) for v in x_y], complex)
            assert _bits(parts, float) == _bits(np.transpose([hankel1_parts(n, v) for v in x_y]), float)
    for v in (0.785, 0.0, SWITCHOVER, 40.0):  # lone calls keep their Python return types
        assert type(cylinder_bessel_j(0, v)) is float and type(cylinder_bessel_j(3, v)) is float
        if v > 0.0:
            assert type(cylinder_bessel_y(1, v)) is float and type(hankel1(1, v)) is complex
            assert [type(p) for p in hankel1_parts(0, v)] == [float, float]


def _asym_22(n, x):
    """The Hankel expansion with every element summed to 22 terms and its phase split at 2**22
    in every batch: the reference that the tiered, in-place kernel must match bit for bit."""
    from wirescat.specfun import _PIO2_1, _PIO2_2, _PIO2_3, _QUADRANT_PHASE
    mu = 4.0 * n * n
    p, q, t = np.ones_like(x), np.zeros_like(x), np.ones_like(x)
    x8 = 8.0 * x
    for k in range(1, 23):
        t *= mu - (2 * k - 1) ** 2
        t /= k * x8
        acc = q if k % 2 else p
        if k % 4 < 2:
            acc += t
        else:
            acc -= t
    k = np.rint(x * (2 / np.pi))
    k_lo = np.fmod(k, 2.0 ** 22)
    r = (((x - (k - k_lo) * _PIO2_1) - k_lo * _PIO2_1) - k * _PIO2_2) - k * _PIO2_3
    c = r + _QUADRANT_PHASE[(k_lo.astype(np.intp) - n) & 3]
    cos_c, sin_c = np.cos(c), np.sin(c)
    amp = np.sqrt(2.0 / (np.pi * x))
    return amp * (p * cos_c - q * sin_c), amp * (p * sin_c + q * cos_c)


def _term(n, k, x):
    """The k-th term of the Hankel expansion of order n at x, exactly (A&S 9.2.9-9.2.10)."""
    out = Fraction(1)
    for j in range(1, k + 1):
        out *= Fraction(4 * n * n - (2 * j - 1) ** 2, j * 8) / x
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_each_tier_drops_only_terms_below_half_an_ulp(n):
    from wirescat.specfun import _ASYM_TIERS
    # |Q| >= 0.9/(8x) for n = 0, 1 and 0.9 (4n^2 - 1)/(8x) for the J-only orders; every dropped
    # term is below 2^-55 times that, under half an ulp of Q (and far under half an ulp of P)
    scale = 1 if n < 2 else 4 * n * n - 1
    for x_min, count in _ASYM_TIERS[:-1]:
        x = Fraction(x_min)
        floor = Fraction(9, 10) * scale / (8 * x)
        terms = [_term(n, k, x) for k in range(23)]
        assert all(abs(t) < floor / 2 ** 55 for t in terms[count + 1:]), (x_min, count)
        # Q (odd terms) and P (even terms) keep that size while the dropped terms would be added
        for last in range(count, 23):
            q = sum(t * (-1) ** (k // 2) for k, t in enumerate(terms[:last + 1]) if k % 2)
            p = sum(t * (-1) ** (k // 2) for k, t in enumerate(terms[:last + 1]) if k % 2 == 0)
            assert abs(q) >= floor and abs(p - 1) < Fraction(1, 100), (x_min, last)
        # the orders of H_0 and H_1 set the table, and for them it is tight: one term fewer
        # would drop a term above the bound
        assert n > 1 or abs(terms[count]) >= floor / 2 ** 55, (x_min, count)


# both neighbours of each tier threshold, and the switchover with its upper one
_TIER_EDGES = [np.nextafter(v, side) for v in (50.0, 100.0, 1000.0) for side in (0.0, np.inf)] + [
    np.nextafter(SWITCHOVER, np.inf)]
_SPLIT = 2.0 ** 22 * np.pi / 2  # where k = rint(2x/pi) reaches 2**22 and the phase needs its split
_ASYM_X = st.one_of(
    st.floats(np.log10(SWITCHOVER), 11.0).map(lambda e: float(min(max(10.0 ** e, SWITCHOVER), 1e11))),
    st.floats(SWITCHOVER, 1e11),
    st.sampled_from(_TIER_EDGES + [50.0, 100.0, 1000.0, SWITCHOVER]),
    st.floats(_SPLIT - 4.0, _SPLIT + 4.0),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_ASYM_X, min_size=1, max_size=12))
def test_tiered_expansion_is_the_22_term_expansion_bit_for_bit(xs):
    from wirescat.specfun import _asym, _bessel_jy
    x = np.array(xs)
    for n in range(4):
        want = np.stack(_asym_22(n, x)).view(np.uint64)
        assert np.array_equal(np.stack(_asym(n, x)).view(np.uint64), want), n
        if n < 2:
            assert np.array_equal(np.stack(_bessel_jy(n, x, True)).view(np.uint64), want), n
        assert np.array_equal(_bessel_jy(n, x, False)[0].view(np.uint64), want[0]), n


def test_image_sum_arguments_hold_few_full_size_arrays(traced_peak):
    from wirescat.specfun import _bessel_jy
    # the 20,001 arguments k |r - r_n| of a greens-bench image sum at kd = 2.5 pi, the source
    # term and three near images below the switchover: the gather-free pass holds 6.1 arrays of
    # that size at its peak, bounded here at 6.5 (a 6 % margin); 9.3 while it gathered the
    # arguments above the switchover and scattered J and Y back, 17.3 before it wrote into buffers
    n = np.arange(-10000, 10001)
    y_n = 2.0 * np.ceil(n / 2) + np.where(n % 2 == 0, 1.0, -1.0) * 0.3
    x = 2.5 * np.pi * np.hypot(0.37, 0.61 - y_n)
    assert np.count_nonzero(x < SWITCHOVER) == 4
    assert traced_peak(lambda: _bessel_jy(0, x, True)) <= 6.5 * x.nbytes


def test_src_never_uses_longdouble():
    # 80-bit on x86 but plain double elsewhere: accuracy must not rest on it
    src = Path(__file__).resolve().parents[1] / "src"
    hits = [p for p in src.rglob("*")
            if p.is_file() and "__pycache__" not in p.parts and b"longdouble" in p.read_bytes()]
    assert hits == []


def test_src_imports_only_numpy_and_the_stdlib():
    # scipy and the test oracles (mpmath, hypothesis) stay out of the library
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    src = Path(__file__).resolve().parents[1] / "src" / "wirescat"
    outside = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names if name.split(".")[0] not in allowed]
    assert outside == []


def test_wronskian_property():
    rng = np.random.default_rng(7)
    xs = 10 ** rng.uniform(-2, 3, 300)
    w = cylinder_bessel_j(0, xs) * cylinder_bessel_y(1, xs) \
        - cylinder_bessel_j(1, xs) * cylinder_bessel_y(0, xs)
    target = -2.0 / (np.pi * xs)
    assert np.max(np.abs(w - target) / np.abs(target)) <= 1e-10


def test_recurrence_property():
    rng = np.random.default_rng(11)
    xs = 10 ** rng.uniform(-2, 3, 300)
    res = cylinder_bessel_j(0, xs) + cylinder_bessel_j(2, xs) - 2.0 * cylinder_bessel_j(1, xs) / xs
    scale = np.maximum(np.abs(2.0 * cylinder_bessel_j(1, xs) / xs), envelope(xs))
    assert np.max(np.abs(res) / scale) <= 1e-10


def test_branch_continuity_at_switchover():
    from wirescat.specfun import _asym, _miller
    for x in np.linspace(SWITCHOVER - 0.3, SWITCHOVER + 0.3, 13):
        arr = np.array([x])
        (j0_lo, y0_lo), (j0_hi, y0_hi) = _miller(0, arr, True), _asym(0, arr)
        y1_lo, y1_hi = _miller(1, arr, True)[1], _asym(1, arr)[1]
        assert abs(float(j0_lo[0]) - float(j0_hi[0])) <= 1e-11
        assert abs(float(y0_lo[0]) - float(y0_hi[0])) <= 1e-11
        assert abs(float(y1_lo[0]) - float(y1_hi[0])) <= 1e-11


def test_domain_errors():
    with pytest.raises(DomainError):
        cylinder_bessel_j(0, -1.0)
    with pytest.raises(DomainError):
        cylinder_bessel_j(4, 1.0)
    with pytest.raises(DomainError):
        cylinder_bessel_j(0, np.nan)
    with pytest.raises(DomainError):
        cylinder_bessel_y(0, 0.0)
    with pytest.raises(DomainError):
        cylinder_bessel_y(2, 1.0)
    with pytest.raises(DomainError):
        hankel1(0, -2.0)
    # a bool is no order, though Python counts it as an int: True once returned J_1
    for fn in (cylinder_bessel_j, cylinder_bessel_y, hankel1, hankel1_parts):
        for order in (True, False):
            with pytest.raises(DomainError, match="order must be an integer"):
                fn(order, 1.0)


@pytest.mark.parametrize("n", [0, 1])
def test_hankel1_parts_are_hankel1_bit_for_bit(n):
    x = np.array([1e-3, 0.7, 14.99, SWITCHOVER, 15.01, 63.0, 2e3, 1e9])
    j, y = hankel1_parts(n, x)
    h = hankel1(n, x)
    assert np.array_equal(j, h.real) and np.array_equal(y, h.imag)
    assert hankel1_parts(n, 2.5) == (hankel1(n, 2.5).real, hankel1(n, 2.5).imag)
    for bad_n, bad_x in ((n, 0.0), (n, -2.0), (n, np.inf), (2, 1.0)):
        with pytest.raises(DomainError):
            hankel1_parts(bad_n, bad_x)


def test_y0_log_divergence_scale():
    # near the origin Y0 is dominated by (2/pi) ln(x/2); no evaluation at 0
    x = 1e-8
    approx = (2.0 / np.pi) * (np.log(x / 2.0) + 0.5772156649015329)
    assert cylinder_bessel_y(0, x) == pytest.approx(approx, rel=1e-12)


def test_vectorized_matches_scalar():
    xs = np.array([0.5, 3.0, 14.9, 15.1, 120.0])
    vec = cylinder_bessel_j(1, xs)
    for x, v in zip(xs, vec):
        assert v == cylinder_bessel_j(1, float(x))
