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

from wirescat.errors import DomainError
from wirescat.specfun import SWITCHOVER, cylinder_bessel_j, cylinder_bessel_y, hankel1

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
