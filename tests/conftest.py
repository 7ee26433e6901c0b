"""Fixtures shared across test modules."""

import tracemalloc

import numpy as np
import pytest

from wirescat import renorm
from wirescat.waveguide import WireConfig, image_positions


@pytest.fixture(scope="session")
def foldy_image_array():
    """(s, psi): the Foldy solution on 2001 image points at kd = 2.5 pi, y0 = 0.3, a = 0.1.

    psi[1000] belongs to the impurity itself.  Criterion 11 and the renorm Foldy
    test both read this one solve.
    """
    kd, y0, a = 2.5 * np.pi, 0.3, 0.1
    imgs = image_positions(WireConfig(y0=y0, a=a), -1000, 1000)
    s = renorm.t_matrix(kd, a).s
    psi = renorm.foldy_solve(renorm.FoldyProblem(imgs.positions, s, imgs.signs.astype(complex)), kd)
    return s, psi


@pytest.fixture
def traced_peak():
    """peak(fn): bytes that one call of fn holds at most beyond what was held before it.

    fn runs once untraced first, so lazy imports and caches are not counted.
    """
    def peak(fn):
        fn()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
    return peak
