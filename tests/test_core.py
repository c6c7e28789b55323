import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp

import advlab
from advlab.core import (ShapeError, exp_logsumexp_rows, logsumexp_rows, make_rng,
                         softmax_rows)

from oracles import logsumexp_split_max


class TestSoftmax:
    def test_uniform_logits(self):
        assert np.allclose(softmax_rows([[0.0, 0.0, 0.0]]), [[1 / 3] * 3])

    def test_no_overflow(self):
        out = softmax_rows([[1000.0, 0.0]])
        assert np.all(np.isfinite(out))
        assert out[0, 0] > 1.0 - 1e-12 and out[0, 1] < 1e-12

    def test_shift_invariance(self):
        rng = make_rng(5)
        m = rng.standard_normal((4, 6))
        shifted = m + rng.standard_normal((4, 1))
        assert np.allclose(softmax_rows(m), softmax_rows(shifted), atol=1e-14)

    def test_rows_sum_to_one_extreme_range(self):
        rng = make_rng(9)
        m = rng.uniform(-1e4, 1e4, size=(50, 8))
        assert np.allclose(softmax_rows(m).sum(axis=1), 1.0, atol=1e-12)


# Entries of either sign with magnitude in [1e-3, 1e3].
ENTRIES = st.tuples(st.floats(1e-3, 1e3), st.booleans()).map(
    lambda t: t[0] if t[1] else -t[0])


@st.composite
def logit_rows(draw, with_inf=False):
    """Matrices whose rows may repeat their maximum and, optionally, hold +-inf."""
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 12)))
    m = draw(hnp.arrays(np.float64, shape, elements=ENTRIES))
    tied = draw(hnp.arrays(np.bool_, shape))
    m = np.where(tied, m.max(axis=1, keepdims=True), m)
    if with_inf:
        infs = draw(hnp.arrays(np.float64, shape,
                               elements=st.sampled_from([0.0, 0.0, np.inf, -np.inf])))
        m = np.where(infs != 0.0, infs, m)
    return m


class TestLogsumexpRows:
    @settings(deadline=None, database=None, max_examples=300)
    @given(logit_rows(), st.booleans())
    def test_bit_identical_to_scipy_finite(self, m, keepdims):
        assert np.array_equal(logsumexp_rows(m, keepdims=keepdims),
                              logsumexp(m, axis=1, keepdims=keepdims))

    @settings(deadline=None, database=None, max_examples=300)
    @given(logit_rows(with_inf=True), st.booleans())
    def test_bit_identical_to_scipy_with_inf(self, m, keepdims):
        assert np.array_equal(logsumexp_rows(m, keepdims=keepdims),
                              logsumexp(m, axis=1, keepdims=keepdims), equal_nan=True)

    def test_infinite_rows(self):
        m = np.array([[-np.inf, -np.inf], [np.inf, 0.0], [np.inf, -np.inf], [-np.inf, 1.0]])
        with np.errstate(all="raise"):  # the one errstate block covers every pass
            out = logsumexp_rows(m)
        assert out.tolist() == [-np.inf, np.inf, np.inf, 1.0]
        assert np.array_equal(out, logsumexp(m, axis=1))

    def test_ties_and_shapes(self):
        m = np.array([[2.0, 2.0, 0.5], [1.0, 1.0, 1.0]])
        assert logsumexp_rows(m, keepdims=True).shape == (2, 1)
        assert np.allclose(logsumexp_rows(m), np.log(np.exp(m).sum(axis=1)), rtol=1e-14)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            logsumexp_rows(np.zeros(3))


class TestExpLogsumexpRows:
    """One exp pass gives softmax_rows' numerator and the split-max logsumexp."""

    @settings(deadline=None, database=None, max_examples=300)
    @given(st.one_of(logit_rows(), logit_rows(with_inf=True)))
    def test_bit_identical_to_separate_passes(self, m):
        e, lse = exp_logsumexp_rows(m)
        with np.errstate(invalid="ignore"):
            want_softmax = softmax_rows(m)
        assert np.array_equal(e / e.sum(axis=1, keepdims=True), want_softmax, equal_nan=True)
        assert lse.shape == (m.shape[0], 1)
        assert np.array_equal(lse, logsumexp_split_max(m, keepdims=True), equal_nan=True)


def test_import_does_not_load_scipy():
    src = str(Path(advlab.__file__).resolve().parents[1])
    code = ("import sys, advlab; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"

