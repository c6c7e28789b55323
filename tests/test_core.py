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
from advlab.core import (ParameterError, ShapeError, logsumexp_rows, make_rng,
                         matmul, rademacher_draw, relu, softmax_rows)


def matmul_oracle(a, b):
    """Scalar triple-loop reference product."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


class TestMatmul:
    def test_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(np.eye(2), m), m)

    def test_hand_example_vs_oracle(self):
        a = [[1.0, 2.0], [3.0, 4.0]]
        b = [[0.0], [1.0]]
        result = matmul(a, b)
        assert np.array_equal(result, [[2.0], [4.0]])
        assert np.array_equal(result, matmul_oracle(a, b))

    def test_random_vs_oracle(self):
        rng = make_rng(7)
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal((5, 4))
        assert np.allclose(matmul(a, b), matmul_oracle(a, b), rtol=1e-12)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_associativity(self):
        rng = make_rng(11)
        for _ in range(20):
            a, b, c = (rng.standard_normal((4, 4)) for _ in range(3))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            assert np.allclose(left, right, rtol=1e-9)


class TestRelu:
    def test_sign_cases(self):
        assert np.array_equal(relu([[-1.0, 0.0, 2.0]]), [[0.0, 0.0, 2.0]])

    def test_identity_on_nonnegative(self):
        m = np.array([[0.0, 1.5, 2.0]])
        assert np.array_equal(relu(m), m)

    def test_idempotence(self):
        m = make_rng(3).standard_normal((5, 5))
        assert np.array_equal(relu(relu(m)), relu(m))


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


def test_import_does_not_load_scipy():
    src = str(Path(advlab.__file__).resolve().parents[1])
    code = ("import sys, advlab; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


class TestRademacherDraw:
    def test_determinism(self):
        a = rademacher_draw(make_rng(42), 100)
        b = rademacher_draw(make_rng(42), 100)
        assert np.array_equal(a, b)

    def test_values_are_signs(self):
        v = rademacher_draw(make_rng(1), 1)
        assert v.shape == (1,) and v[0] in (-1.0, 1.0)

    def test_mean_near_zero(self):
        v = rademacher_draw(make_rng(123), 10**6)
        assert abs(v.mean()) < 0.01

    def test_empty_draw_error(self):
        with pytest.raises(ParameterError):
            rademacher_draw(make_rng(0), 0)

    def test_pinned_prefix(self):
        # PCG64 stream for seed 2024: pinned so cross-platform drift is caught.
        prefix = rademacher_draw(make_rng(2024), 10)
        assert prefix.tolist() == [-1, 1, -1, -1, -1, -1, 1, 1, 1, 1]
