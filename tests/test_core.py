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
from advlab.attacks import AttackSpec, project
from advlab.core import (ParameterError, ShapeError, check_labels, check_real, check_shape,
                         exp_logsumexp_rows, make_rng, softmax_rows)
from advlab.data import blob_dataset
from advlab.loat import LoatSchedule, loat
from advlab.mlp import MlpConfig, backward, forward, forward_stack, init_weights, input_grad
from advlab.objectives import ObjectiveSpec, mixture_from_logits, trades_from_logits
from advlab.sweep import SweepSpec
from advlab.trainer import TrainConfig, sgd_step

from oracles import logsumexp_split_max


class TestCheckLabels:
    def test_valid_labels_become_int64(self):
        out = check_labels([0, 2, 1], 3, 3)
        assert out.dtype == np.int64 and out.tolist() == [0, 2, 1]

    @pytest.mark.parametrize("labels, n", [([0, -1], 2), ([0, 3], 2), ([], 0)],
                             ids=["minus-one", "k", "empty"])
    def test_out_of_range_or_empty(self, labels, n):
        with pytest.raises(ParameterError):
            check_labels(labels, n, 3)

    @pytest.mark.parametrize("labels", [[0, 1, 2], [[0], [1]], 0], ids=["long", "column", "scalar"])
    def test_not_a_vector_of_n(self, labels):
        with pytest.raises(ShapeError):
            check_labels(labels, 2, 3)

    @pytest.mark.parametrize("labels, first_bad", [
        ([0.5, 1.9], "0.5"), (np.array([1.0, np.nan]), "nan"), (np.array([-np.inf, 1.0]), "-inf"),
        (np.array([True, False]), "True"), (["1", "0"], "'1'")],
        ids=["fraction", "nan", "inf", "bool", "str"])
    def test_non_integral_or_boolean_rejected(self, labels, first_bad):
        # the int64 cast truncated [0.5, 1.9] to [0, 1] and passed booleans as 1 and 0
        with pytest.raises(ParameterError) as err:
            check_labels(labels, 2, 3)
        assert str(err.value) == f"labels must be integer class ids, got {first_bad}"

    def test_whole_floats_cast_and_int64_passes_as_is(self):
        assert check_labels(np.array([2.0, -0.0]), 2, 3).tolist() == [2, 0]
        labels = np.array([[0, 2], [1, 1]])
        assert check_labels(labels, 2, 2, 3) is labels
        assert check_labels(labels.astype(np.uint8), 2, 2, 3).dtype == np.int64


_NET = init_weights(MlpConfig([3, 4, 2], seed=1))
_STACK = [np.stack([w, w]) for w in _NET]
_X = make_rng(2).uniform(size=(5, 3))
_P = softmax_rows(make_rng(3).standard_normal((4, 3)))
_LORE = LoatSchedule(e1=1, e2=9, variant="LORE")

# Each site of the shape rule: a call whose operands disagree, and the error it must give.
SHAPE_SITES = {
    "check_labels": (lambda: check_labels([0, 1], 3, 2), "labels", (3,), (2,)),
    "loat-mask": (lambda: loat(_P, [0, 1, 2, 0], [True, False], 1, _LORE), "mask", (4,), (2,)),
    "loat-adv_logits": (lambda: loat(_P, [0, 1, 2, 0], [True] * 4, 1, _LORE, _P[:1]),
                        "adv_logits", (4, 3), (1, 3)),
    "loat-stacked-adv_logits": (lambda: loat(np.stack([_P, _P]), [[0, 1, 2, 0]] * 2,
                                             [[True] * 4] * 2, 1, _LORE, _P),
                                "adv_logits", (2, 4, 3), (4, 3)),
    "mixture_from_logits": (lambda: mixture_from_logits(_P, _P[:, :2], [0, 1, 1, 0], 0.5),
                            "adv_logits", (4, 3), (4, 2)),
    "trades_from_logits": (lambda: trades_from_logits(_P, _P.T, [0, 1, 2, 0], 1.0),
                           "adv_logits", (4, 3), (3, 4)),
    "project": (lambda: project(_X, _X[None], "inf", 0.1), "x", (5, 3), (1, 5, 3)),
    "backward": (lambda: backward(_NET, forward(_NET, _X), np.zeros((5, 3))),
                 "logit_grad", (5, 2), (5, 3)),
    "input_grad-stack": (lambda: input_grad(_STACK, forward_stack(_STACK, _X), np.zeros((5, 2))),
                         "logit_grad", (2, 5, 2), (5, 2)),
    "sgd_step-grad": (lambda: sgd_step([np.zeros((2, 2))], [np.zeros((2,))],
                                       [np.zeros((2, 2))], 0.1, 0.9), "grads[0]", (2, 2), (2,)),
    "sgd_step-velocity": (lambda: sgd_step([np.zeros((2, 2))], [np.zeros((2, 2))],
                                           [np.zeros((2, 1))], 0.1, 0.9),
                          "velocity[0]", (2, 2), (2, 1)),
}


class TestCheckShape:
    def test_returns_its_argument(self):
        a = [[1.0, 2.0]]
        assert check_shape(a, (1, 2), "a") is a
        with pytest.raises(ShapeError, match=r"^a must have shape \(2,\), got \(1, 2\)$"):
            check_shape(a, (2,), "a")

    @pytest.mark.parametrize("site", sorted(SHAPE_SITES))
    def test_every_site_gives_one_message(self, site):
        call, what, want, got = SHAPE_SITES[site]
        with pytest.raises(ShapeError) as info:
            call()
        assert str(info.value) == f"{what} must have shape {want}, got {got}"


_LOGITS = np.array([[1.0, -0.5], [0.25, 2.0]])

# (field, interval, build): build(value) sets the field, or passes the argument, to value
REAL_FIELDS = [
    ("eps", "[0, inf)", lambda v: AttackSpec(eps=v)),
    ("alpha", "(0, inf)", lambda v: AttackSpec(alpha=v)),
    ("tau", "[0, inf)", lambda v: LoatSchedule(tau=v)),
    ("gamma", "[0, inf)", lambda v: LoatSchedule(gamma=v)),
    ("lam", "[0, 1]", lambda v: ObjectiveSpec(lam=v)),
    ("beta", "(0, inf)", lambda v: ObjectiveSpec(kind="trades", beta=v)),
    ("lam", "[0, 1]", lambda v: mixture_from_logits(_LOGITS, None, [0, 1], v)),
    ("beta", "(0, inf)", lambda v: trades_from_logits(_LOGITS, _LOGITS[::-1], [0, 1], v)),
    ("init_scale", "[0, inf)", lambda v: MlpConfig([2, 3, 2], init_scale=v)),
    ("lr", "[0, inf)", lambda v: TrainConfig(MlpConfig([2, 2]), lr=v)),
    ("momentum", "[0, 1)", lambda v: TrainConfig(MlpConfig([2, 2]), momentum=v)),
    ("lr", "[0, inf)", lambda v: SweepSpec((2,), (0.5,), (0,), (1,), lr=v)),
    ("momentum", "[0, 1)", lambda v: SweepSpec((2,), (0.5,), (0,), (1,), momentum=v)),
    ("lambdas", "[0, 1]", lambda v: SweepSpec((2,), (0.5, v), (0,), (1,))),
    ("spread", "(0, inf)", lambda v: blob_dataset(n_train=4, n_test=4, d=2, K=2, spread=v)),
]
REAL_IDS = ["attack-eps", "attack-alpha", "schedule-tau", "schedule-gamma", "objective-lam",
            "objective-beta", "mixture-lam", "trades-beta", "model-init_scale", "train-lr",
            "train-momentum", "sweep-lr", "sweep-momentum", "sweep-lambdas", "blobs-spread"]


def _ends(interval):
    """(closed ends, the first values outside each finite end) of an interval."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    closed = [e for e, bracket in ((lo, interval[0] == "["), (hi, interval[-1] == "]")) if bracket]
    outside = [] if np.isinf(lo) else [lo if interval[0] == "(" else np.nextafter(lo, -np.inf)]
    outside += [] if np.isinf(hi) else [hi if interval[-1] == ")" else np.nextafter(hi, np.inf)]
    return closed, outside


class TestCheckReal:
    @pytest.mark.parametrize("field, interval, build", REAL_FIELDS, ids=REAL_IDS)
    def test_every_real_field_through_the_api(self, field, interval, build):
        # NaN, both infinities, a bool and the first value outside each finite end are
        # rejected naming the field; each closed finite end is accepted
        closed, outside = _ends(interval)
        for value in [np.nan, np.inf, -np.inf, True, *outside]:
            with pytest.raises(ParameterError, match=field):
                build(value)
        for value in closed:
            build(value)

    @pytest.mark.parametrize("value", [0.5, 1, np.float64(0.5), np.float32(1.0), np.int64(0)])
    def test_accepts_numpy_and_python_reals(self, value):
        check_real(value, "x", "[0, 1]")

    def test_an_int_too_large_for_a_float_is_finite(self):
        check_real(10**400, "x", "(-inf, inf)")
        with pytest.raises(ParameterError):
            check_real(10**400, "x", "[0, 1]")

    @pytest.mark.parametrize("value", [np.bool_(True), False, "0.5", None, 0.5 + 0j,
                                       np.array(0.5)])
    def test_rejects_what_is_not_a_real_number(self, value):
        with pytest.raises(ParameterError, match="x must be a finite real number in"):
            check_real(value, "x", "[0, 1]")

    def test_message_names_field_interval_and_value(self):
        with pytest.raises(ParameterError) as info:
            check_real(1.0, "momentum", "[0, 1)")
        assert str(info.value) == "momentum must be a finite real number in [0, 1), got 1.0"


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


def lse_rows(m):
    """The (n, 1) row logsumexp of exp_logsumexp_rows."""
    return exp_logsumexp_rows(m)[1]


class TestLogsumexpRows:
    @settings(deadline=None, database=None, max_examples=300)
    @given(logit_rows())
    def test_bit_identical_to_scipy_finite(self, m):
        assert np.array_equal(lse_rows(m), logsumexp(m, axis=1, keepdims=True))

    @settings(deadline=None, database=None, max_examples=300)
    @given(logit_rows(with_inf=True))
    def test_bit_identical_to_scipy_with_inf(self, m):
        assert np.array_equal(lse_rows(m), logsumexp(m, axis=1, keepdims=True), equal_nan=True)

    def test_infinite_rows(self):
        m = np.array([[-np.inf, -np.inf], [np.inf, 0.0], [np.inf, -np.inf], [-np.inf, 1.0]])
        with np.errstate(all="raise"):  # the one errstate block covers every pass
            out = lse_rows(m)[:, 0]
        assert out.tolist() == [-np.inf, np.inf, np.inf, 1.0]
        assert np.array_equal(out, logsumexp(m, axis=1))

    def test_ties_and_shapes(self):
        m = np.array([[2.0, 2.0, 0.5], [1.0, 1.0, 1.0]])
        assert lse_rows(m).shape == (2, 1)
        assert np.allclose(lse_rows(m)[:, 0], np.log(np.exp(m).sum(axis=1)), rtol=1e-14)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            exp_logsumexp_rows(np.zeros(3))


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

