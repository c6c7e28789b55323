import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from advlab.core import ParameterError, ShapeError, make_rng, softmax_rows
from advlab.mlp import MlpConfig, backward, forward, init_weights
from advlab.objectives import (ObjectiveSpec, ce_loss, ce_loss_and_grad, correct_mask,
                               generalization_gap, mixture_from_logits, risk,
                               trades_from_logits)

from fd_utils import fd_matrix_grad, max_rel_err
from oracles import ce_logit_grad, synth_blobs, trades_four_lse


def mixture_through_model(weights, batch, lam, adv_inputs):
    return mixture_from_logits(forward(weights, batch.inputs).logits,
                               forward(weights, adv_inputs).logits, batch.labels, lam)


def trades_through_model(weights, batch, beta, adv_inputs):
    return trades_from_logits(forward(weights, batch.inputs).logits,
                              forward(weights, adv_inputs).logits, batch.labels, beta)


class TestObjectiveSpec:
    def test_needs_attack(self):
        assert not ObjectiveSpec(kind="standard").needs_attack
        assert not ObjectiveSpec(kind="mixture", lam=0.0).needs_attack
        assert ObjectiveSpec(kind="mixture", lam=0.5).needs_attack
        assert ObjectiveSpec(kind="trades").needs_attack

    def test_standard_is_the_mixture_at_lambda_zero(self):
        assert ObjectiveSpec(kind="standard").lam == 0.0
        assert ObjectiveSpec(kind="standard", lam=0.7).lam == 0.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            ObjectiveSpec(kind="other")
        with pytest.raises(ParameterError):
            ObjectiveSpec(lam=1.5)
        with pytest.raises(ParameterError):
            ObjectiveSpec(beta=0.0)


class TestCeLoss:
    def test_two_class_closed_form(self):
        # logits (ln 3, 0) with label 0: loss = ln(1 + e^{-ln 3}) = ln(4/3)
        per, mean = ce_loss([[np.log(3.0), 0.0]], [0])
        assert per.shape == (1,)
        assert mean == pytest.approx(0.28768207245178085, abs=1e-14)

    def test_uniform_logits_give_log_k(self):
        per, mean = ce_loss(np.zeros((4, 7)), [0, 2, 4, 6])
        assert np.allclose(per, np.log(7.0), atol=1e-14)
        assert mean == pytest.approx(np.log(7.0), abs=1e-14)

    def test_shift_invariance(self):
        rng = make_rng(0)
        logits = rng.standard_normal((6, 5))
        labels = rng.integers(0, 5, size=6)
        _, a = ce_loss(logits, labels)
        _, b = ce_loss(logits + 123.0, labels)
        assert a == pytest.approx(b, abs=1e-12)

    def test_extreme_logits_stay_finite(self):
        per, _ = ce_loss([[1e4, 0.0], [-1e4, 0.0]], [0, 0])
        assert np.all(np.isfinite(per))
        assert per[0] == pytest.approx(0.0, abs=1e-12)
        assert per[1] == pytest.approx(1e4, rel=1e-10)

    def test_label_out_of_range(self):
        with pytest.raises(ParameterError):
            ce_loss(np.zeros((2, 3)), [0, 3])

    def test_fractional_label_rejected(self):
        # it was truncated to [0, 2] and gave ln 3
        with pytest.raises(ParameterError, match="^labels must be integer class ids, got 0.5$"):
            ce_loss(np.zeros((2, 3)), [0.5, 2.7])


class TestCeLogitGrad:
    """The gradient half of ce_loss_and_grad."""

    def test_rows_sum_to_zero(self):
        rng = make_rng(1)
        g = ce_loss_and_grad(rng.standard_normal((8, 4)), rng.integers(0, 4, size=8))[1]
        assert np.allclose(g.sum(axis=1), 0.0, atol=1e-14)

    def test_matches_finite_differences(self):
        rng = make_rng(2)
        logits = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, size=5)
        analytic = ce_loss_and_grad(logits, labels)[1]

        def total(m):
            per, _ = ce_loss(m, labels)
            return per.sum()

        numeric = fd_matrix_grad(total, logits)
        assert max_rel_err(analytic, numeric) < 1e-7

    def test_softmax_minus_onehot(self):
        logits = np.array([[1.0, -1.0, 0.5]])
        g = ce_loss_and_grad(logits, [2])[1]
        expected = softmax_rows(logits)
        expected[0, 2] -= 1.0
        assert np.allclose(g, expected, atol=1e-15)


# Entries of either sign with magnitude in [1e-3, 1e3].
ENTRIES = st.tuples(st.floats(1e-3, 1e3), st.booleans()).map(
    lambda t: t[0] if t[1] else -t[0])


@st.composite
def logits_and_labels(draw, with_inf=False):
    """Logit rows that may repeat their maximum (and hold +-inf), plus labels."""
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 12)))
    m = draw(hnp.arrays(np.float64, shape, elements=ENTRIES))
    tied = draw(hnp.arrays(np.bool_, shape))
    m = np.where(tied, m.max(axis=1, keepdims=True), m)
    if with_inf:
        infs = draw(hnp.arrays(np.float64, shape,
                               elements=st.sampled_from([0.0, 0.0, np.inf, -np.inf])))
        m = np.where(infs != 0.0, infs, m)
    labels = draw(hnp.arrays(np.int64, shape[0], elements=st.integers(0, shape[1] - 1)))
    return m, labels


class TestCeLossAndGrad:
    """The fused pass equals the two separate passes bit for bit."""

    @settings(deadline=None, database=None, max_examples=300)
    @given(logits_and_labels())
    def test_bit_identical_finite(self, case):
        logits, labels = case
        per, grad = ce_loss_and_grad(logits, labels)
        assert np.array_equal(per, ce_loss(logits, labels)[0])
        assert np.array_equal(grad, ce_logit_grad(logits, labels))

    @settings(deadline=None, database=None, max_examples=300)
    @given(logits_and_labels(with_inf=True))
    def test_bit_identical_with_inf(self, case):
        logits, labels = case
        with np.errstate(invalid="ignore"):
            per, grad = ce_loss_and_grad(logits, labels)
            want_per = ce_loss(logits, labels)[0]
            want_grad = ce_logit_grad(logits, labels)
        assert np.array_equal(per, want_per, equal_nan=True)
        assert np.array_equal(grad, want_grad, equal_nan=True)

    def test_label_checks(self):
        with pytest.raises(ParameterError):
            ce_loss_and_grad(np.zeros((2, 3)), [0, 3])
        with pytest.raises(ShapeError):
            ce_loss_and_grad(np.zeros((2, 3)), [0])


class TestCorrectMask:
    def test_argmax_rule(self):
        logits = [[2.0, 1.0], [0.0, 3.0], [5.0, 0.0]]
        assert correct_mask(logits, [0, 1, 1]).tolist() == [True, True, False]

    def test_tie_goes_to_lowest_index(self):
        assert correct_mask([[1.0, 1.0]], [0]).tolist() == [True]
        assert correct_mask([[1.0, 1.0]], [1]).tolist() == [False]


class TestRisk:
    def test_zero_weights_give_log_k(self):
        batch = synth_blobs(make_rng(3), 30, 4, 3, 0.1)
        weights = init_weights(MlpConfig([4, 3], seed=0, init_scale=0.0))
        report = risk(weights, batch)
        assert report.mean_loss == pytest.approx(np.log(3.0), abs=1e-12)
        assert report.n == 30
        # argmax of all-zero logits is class 0 for every sample
        assert report.accuracy == pytest.approx(np.mean(batch.labels == 0))


class TestMixture:
    def test_lam_interpolates_endpoint_losses(self):
        rng = make_rng(4)
        clean = rng.standard_normal((6, 3))
        adv = rng.standard_normal((6, 3))
        labels = rng.integers(0, 3, size=6)
        l0, *_ = mixture_from_logits(clean, adv, labels, 0.0)
        l1, *_ = mixture_from_logits(clean, adv, labels, 1.0)
        lmid, *_ = mixture_from_logits(clean, adv, labels, 0.3)
        assert lmid == pytest.approx(0.7 * l0 + 0.3 * l1, abs=1e-12)
        assert l0 == pytest.approx(ce_loss(clean, labels)[1], abs=1e-14)
        assert l1 == pytest.approx(ce_loss(adv, labels)[1], abs=1e-14)

    def test_grads_match_finite_differences(self):
        rng = make_rng(5)
        clean = rng.standard_normal((4, 3))
        adv = rng.standard_normal((4, 3))
        labels = rng.integers(0, 3, size=4)
        _, g_clean, g_adv = mixture_from_logits(clean, adv, labels, 0.4)
        num_clean = fd_matrix_grad(
            lambda m: mixture_from_logits(m, adv, labels, 0.4)[0], clean)
        num_adv = fd_matrix_grad(
            lambda m: mixture_from_logits(clean, m, labels, 0.4)[0], adv)
        assert max_rel_err(g_clean, num_clean) < 1e-7
        assert max_rel_err(g_adv, num_adv) < 1e-7

    def test_objective_through_model(self):
        batch = synth_blobs(make_rng(6), 10, 5, 3, 0.2)
        weights = init_weights(MlpConfig([5, 6, 3], seed=7))
        adv = np.clip(batch.inputs + 0.01, 0.0, 1.0)
        loss, g_clean, g_adv = mixture_through_model(weights, batch, 0.5, adv)
        wg_clean = backward(weights, forward(weights, batch.inputs), g_clean)
        wg_adv = backward(weights, forward(weights, adv), g_adv)
        analytic = [a + b for a, b in zip(wg_clean, wg_adv)]

        from fd_utils import fd_weight_grads
        numeric = fd_weight_grads(
            lambda ws: mixture_through_model(ws, batch, 0.5, adv)[0], weights)
        assert max_rel_err(analytic, numeric) < 1e-5

    def test_shared_clean_pass_when_no_attack_ran(self):
        # adv_logits None (no attack ran) reuses the clean CE pass; the
        # result equals passing a copy of the clean logits
        rng = make_rng(8)
        clean = rng.standard_normal((7, 4))
        labels = rng.integers(0, 4, size=7)
        for lam in (0.0, 0.6):
            shared = mixture_from_logits(clean, None, labels, lam)
            copied = mixture_from_logits(clean, clean.copy(), labels, lam)
            assert shared[0] == copied[0]
            assert np.array_equal(shared[1], copied[1])
            assert np.array_equal(shared[2], copied[2])

    def test_lam_out_of_range(self):
        with pytest.raises(ParameterError):
            mixture_from_logits(np.zeros((1, 2)), np.zeros((1, 2)), [0], -0.1)


def kl_via_trades(p_logits, q_logits):
    """Row-wise KL(softmax(p) || softmax(q)) read off trades_from_logits:
    with beta = 1 a one-row TRADES loss minus that row's CE is its KL."""
    p_logits, q_logits = np.atleast_2d(p_logits), np.atleast_2d(q_logits)
    return np.array([trades_from_logits(q_logits[i:i + 1], p_logits[i:i + 1], [0], 1.0)[0]
                     - ce_loss(q_logits[i:i + 1], [0])[1] for i in range(len(p_logits))])


class TestKl:
    def test_self_divergence_is_zero(self):
        m = make_rng(7).standard_normal((5, 4))
        assert np.allclose(kl_via_trades(m, m), 0.0, atol=1e-14)

    def test_nonnegative(self):
        rng = make_rng(8)
        p = rng.standard_normal((50, 6))
        q = rng.standard_normal((50, 6))
        assert np.all(kl_via_trades(p, q) >= -1e-12)

    def test_hand_example(self):
        # p = (3/4, 1/4), q = (1/2, 1/2)
        p_logits = [[np.log(3.0), 0.0]]
        q_logits = [[0.0, 0.0]]
        expected = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
        assert kl_via_trades(p_logits, q_logits)[0] == pytest.approx(expected, abs=1e-14)


class TestTrades:
    def test_identical_logits_reduce_to_ce(self):
        rng = make_rng(9)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        loss, _, _ = trades_from_logits(logits, logits, labels, 6.0)
        assert loss == pytest.approx(ce_loss(logits, labels)[1], abs=1e-12)

    def test_beta_scaling(self):
        rng = make_rng(10)
        clean = rng.standard_normal((5, 3))
        adv = rng.standard_normal((5, 3))
        labels = rng.integers(0, 3, size=5)
        ce = ce_loss(clean, labels)[1]
        l1, *_ = trades_from_logits(clean, adv, labels, 1.0)
        l2, *_ = trades_from_logits(clean, adv, labels, 2.0)
        assert l2 - ce == pytest.approx(2.0 * (l1 - ce), abs=1e-12)

    def test_grads_match_finite_differences(self):
        rng = make_rng(11)
        clean = rng.standard_normal((4, 3))
        adv = rng.standard_normal((4, 3))
        labels = rng.integers(0, 3, size=4)
        _, g_clean, g_adv = trades_from_logits(clean, adv, labels, 6.0)
        num_clean = fd_matrix_grad(
            lambda m: trades_from_logits(m, adv, labels, 6.0)[0], clean)
        num_adv = fd_matrix_grad(
            lambda m: trades_from_logits(clean, m, labels, 6.0)[0], adv)
        assert max_rel_err(g_clean, num_clean) < 1e-7
        assert max_rel_err(g_adv, num_adv) < 1e-7

    def test_adv_rows_must_match_clean_rows(self):
        # a 1-row adversarial matrix used to broadcast against 4 clean rows
        clean = make_rng(14).standard_normal((4, 3))
        with pytest.raises(ShapeError):
            trades_from_logits(clean, clean[:1], [0, 1, 2, 0], 6.0)

    @settings(deadline=None, database=None, max_examples=300)
    @given(logits_and_labels(with_inf=True), st.integers(0, 2**32 - 1),
           st.sampled_from([0.5, 1.0, 6.0]))
    def test_bit_identical_to_four_logsumexp_oracle(self, case, seed, beta):
        clean, labels = case
        adv = clean + make_rng(seed).standard_normal(clean.shape)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            got = trades_from_logits(clean, adv, labels, beta)
            want = trades_four_lse(clean, adv, labels, beta)
        assert np.array_equal(got[0], want[0], equal_nan=True)
        assert np.array_equal(got[1], want[1], equal_nan=True)
        assert np.array_equal(got[2], want[2], equal_nan=True)

    def test_objective_weight_grads(self):
        batch = synth_blobs(make_rng(12), 8, 4, 3, 0.2)
        weights = init_weights(MlpConfig([4, 5, 3], seed=13))
        adv = np.clip(batch.inputs + 0.02, 0.0, 1.0)
        _, g_clean, g_adv = trades_through_model(weights, batch, 6.0, adv)
        wg_clean = backward(weights, forward(weights, batch.inputs), g_clean)
        wg_adv = backward(weights, forward(weights, adv), g_adv)
        analytic = [a + b for a, b in zip(wg_clean, wg_adv)]

        from fd_utils import fd_weight_grads
        numeric = fd_weight_grads(
            lambda ws: trades_through_model(ws, batch, 6.0, adv)[0], weights)
        assert max_rel_err(analytic, numeric) < 1e-5


class TestGap:
    def test_gap_antisymmetry(self):
        a = [0.5, 0.7]
        b = [0.4, 0.9]
        assert generalization_gap(a, b) == pytest.approx(-generalization_gap(b, a))

    def test_gap_uses_minima(self):
        assert generalization_gap([0.9, 0.3], [0.2, 0.8]) == pytest.approx(0.1)

    def test_gap_empty_family(self):
        with pytest.raises(ParameterError):
            generalization_gap([], [0.1])
