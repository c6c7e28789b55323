import itertools

import numpy as np
import pytest

from advlab.core import ParameterError, make_rng
from advlab.data import synth_blobs
from advlab.fisher_rao import (BoundInputs, RadiusEstimates,
                               UndefinedMetricError, bound_slope_ratio,
                               complexity_bounds, empirical_rademacher,
                               exhaustive_rademacher, fr_integrand, fr_norm_ce,
                               gamma_ce, max_logit_gap, radius_estimates,
                               radius_estimates_from_logits)
from advlab.mlp import MlpConfig, init_weights


def rademacher_oracle(table, n_draws, seed):
    """Plain-loop Monte-Carlo estimator, independent of the library path."""
    rng = make_rng(seed)
    total = 0.0
    n = table.shape[1]
    for _ in range(n_draws):
        xi = rng.choice([-1.0, 1.0], size=n)
        total += max((row * xi).sum() for row in table) / n
    return total / n_draws


def exhaustive_loop_oracle(table):
    """exhaustive_rademacher as first written: one sign vector at a time,
    bit i of b set meaning xi_i = +1, summed in enumeration order."""
    table = np.asarray(table, dtype=np.float64)
    n = table.shape[1]
    total = 0.0
    for bits in range(2**n):
        xi = np.array([1.0 if (bits >> i) & 1 else -1.0 for i in range(n)])
        total += (table @ xi).max() / n
    return total / 2**n


def empirical_int64_oracle(table, rng, draws):
    """empirical_rademacher as first written: int64 sign draws."""
    n = table.shape[1]
    values = np.empty(draws)
    done = 0
    while done < draws:
        chunk = min(4096, draws - done)
        xi = rng.integers(0, 2, size=(chunk, n)).astype(np.float64) * 2.0 - 1.0
        values[done : done + chunk] = (xi @ table.T).max(axis=1) / n
        done += chunk
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(draws))


class TestFrIntegrand:
    def test_worked_example(self):
        # logits (2, 0, 1), label 0: <softmax, f> - f_0
        u = fr_integrand([[2.0, 0.0, 1.0]], [0])
        assert u[0] == pytest.approx(-0.4247896173955583, abs=1e-12)

    def test_uniform_logits_vanish(self):
        assert np.allclose(fr_integrand(np.zeros((3, 5)), [0, 2, 4]), 0.0, atol=1e-15)

    def test_shift_invariance(self):
        rng = make_rng(0)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        a = fr_integrand(logits, labels)
        b = fr_integrand(logits + 7.5, labels)
        assert np.allclose(a, b, atol=1e-12)

    def test_bounded_by_max_gap(self):
        # |<softmax, f> - f_y| is a softmax average of |f_k - f_y| terms
        rng = make_rng(1)
        logits = 3.0 * rng.standard_normal((200, 6))
        labels = rng.integers(0, 6, size=200)
        u = np.abs(fr_integrand(logits, labels))
        gaps = max_logit_gap(logits, labels)
        assert np.all(u <= gaps + 1e-12)


class TestFrNorm:
    def test_norm_and_radius_definitions(self):
        weights = init_weights(MlpConfig([5, 6, 3], seed=2))
        batch = synth_blobs(make_rng(3), 40, 5, 3, 0.2)
        norm, radius = fr_norm_ce(weights, batch)
        from advlab.mlp import forward
        u = fr_integrand(forward(weights, batch.inputs).logits, batch.labels)
        assert norm == pytest.approx(2.0 * np.sqrt(np.mean(u**2)), abs=1e-12)
        assert radius == pytest.approx(np.mean(np.abs(u)), abs=1e-12)

    def test_radius_bounded_by_gamma_hat(self):
        # the radius uses the first absolute moment, so it never exceeds
        # the mean maximal logit gap
        rng = make_rng(4)
        for trial in range(50):
            widths = [4, int(rng.integers(2, 12)), 3]
            weights = init_weights(MlpConfig(widths, seed=int(rng.integers(1e6))))
            batch = synth_blobs(make_rng(int(rng.integers(1e6))), 25, 4, 3, 0.3)
            _, radius = fr_norm_ce(weights, batch)
            est = radius_estimates(weights, batch)
            assert radius <= est.gamma_hat + 1e-12, f"trial {trial}"


class TestMaxLogitGap:
    def test_hand_example(self):
        gaps = max_logit_gap([[2.0, -1.0, 0.5]], [2])
        assert gaps[0] == pytest.approx(1.5)

    def test_nonnegative(self):
        rng = make_rng(5)
        gaps = max_logit_gap(rng.standard_normal((100, 4)), rng.integers(0, 4, 100))
        assert np.all(gaps >= 0.0)


class TestRadiusEstimates:
    def test_worked_split(self):
        # rows: correct with gap 2, wrong with gap 4
        logits = np.array([[2.0, 0.0], [4.0, 0.0]])
        labels = [0, 1]
        est = radius_estimates_from_logits(logits, labels)
        assert est.n == 2 and est.n_correct == 1 and est.n_wrong == 1
        assert est.gamma_hat == pytest.approx(3.0)
        assert est.gamma_hat_c == pytest.approx(2.0)
        assert est.gamma_hat_m == pytest.approx(4.0)

    def test_decomposition_identity(self):
        # n * gamma_hat = n_c * gamma_hat_c + n_w * gamma_hat_m
        rng = make_rng(6)
        logits = rng.standard_normal((60, 5))
        labels = rng.integers(0, 5, size=60)
        est = radius_estimates_from_logits(logits, labels)
        assert est.n_correct >= 1 and est.n_wrong >= 1
        lhs = est.n * est.gamma_hat
        rhs = est.n_correct * est.gamma_hat_c + est.n_wrong * est.gamma_hat_m
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_all_correct_leaves_m_none(self):
        logits = np.array([[3.0, 0.0], [5.0, 0.0]])
        est = radius_estimates_from_logits(logits, [0, 0])
        assert est.gamma_hat_m is None
        assert est.n_wrong == 0

    def test_gamma_ce_worked_example(self):
        est = RadiusEstimates(gamma_hat=3.0, gamma_hat_c=2.0, gamma_hat_m=4.0,
                              n=2, n_correct=1, n_wrong=1)
        assert gamma_ce(est) == pytest.approx(-0.5)

    def test_gamma_ce_undefined(self):
        est = RadiusEstimates(gamma_hat=1.0, gamma_hat_c=1.0, gamma_hat_m=None,
                              n=2, n_correct=2, n_wrong=0)
        with pytest.raises(UndefinedMetricError):
            gamma_ce(est)


class TestComplexityBounds:
    def test_worked_example(self):
        # n=100 split evenly, K=10, gamma_hat_m=1, Gamma=0
        b = BoundInputs(n=100, n_correct=50, n_wrong=50, num_classes=10,
                        gamma_hat_m=1.0, gamma_ce=0.0)
        lo, hi = complexity_bounds(b)
        assert lo == pytest.approx(0.2549240285843747, abs=1e-12)
        assert hi == pytest.approx(0.39634538482168413, abs=1e-12)

    def test_lower_below_upper(self):
        rng = make_rng(7)
        for _ in range(100):
            n_c = int(rng.integers(1, 200))
            n_w = int(rng.integers(1, 200))
            b = BoundInputs(n=n_c + n_w, n_correct=n_c, n_wrong=n_w,
                            num_classes=int(rng.integers(2, 20)),
                            gamma_hat_m=float(rng.uniform(0.01, 5.0)),
                            gamma_ce=float(rng.uniform(-0.5, 5.0)))
            lo, hi = complexity_bounds(b)
            assert lo <= hi

    def test_balanced_split_symmetric_widths(self):
        # with n_c = n_w the band is symmetric around the center term
        b0 = BoundInputs(n=80, n_correct=40, n_wrong=40, num_classes=5,
                         gamma_hat_m=2.0, gamma_ce=1.0)
        lo, hi = complexity_bounds(b0)
        center = (np.sqrt(40) + np.sqrt(40)) / 80 * np.log(5)
        assert hi - center == pytest.approx(center - lo, rel=1e-12)

    def test_slope_ratio_closed_form_matches_finite_differences(self):
        for n_c, n_w in [(50, 50), (90, 10), (10, 90), (3, 7)]:
            ratio = bound_slope_ratio(BoundInputs(
                n=n_c + n_w, n_correct=n_c, n_wrong=n_w, num_classes=4,
                gamma_hat_m=1.5, gamma_ce=0.2))
            assert ratio == pytest.approx(np.sqrt(n_w / n_c), rel=1e-12)
            h = 1e-6
            def bounds_at(g):
                return complexity_bounds(BoundInputs(
                    n=n_c + n_w, n_correct=n_c, n_wrong=n_w, num_classes=4,
                    gamma_hat_m=1.5, gamma_ce=g))
            lo_p, hi_p = bounds_at(0.2 + h)
            lo_m, hi_m = bounds_at(0.2 - h)
            d_hi = (hi_p - hi_m) / (2 * h)
            d_lo = (lo_p - lo_m) / (2 * h)
            assert d_hi / (-d_lo) == pytest.approx(ratio, rel=1e-6)

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            BoundInputs(n=5, n_correct=5, n_wrong=0, num_classes=3,
                        gamma_hat_m=1.0, gamma_ce=0.0)
        with pytest.raises(ParameterError):
            BoundInputs(n=7, n_correct=5, n_wrong=1, num_classes=3,
                        gamma_hat_m=1.0, gamma_ce=0.0)
        with pytest.raises(ParameterError):
            BoundInputs(n=6, n_correct=5, n_wrong=1, num_classes=1,
                        gamma_hat_m=1.0, gamma_ce=0.0)


class TestRademacher:
    def test_exhaustive_single_hypothesis_hand_example(self):
        # one hypothesis, losses (1, 1): E max = E |xi1 + xi2| / 2 ... but
        # with a single row the max is just the signed mean, expectation 0
        assert exhaustive_rademacher([[1.0, 1.0]]) == pytest.approx(0.0, abs=1e-15)

    def test_exhaustive_two_opposite_hypotheses(self):
        # rows (1,1) and (-1,-1): max(|s|, -|s|)... max(s, -s) = |s|,
        # s = (xi1 + xi2)/2 -> E|s| = 1/2
        value = exhaustive_rademacher([[1.0, 1.0], [-1.0, -1.0]])
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_exhaustive_matches_direct_enumeration(self):
        rng = make_rng(8)
        table = rng.uniform(0.0, 1.0, size=(5, 8))
        total = 0.0
        for signs in itertools.product((-1.0, 1.0), repeat=8):
            xi = np.array(signs)
            total += max((row * xi).sum() for row in table) / 8
        assert exhaustive_rademacher(table) == pytest.approx(total / 2**8, rel=1e-12)

    def test_empirical_within_stderr_of_exhaustive(self):
        rng = make_rng(9)
        table = rng.uniform(0.0, 1.0, size=(6, 10))
        exact = exhaustive_rademacher(table)
        estimate, stderr = empirical_rademacher(table, make_rng(10), 20000)
        assert abs(estimate - exact) < 4.0 * stderr

    def test_empirical_matches_loop_oracle(self):
        rng = make_rng(11)
        table = rng.uniform(0.0, 1.0, size=(3, 6))
        estimate, stderr = empirical_rademacher(table, make_rng(12), 5000)
        oracle = rademacher_oracle(table, 5000, seed=13)
        assert abs(estimate - oracle) < 5.0 * stderr

    def test_duplicate_hypotheses_change_nothing(self):
        rng = make_rng(14)
        table = rng.uniform(0.0, 1.0, size=(4, 7))
        doubled = np.vstack([table, table])
        assert exhaustive_rademacher(doubled) == pytest.approx(
            exhaustive_rademacher(table), rel=1e-12)

    def test_determinism(self):
        table = make_rng(15).uniform(size=(3, 5))
        a = empirical_rademacher(table, make_rng(7), 1000)
        b = empirical_rademacher(table, make_rng(7), 1000)
        assert a == b

    def test_scaling_homogeneity(self):
        table = make_rng(16).uniform(size=(4, 6))
        base = exhaustive_rademacher(table)
        assert exhaustive_rademacher(3.0 * table) == pytest.approx(3.0 * base, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 10, 15, 16])
    def test_exhaustive_equals_loop_oracle(self, n):
        # n = 15 and 16 span more than one chunk of sign vectors
        rng = make_rng(100 + n)
        for h in (1, 4):
            table = rng.uniform(-2.0, 3.0, size=(h, n))
            assert exhaustive_rademacher(table) == exhaustive_loop_oracle(table)

    @pytest.mark.parametrize("shape, draws", [((3, 6), 5000), ((4, 300), 9000)])
    def test_empirical_equals_int64_draw_oracle(self, shape, draws):
        table = make_rng(17).uniform(size=shape)
        assert empirical_rademacher(table, make_rng(18), draws) == \
            empirical_int64_oracle(table, make_rng(18), draws)

    def test_validation(self):
        with pytest.raises(ParameterError):
            exhaustive_rademacher(np.zeros((2, 21)))
        with pytest.raises(ParameterError):
            empirical_rademacher(np.zeros((1, 3)), make_rng(0), 0)
