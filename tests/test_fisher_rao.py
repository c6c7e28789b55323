import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from advlab.core import ParameterError, make_rng
from advlab.data import LabeledBatch
from advlab.fisher_rao import (BoundInputs, RadiusEstimates,
                               UndefinedMetricError, bounds_of,
                               complexity_bounds, empirical_rademacher,
                               _uint32_words, exhaustive_rademacher, fr_integrand, fr_norm_ce,
                               gamma_ce, max_logit_gap, radius_estimates,
                               radius_estimates_from_logits)
from advlab.mlp import MlpConfig, forward, init_weights
from advlab.sweep import openblas_threads

from oracles import bound_slope_ratio, synth_blobs


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


def empirical_4096_row_oracle(table, rng, draws, rows=4096):
    """empirical_rademacher before the reused buffer: a fresh int32 draw
    and its float64 copy for every chunk of 4096 rows (or `rows`: the
    gemm's last bits can depend on its row count), one gemm per chunk."""
    n = table.shape[1]
    values = np.empty(draws)
    done = 0
    while done < draws:
        chunk = min(rows, draws - done)
        xi = rng.integers(0, 2, size=(chunk, n), dtype=np.int32).astype(np.float64)
        xi *= 2.0
        xi -= 1.0
        values[done : done + chunk] = (xi @ table.T).max(axis=1) / n
        done += chunk
    stderr = float(values.std(ddof=1) / np.sqrt(draws)) if draws > 1 else float("inf")
    return float(values.mean()), stderr


@st.composite
def rademacher_shapes(draw, most_signs=2**22):
    """(h, n, draws) of a loss table and a draw count: h up to 40 (from 32 on
    the chunks stay whole), n up to 70000 (past 4096 the chunks are shorter
    than 4096 rows) and at most most_signs signs."""
    h = draw(st.integers(1, 7) | st.integers(8, 40))
    n = draw(st.integers(1, 4096) | st.integers(4097, 70000)
             | st.sampled_from([1, 33, 4095, 4096, 4097]))
    most = max(1, most_signs // n)
    draws = draw(st.integers(1, most) | st.sampled_from(
        [d for d in (1, 2, 4095, 4096, 4097, 8193) if d <= most]))
    return h, n, draws


ALL_BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                      np.random.SFC64, np.random.MT19937]


def same_state(a, b) -> bool:
    """Equal bit_generator.state dicts; MT19937, Philox and SFC64 hold arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[key], b[key]) for key in a)
    return np.array_equal(a, b)


def traced_peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logit_rejected(self, bad):
        # the row's integrand used to read nan
        with pytest.raises(ParameterError,
                           match=r"^logits row 1 \(counting from 0\) is not finite$"):
            fr_integrand([[1.0, 2.0], [bad, 0.0], [0.0, bad]], [0, 1, 1])


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

    @settings(deadline=None, database=None, max_examples=200)
    @given(st.integers(1, 6), st.lists(st.integers(1, 8), max_size=2), st.integers(2, 5),
           st.integers(1, 30), st.integers(0, 2**31), st.sampled_from([None, 0.3, 3.0]))
    def test_radius_bounded_by_gamma_hat_property(self, d, hidden, k, n, seed, init_scale):
        weights = init_weights(MlpConfig([d, *hidden, k], seed=seed, init_scale=init_scale))
        rng = make_rng(seed + 1)
        batch = LabeledBatch(rng.uniform(size=(n, d)), rng.integers(0, k, size=n), k)
        _, radius = fr_norm_ce(weights, batch)
        assert radius <= radius_estimates(weights, batch).gamma_hat + 1e-12


class TestMaxLogitGap:
    def test_hand_example(self):
        gaps = max_logit_gap([[2.0, -1.0, 0.5]], [2])
        assert gaps[0] == pytest.approx(1.5)

    def test_nonnegative(self):
        rng = make_rng(5)
        gaps = max_logit_gap(rng.standard_normal((100, 4)), rng.integers(0, 4, 100))
        assert np.all(gaps >= 0.0)

    def test_one_class_rejected(self):
        # the max over k != y is empty; it used to read -inf
        with pytest.raises(ParameterError, match="K >= 2 classes, got K=1"):
            max_logit_gap([[1.0], [2.0]], [0, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logit_rejected(self, bad):
        with pytest.raises(ParameterError,
                           match=r"^logits row 1 \(counting from 0\) is not finite$"):
            max_logit_gap([[1.0, 2.0], [bad, 0.0], [0.0, bad]], [0, 1, 1])


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


class TestBoundsOf:
    def test_defined_equals_gamma_ce_and_bounds(self):
        est = RadiusEstimates(gamma_hat=3.0, gamma_hat_c=2.0, gamma_hat_m=4.0,
                              n=3, n_correct=1, n_wrong=2)
        g = gamma_ce(est)
        lo, hi = complexity_bounds(BoundInputs(n=3, n_correct=1, n_wrong=2, num_classes=5,
                                               gamma_hat_m=4.0, gamma_ce=g))
        assert bounds_of(est, 5) == (g, lo, hi)

    @pytest.mark.parametrize("est, k", [
        (RadiusEstimates(1.0, 1.0, None, n=2, n_correct=2, n_wrong=0), 3),
        (RadiusEstimates(1.0, None, 1.0, n=2, n_correct=0, n_wrong=2), 3),
        (RadiusEstimates(0.5, 1.0, 0.0, n=2, n_correct=1, n_wrong=1), 3),
        (RadiusEstimates(1.0, 2.0, 1.0, n=2, n_correct=1, n_wrong=1), 1),
    ], ids=["all-correct", "all-wrong", "gamma_hat_m-zero", "one-class"])
    def test_undefined_gives_three_nones(self, est, k):
        assert bounds_of(est, k) == (None, None, None)


class TestNodeRescaling:
    """Scaling hidden unit j's incoming row by c > 0 and its outgoing column by
    1/c leaves a bias-free ReLU net's function unchanged, since relu(c z) =
    c relu(z).  Every metric read off the logits is invariant, while the
    Frobenius norm is not (Neyshabur et al., Path-SGD, arXiv:1506.02617)."""

    @settings(deadline=None, database=None, max_examples=150)
    @given(st.integers(1, 6), st.lists(st.integers(1, 8), min_size=1, max_size=2),
           st.integers(2, 5), st.integers(2, 30), st.integers(0, 2**31),
           st.floats(0.05, 0.8) | st.floats(1.25, 20.0), st.data())
    def test_metrics_invariant_frobenius_not(self, d, hidden, k, n, seed, c, data):
        weights = init_weights(MlpConfig([d, *hidden, k], seed=seed))
        layer = data.draw(st.integers(0, len(hidden) - 1))
        unit = data.draw(st.integers(0, hidden[layer] - 1))
        scaled = [w.copy() for w in weights]
        scaled[layer][unit] *= c
        scaled[layer + 1][:, unit] /= c
        rng = make_rng(seed + 1)
        batch = LabeledBatch(rng.uniform(size=(n, d)), rng.integers(0, k, size=n), k)

        logits = forward(weights, batch.inputs).logits
        scale = 1.0 + np.abs(logits).max()
        # a rounding-level change must not flip a sample between correct and wrong
        top_two = np.sort(logits, axis=1)[:, -2:]
        assume(np.all(top_two[:, 1] - top_two[:, 0] > 1e-3 * scale))
        close = dict(rel=1e-9, abs=1e-12 * scale)
        assert forward(scaled, batch.inputs).logits == pytest.approx(logits, **close)
        assert fr_norm_ce(scaled, batch) == pytest.approx(fr_norm_ce(weights, batch), **close)
        est, est_scaled = radius_estimates(weights, batch), radius_estimates(scaled, batch)
        assert (est_scaled.n_correct, est_scaled.n_wrong) == (est.n_correct, est.n_wrong)
        for name in ("gamma_hat", "gamma_hat_c", "gamma_hat_m"):
            want = getattr(est, name)
            assert getattr(est_scaled, name) == (None if want is None
                                                 else pytest.approx(want, **close))
        for got, want in zip(bounds_of(est_scaled, k), bounds_of(est, k)):
            assert got == (None if want is None else pytest.approx(want, rel=1e-8, abs=1e-8))

        row, col = np.sum(weights[layer][unit] ** 2), np.sum(weights[layer + 1][:, unit] ** 2)
        assume(abs((c**2 - 1.0) * row + (c**-2 - 1.0) * col) > 1e-6 * (row + col))
        frobenius = [np.sqrt(sum(np.sum(w**2) for w in net)) for net in (weights, scaled)]
        assert frobenius[1] != pytest.approx(frobenius[0], rel=1e-9)


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

    @settings(deadline=None, database=None, max_examples=40)
    @given(rademacher_shapes(), st.integers(0, 2**31), st.booleans())
    @example((4, 300, 9000), 1, False)  # here 256-row gemm blocks would change the result
    @example((3, 5, 7), 2, True)
    @example((4, 4000, 20000), 3, False)  # eval_analysis: 62 blocks per 4096-row chunk
    @example((3, 33537, 34), 4, False)  # 11-row blocks would run on one BLAS thread
    @example((1, 9000, 1864), 5, False)  # h = 1: row blocks would change the bits
    @example((63, 51179, 43), 7, False)  # h >= 32: 21-row blocks would change them
    def test_empirical_equals_4096_row_oracle(self, shape, seed, pending_half):
        # the oracle takes one gemm per chunk of the earlier versions' rows, and
        # empirical_rademacher cuts each chunk into row blocks for 2 <= h < 32;
        # pending_half: one int32 draw first leaves the generator holding the
        # other half of a 64-bit output, which the first sign must use
        h, n, draws = shape
        table = make_rng(seed).uniform(-1.0, 3.0, size=(h, n))
        rng, oracle_rng = make_rng(seed + 1), make_rng(seed + 1)
        if pending_half:
            rng.integers(0, 5, dtype=np.int32)
            oracle_rng.integers(0, 5, dtype=np.int32)
        assert empirical_rademacher(table, rng, draws) == \
            empirical_4096_row_oracle(table, oracle_rng, draws, rows=min(4096, 2**24 // n))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("shape", [(4, 4000, 4500), (3, 33537, 34), (31, 2406, 600),
                                       (63, 51179, 43), (35, 62006, 67), (39, 29470, 142)])
    def test_empirical_equals_4096_row_oracle_at_each_blas_thread_count(self, shape):
        # OpenBLAS picks its gemm driver by the thread count, the rows and h.
        # Without the 17-row floor (3, 33537) differs from 2 threads on.  With
        # row blocks for h >= 32, (63, 51179) differs at 2 threads, (35, 62006)
        # at 4 and (39, 29470) at 8.  A thread count above the host's cores
        # splits the work as on a host with that many cores.
        blas = openblas_threads()
        if blas is None:
            pytest.skip("no OpenBLAS thread-count symbol in numpy's libraries")
        get_threads, set_threads = blas
        h, n, draws = shape
        table = make_rng(7).uniform(-1.0, 3.0, size=(h, n))
        default = get_threads()
        try:
            for threads in (1, 2, 3, 4, 8):
                set_threads(threads)
                assert empirical_rademacher(table, make_rng(8), draws) == \
                    empirical_4096_row_oracle(table, make_rng(8), draws,
                                              rows=min(4096, 2**24 // n)), f"{threads} threads"
        finally:
            set_threads(default)

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox,
                                               np.random.SFC64, np.random.PCG64DXSM])
    @pytest.mark.parametrize("pending_half", [False, True])
    def test_empirical_equals_4096_row_oracle_other_generators(self, bit_generator,
                                                                pending_half):
        table = make_rng(21).uniform(-1.0, 3.0, size=(3, 70))
        rng, oracle_rng = (np.random.Generator(bit_generator(22)) for _ in range(2))
        if pending_half:
            rng.integers(0, 5, dtype=np.int32)
            oracle_rng.integers(0, 5, dtype=np.int32)
        assert empirical_rademacher(table, rng, 4100) == \
            empirical_4096_row_oracle(table, oracle_rng, 4100)
        assert same_state(rng.bit_generator.state, oracle_rng.bit_generator.state)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                               np.random.Philox, np.random.SFC64,
                                               np.random.PCG64DXSM])
    def test_sign_is_top_bit_of_uint32_word(self, bit_generator):
        # empirical_rademacher reads integers(0, 2) off full-range uint32 words;
        # a numpy whose bounded draw is not the word's top bit fails here
        words_rng, bits_rng = (np.random.Generator(bit_generator(23)) for _ in range(2))
        for size in (1, 7, 1000):
            words = words_rng.integers(0, 2**32, size=size, dtype=np.uint32)
            bits = bits_rng.integers(0, 2, size=size, dtype=np.int32)
            assert np.array_equal(words >> 31, bits)
        assert same_state(words_rng.bit_generator.state, bits_rng.bit_generator.state)

    @settings(deadline=None, database=None, max_examples=100)
    @given(st.sampled_from(ALL_BIT_GENERATORS), st.booleans(), st.integers(0, 40),
           st.integers(0, 2**32 - 1))
    @example(np.random.PCG64, True, 0, 1)  # a pending half and no words
    @example(np.random.Philox, False, 2, 1)  # one whole pair, no raw output
    def test_uint32_words_equal_integers(self, bit_generator, pending_half, count, seed):
        # the words and the state afterwards, has_uint32 and uinteger included
        rng, oracle_rng = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        if pending_half:
            rng.integers(0, 5, dtype=np.int32)
            oracle_rng.integers(0, 5, dtype=np.int32)
        words = np.concatenate([np.empty(0, np.uint32), *_uint32_words(rng, count)])
        want = oracle_rng.integers(0, 2**32, size=count, dtype=np.uint32)
        assert words.dtype == np.uint32 and np.array_equal(words, want)
        assert same_state(rng.bit_generator.state, oracle_rng.bit_generator.state)

    @pytest.mark.parametrize("bit_generator", ALL_BIT_GENERATORS)
    def test_uint32_words_span_raw_blocks(self, bit_generator):
        # 2**18 + 5 words take two random_raw calls, the second of 2 outputs
        rng, oracle_rng = (np.random.Generator(bit_generator(24)) for _ in range(2))
        words = np.concatenate(list(_uint32_words(rng, 2**18 + 5)))
        assert np.array_equal(words, oracle_rng.integers(0, 2**32, size=2**18 + 5,
                                                         dtype=np.uint32))
        assert same_state(rng.bit_generator.state, oracle_rng.bit_generator.state)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox])
    @pytest.mark.parametrize("pending_half", [False, True])
    def test_empirical_equals_oracle_over_odd_chunks(self, bit_generator, pending_half):
        # n = 4097 gives 4095-row chunks of 4095 * 4097 words, an odd count, so the
        # chunks alternate between starting on a pending half and not; 3 * 4095 + 7
        # draws give 4 chunks
        table = make_rng(25).uniform(-1.0, 3.0, size=(3, 4097))
        rng, oracle_rng = (np.random.Generator(bit_generator(26)) for _ in range(2))
        if pending_half:
            rng.integers(0, 5, dtype=np.int32)
            oracle_rng.integers(0, 5, dtype=np.int32)
        assert empirical_rademacher(table, rng, 3 * 4095 + 7) == \
            empirical_4096_row_oracle(table, oracle_rng, 3 * 4095 + 7, rows=4095)
        assert same_state(rng.bit_generator.state, oracle_rng.bit_generator.state)

    @pytest.mark.parametrize("n, draws, limit_mib", [(4000, 20000, 8), (60000, 600, 16)])
    def test_empirical_peak_memory(self, n, draws, limit_mib):
        # one reused sign buffer of one row block: 67 x 4000 floats (2 MiB) at
        # n = 4000, and at n = 60000 blocks of 17 to 21 rows of 279-row chunks
        table = make_rng(19).uniform(size=(4, n))
        peak = traced_peak_bytes(empirical_rademacher, table, make_rng(20), draws)
        assert peak <= limit_mib * 2**20

    @pytest.mark.parametrize("shape", [(2, 0), (0, 3)])
    def test_exhaustive_rejects_empty_table(self, shape):
        with pytest.raises(ParameterError):
            exhaustive_rademacher(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("estimate", [
        lambda table: empirical_rademacher(table, make_rng(0), 10), exhaustive_rademacher,
    ], ids=["empirical", "exhaustive"])
    def test_non_finite_loss_rejected(self, estimate, bad):
        # the estimates used to read nan, the exhaustive one with a RuntimeWarning
        with pytest.raises(ParameterError,
                           match=r"^loss_table row 1 \(counting from 0\) is not finite$"):
            estimate([[0.2, 0.3], [bad, 1.0], [0.5, bad]])

    def test_validation(self):
        with pytest.raises(ParameterError):
            exhaustive_rademacher(np.zeros((2, 21)))
        for draws in (0, 2.5, True, "3"):
            with pytest.raises(ParameterError):
                empirical_rademacher(np.zeros((1, 3)), make_rng(0), draws)
