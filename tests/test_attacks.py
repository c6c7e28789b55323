import contextlib
import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from advlab import core
from advlab.attacks import AttackSpec, eval_attack_pair, pgd, pgd_stack, project
from advlab.core import ParameterError, ShapeError, make_rng
from advlab.data import LabeledBatch
from advlab.mlp import MlpConfig, forward, init_weights
from advlab.objectives import ce_loss

from oracles import ce_logit_grad, full_backward, synth_blobs


def corner_search_linf(weights, batch, eps):
    """Exhaustive maximizer of mean CE over the clipped l-inf ball corners.

    For a linear model CE is convex in the input, so per sample the
    maximum over the box [x - eps, x + eps] ∩ [0,1]^d sits at a corner.
    """
    out = batch.inputs.copy()
    for i in range(batch.n):
        x = batch.inputs[i]
        best_loss = -np.inf
        for signs in itertools.product((-1.0, 1.0), repeat=len(x)):
            cand = np.clip(x + eps * np.array(signs), 0.0, 1.0)
            loss, _ = ce_loss(forward(weights, cand[None, :]).logits,
                              batch.labels[i : i + 1])
            if loss[0] > best_loss:
                best_loss = loss[0]
                out[i] = cand
    return out


def fgsm_spec(eps):
    """FGSM as a PGD spec: one l-inf step of size eps, no best-iterate
    tracking (alpha only has to be positive when eps is 0)."""
    return AttackSpec(p="inf", eps=eps, alpha=eps if eps > 0 else 1.0, k=1, track_best=False)


def fgsm_sign(weights, batch):
    """Per-coordinate sign of the full-backward input gradient of the mean CE."""
    trace = forward(weights, batch.inputs)
    return np.sign(full_backward(weights, trace,
                                 ce_logit_grad(trace.logits, batch.labels))[1])


def pgd_two_forward_oracle(weights, batch, spec, rng=None):
    """PGD as first written: every iterate is forwarded twice (once for
    its CE, once more for its gradient) and gradients come from the full
    backward, weight gradients included."""

    def grad_at(x):
        trace = forward(weights, x)
        return full_backward(weights, trace, ce_logit_grad(trace.logits, batch.labels))[1]

    x0, labels = batch.inputs, batch.labels
    if spec.eps == 0.0:
        return x0.copy()
    if spec.random_start:
        if spec.p == "inf":
            x = x0 + rng.uniform(-spec.eps, spec.eps, size=x0.shape)
        else:
            # uniform in the l2 ball: the first d of d + 2 standard normals per row,
            # the row scaled to norm eps
            normals = rng.standard_normal((x0.shape[0], x0.shape[1] + 2))
            x = x0 + (normals * (spec.eps / np.linalg.norm(normals, axis=1, keepdims=True)))[:, :-2]
        x = project(x0, x, spec.p, spec.eps)
    else:
        x = x0.copy()
    best_x = x0.copy()
    best_loss, _ = ce_loss(forward(weights, x0).logits, labels)
    if spec.track_best and spec.random_start:
        start_loss, _ = ce_loss(forward(weights, x).logits, labels)
        improved = start_loss > best_loss
        best_x[improved] = x[improved]
        best_loss = np.maximum(best_loss, start_loss)
    for _ in range(spec.k):
        grad = grad_at(x)
        if spec.p == "inf":
            x = x + spec.alpha * np.sign(grad)
        else:
            norms = np.linalg.norm(grad, axis=1, keepdims=True)
            x = x + spec.alpha * grad / np.maximum(norms, 1e-300)
        x = project(x0, x, spec.p, spec.eps)
        if spec.track_best:
            loss, _ = ce_loss(forward(weights, x).logits, labels)
            improved = loss > best_loss
            best_x[improved] = x[improved]
            best_loss = np.maximum(best_loss, loss)
    return best_x if spec.track_best else x


class TestAttackSpec:
    def test_defaults(self):
        spec = AttackSpec()
        assert spec.p == "inf"
        assert spec.eps == pytest.approx(8.0 / 255.0)
        assert spec.alpha == pytest.approx(2.0 / 255.0)
        assert spec.k == 10

    def test_validation(self):
        with pytest.raises(ParameterError):
            AttackSpec(p="one")
        with pytest.raises(ParameterError):
            AttackSpec(eps=-0.1)
        with pytest.raises(ParameterError):
            AttackSpec(alpha=0.0)
        with pytest.raises(ParameterError):
            AttackSpec(k=0)

    @pytest.mark.parametrize("k", [2.5, True], ids=["float", "bool"])
    def test_k_must_be_an_integer(self, k):
        # k=2.5 was accepted and pgd then raised a bare TypeError; k=True ran one step
        with pytest.raises(ParameterError, match="k must be an integer"):
            AttackSpec(k=k)


class TestEvalAttackPair:
    def test_fgsm_step_and_pgd_without_random_start(self):
        spec = AttackSpec(p="two", eps=0.3, alpha=0.1, k=4, random_start=True,
                          track_best=False)
        assert eval_attack_pair(spec) == (
            ("fgsm", AttackSpec(p="inf", eps=0.3, alpha=0.3, k=1)),
            ("pgd", AttackSpec(p="two", eps=0.3, alpha=0.1, k=4)))

    def test_zero_eps_is_a_valid_pair(self):
        # eps = 0 leaves every input as it is; the FGSM step needs some alpha > 0
        pair = dict(eval_attack_pair(AttackSpec(eps=0.0, alpha=0.02)))
        assert pair["fgsm"] == AttackSpec(p="inf", eps=0.0, alpha=0.02, k=1)
        assert pair["pgd"] == AttackSpec(eps=0.0, alpha=0.02)


class TestProject:
    def test_inside_ball_unchanged(self):
        x0 = np.array([[0.5, 0.5]])
        x = np.array([[0.52, 0.49]])
        assert np.allclose(project(x0, x, "inf", 0.05), x)
        assert np.allclose(project(x0, x, "two", 0.05), x)

    def test_linf_clamps_coordinatewise(self):
        x0 = np.array([[0.5, 0.5]])
        x = np.array([[0.9, 0.1]])
        out = project(x0, x, "inf", 0.1)
        assert np.allclose(out, [[0.6, 0.4]])

    def test_l2_rescales_radially(self):
        x0 = np.array([[0.5, 0.5]])
        x = np.array([[0.5 + 0.3, 0.5 + 0.4]])  # delta norm 0.5
        out = project(x0, x, "two", 0.1)
        delta = out - x0
        assert np.linalg.norm(delta) == pytest.approx(0.1, abs=1e-12)
        # direction preserved: delta parallel to (0.3, 0.4)
        assert delta[0, 1] / delta[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-10)

    def test_clip_into_unit_box(self):
        x0 = np.array([[0.99, 0.01]])
        x = np.array([[1.5, -0.5]])
        out = project(x0, x, "inf", 1.0)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            project(np.zeros((1, 2)), np.zeros((2, 2)), "inf", 0.1)

    @pytest.mark.parametrize("p", ["inf", "two"])
    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -0.1, True])
    def test_eps_outside_zero_to_inf_rejected(self, p, eps):
        with pytest.raises(ParameterError, match=r"eps must be a finite real number in \[0, inf\)"):
            project(np.full((1, 2), 0.5), np.full((1, 2), 0.5), p, eps)


class TestFgsm:
    def test_eps_zero_is_identity(self):
        batch = synth_blobs(make_rng(0), 10, 4, 2, 0.1)
        weights = init_weights(MlpConfig([4, 2], seed=0))
        assert np.array_equal(pgd(weights, batch, fgsm_spec(0.0)), batch.inputs)

    def test_zero_model_has_zero_gradient(self):
        batch = synth_blobs(make_rng(1), 10, 4, 2, 0.1)
        weights = init_weights(MlpConfig([4, 2], seed=0, init_scale=0.0))
        assert np.array_equal(pgd(weights, batch, fgsm_spec(0.1)), batch.inputs)

    def test_stays_in_ball_and_box(self):
        batch = synth_blobs(make_rng(2), 30, 6, 3, 0.2)
        weights = init_weights(MlpConfig([6, 5, 3], seed=3))
        adv = pgd(weights, batch, fgsm_spec(0.05))
        assert np.abs(adv - batch.inputs).max() <= 0.05 + 1e-12
        assert adv.min() >= 0.0 and adv.max() <= 1.0

    def test_linear_model_hits_interior_corners(self):
        # away from the [0,1] boundary FGSM on a linear model is exactly
        # x + eps * sign(grad), the l-inf-optimal point
        rng = make_rng(4)
        inputs = rng.uniform(0.3, 0.7, size=(8, 3))
        labels = rng.integers(0, 2, size=8)
        batch = LabeledBatch(inputs, labels, 2)
        weights = init_weights(MlpConfig([3, 2], seed=5))
        adv = pgd(weights, batch, fgsm_spec(0.05))
        deltas = adv - batch.inputs
        assert np.all(np.isin(np.round(np.abs(deltas), 10), [0.0, 0.05]))
        exact = corner_search_linf(weights, batch, 0.05)
        loss_fgsm = ce_loss(forward(weights, adv).logits, labels)[1]
        loss_exact = ce_loss(forward(weights, exact).logits, labels)[1]
        assert loss_fgsm == pytest.approx(loss_exact, rel=1e-10)


class TestPgd:
    def test_eps_zero_is_identity(self):
        batch = synth_blobs(make_rng(5), 10, 4, 2, 0.1)
        weights = init_weights(MlpConfig([4, 2], seed=0))
        adv = pgd(weights, batch, AttackSpec(eps=0.0))
        assert np.array_equal(adv, batch.inputs)

    def test_one_step_full_alpha_equals_fgsm(self):
        blobs = synth_blobs(make_rng(6), 15, 5, 3, 0.2)
        inputs = blobs.inputs.copy()
        inputs[:3], inputs[3:6] = 0.0, 1.0  # rows on the box edges
        batch = LabeledBatch(inputs, blobs.labels, 3)
        weights = init_weights(MlpConfig([5, 4, 3], seed=7))
        sign = fgsm_sign(weights, batch)
        for eps in (0.0, 0.03, 0.5, 1.5):
            want = np.clip(inputs + eps * sign, 0.0, 1.0)
            assert np.array_equal(pgd(weights, batch, fgsm_spec(eps)), want)

    @pytest.mark.parametrize("p", ["inf", "two"])
    def test_ball_and_box_invariants(self, p):
        batch = synth_blobs(make_rng(8), 40, 6, 3, 0.2)
        weights = init_weights(MlpConfig([6, 8, 3], seed=9))
        spec = AttackSpec(p=p, eps=0.1, alpha=0.03, k=7,
                          random_start=True, track_best=True)
        adv = pgd(weights, batch, spec, make_rng(10))
        if p == "inf":
            assert np.abs(adv - batch.inputs).max() <= 0.1 + 1e-12
        else:
            norms = np.linalg.norm(adv - batch.inputs, axis=1)
            assert norms.max() <= 0.1 + 1e-12
        assert adv.min() >= 0.0 and adv.max() <= 1.0

    def test_track_best_never_below_clean_loss(self):
        batch = synth_blobs(make_rng(11), 50, 5, 4, 0.3)
        weights = init_weights(MlpConfig([5, 10, 4], seed=12))
        spec = AttackSpec(eps=0.08, alpha=0.02, k=10,
                          random_start=True, track_best=True)
        adv = pgd(weights, batch, spec, make_rng(13))
        clean_loss, _ = ce_loss(forward(weights, batch.inputs).logits, batch.labels)
        adv_loss, _ = ce_loss(forward(weights, adv).logits, batch.labels)
        assert np.all(adv_loss >= clean_loss - 1e-12)

    def test_more_steps_do_not_hurt_with_track_best(self):
        batch = synth_blobs(make_rng(14), 30, 5, 3, 0.2)
        weights = init_weights(MlpConfig([5, 6, 3], seed=15))
        losses = []
        for k in (1, 5, 20):
            spec = AttackSpec(eps=0.08, alpha=0.01, k=k, track_best=True)
            adv = pgd(weights, batch, spec)
            losses.append(ce_loss(forward(weights, adv).logits, batch.labels)[1])
        assert losses[1] >= losses[0] - 1e-12
        assert losses[2] >= losses[1] - 1e-12

    def test_random_start_requires_rng(self):
        batch = synth_blobs(make_rng(16), 5, 3, 2, 0.1)
        weights = init_weights(MlpConfig([3, 2], seed=0))
        with pytest.raises(ParameterError):
            pgd(weights, batch, AttackSpec(random_start=True), rng=None)

    def test_deterministic_given_seed(self):
        batch = synth_blobs(make_rng(17), 20, 4, 2, 0.2)
        weights = init_weights(MlpConfig([4, 2], seed=18))
        spec = AttackSpec(eps=0.05, alpha=0.01, k=5, random_start=True)
        a = pgd(weights, batch, spec, make_rng(99))
        b = pgd(weights, batch, spec, make_rng(99))
        assert np.array_equal(a, b)

    def test_linear_model_near_corner_search(self):
        # small-dimension linear instances: PGD must reach >= 99% of the
        # exhaustively maximal CE
        rng = make_rng(19)
        for trial in range(10):
            d = int(rng.integers(2, 7))
            inputs = rng.uniform(0.2, 0.8, size=(6, d))
            labels = rng.integers(0, 3, size=6)
            batch = LabeledBatch(inputs, labels, 3)
            weights = init_weights(MlpConfig([d, 3], seed=int(rng.integers(1e6))))
            eps = 0.1
            spec = AttackSpec(eps=eps, alpha=eps / 4.0, k=20, track_best=True)
            adv = pgd(weights, batch, spec)
            loss_pgd = ce_loss(forward(weights, adv).logits, labels)[1]
            exact = corner_search_linf(weights, batch, eps)
            loss_exact = ce_loss(forward(weights, exact).logits, labels)[1]
            assert loss_pgd >= 0.99 * loss_exact, f"trial {trial}"

    @staticmethod
    def peak_in_arrays(spec, rng=None):
        """tracemalloc's peak over one PGD on a 2000 x 784 batch through [784, 256, 10],
        in batch-sized arrays."""
        rng_data = make_rng(20)
        batch = LabeledBatch(rng_data.uniform(size=(2000, 784)),
                             rng_data.integers(0, 10, size=2000), 10)
        weights = init_weights(MlpConfig([784, 256, 10], seed=21))
        tracemalloc.start()
        try:
            pgd(weights, batch, spec, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / batch.inputs.nbytes

    def test_peak_memory_in_iterates(self):
        # the iterate x is the one batch-sized array; each row block of at most
        # 2^17 entries (1/12 of this batch) holds its bounds, best iterate,
        # traces and gradient, and a block's arrays live on while the next
        # block's bounds are made.  That reads 1.6 batch-sized arrays; 2 fails
        # an attack that keeps one more (a whole-batch bound or best_x, 2.6).
        assert self.peak_in_arrays(AttackSpec(k=10, track_best=True)) <= 2.0

    def test_peak_memory_l2_random_start(self):
        # no bounds: x, then the blocks' arrays as above, each block's random
        # start drawn at the block's size.  That reads 1.6 batch-sized arrays;
        # 2 fails an attack that keeps one more (a whole-batch start draw, 2.5).
        spec = AttackSpec(p="two", eps=1.0, alpha=0.25, k=10, random_start=True)
        assert self.peak_in_arrays(spec, make_rng(3)) <= 2.0

    def test_l2_random_start_is_uniform_in_the_ball(self):
        # a zero net has a zero input gradient, so with k=1 and no track-best the
        # output is the start: in the ball at d = 3 P(|delta| <= q*eps) = q^3, every
        # coordinate has mean 0 and E[delta_i^2] = eps^2 / (d + 2)
        n, d, eps = 20000, 3, 0.1
        batch = LabeledBatch(np.full((n, d), 0.5), np.zeros(n, dtype=np.int64), 2)
        weights = init_weights(MlpConfig([d, 4, 2], seed=0, init_scale=0.0))
        spec = AttackSpec(p="two", eps=eps, alpha=0.05, k=1, random_start=True,
                          track_best=False)
        delta = pgd(weights, batch, spec, make_rng(40)) - batch.inputs
        radius = np.linalg.norm(delta, axis=1)
        assert radius.max() <= eps * (1 + 1e-12)
        for q in (0.25, 0.5, 0.75, 0.9):
            share = q**d
            assert abs(np.mean(radius <= q * eps) - share) <= 5 * np.sqrt(share * (1 - share) / n)
        sd = eps / np.sqrt(d + 2)  # per coordinate
        assert np.all(np.abs(delta.mean(axis=0)) <= 5 * sd / np.sqrt(n))
        assert np.allclose((delta**2).mean(axis=0), sd**2, rtol=0.05)


class TestOneForwardPerIterate:
    """The one-forward PGD loop returns exactly what the two-forward loop did."""

    @pytest.mark.parametrize("use_clean_trace", [False, True])
    @pytest.mark.parametrize("eps", [0.0, 0.07])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("track_best", [False, True])
    @pytest.mark.parametrize("random_start", [False, True])
    @pytest.mark.parametrize("p", ["inf", "two"])
    def test_bit_identical_to_two_forward_loop(self, p, random_start, track_best, k,
                                               eps, use_clean_trace):
        batch = synth_blobs(make_rng(20), 40, 12, 3, 0.3)
        weights = init_weights(MlpConfig([12, 16, 8, 3], seed=21))
        alpha = 0.02 if p == "inf" else 0.05
        spec = AttackSpec(p=p, eps=eps, alpha=alpha, k=k,
                          random_start=random_start, track_best=track_best)
        clean_trace = forward(weights, batch.inputs) if use_clean_trace else None
        got = pgd(weights, batch, spec, make_rng(22), clean_trace=clean_trace)
        want = pgd_two_forward_oracle(weights, batch, spec, make_rng(22))
        assert np.array_equal(got, want)
        if eps > 0:
            assert not np.array_equal(got, batch.inputs)

    def test_clean_trace_row_mismatch(self):
        batch = synth_blobs(make_rng(23), 10, 4, 2, 0.1)
        weights = init_weights(MlpConfig([4, 3, 2], seed=0))
        trace = forward(weights, batch.inputs[:5])
        with pytest.raises(ShapeError):
            pgd(weights, batch, AttackSpec(eps=0.05), clean_trace=trace)

    def test_fgsm_matches_full_backward(self):
        batch = synth_blobs(make_rng(24), 30, 6, 3, 0.2)
        weights = init_weights(MlpConfig([6, 5, 3], seed=25))
        want = np.clip(batch.inputs + 0.05 * fgsm_sign(weights, batch), 0.0, 1.0)
        assert np.array_equal(pgd(weights, batch, fgsm_spec(0.05)), want)


@st.composite
def attack_cases(draw, rows=st.integers(1, 8), seeds=None):
    """A small random net, a batch with entries on the 0/1 edges (-0.0 too)
    or inside, and an attack with eps tiny, 8/255 or larger than the box.
    A zero init_scale gives all-zero input gradients, so a step can add
    +0.0 to a -0.0 entry: the l-inf step's maximum/minimum must then give
    the bits of np.clip.  Given `seeds`, a stack of that many nets and
    batches, and one generator seed per net."""
    d, hidden, k, n = (draw(st.integers(1, 6)), draw(st.integers(1, 8)),
                       draw(st.integers(2, 4)), draw(rows))
    stack = () if seeds is None else (seeds,)
    init_scale = draw(st.sampled_from([None, 0.0, 0.3, 3.0]))
    nets = [init_weights(MlpConfig([d, hidden, k], seed=draw(st.integers(0, 2**31)),
                                   init_scale=init_scale)) for _ in range(seeds or 1)]
    weights = nets[0] if seeds is None else [np.stack(layer) for layer in zip(*nets)]
    inputs = draw(hnp.arrays(np.float64, stack + (n, d),
                             elements=st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0)))
    labels = draw(hnp.arrays(np.int64, stack + (n,), elements=st.integers(0, k - 1)))
    eps = draw(st.sampled_from([1e-6, 8.0 / 255.0, 1.5]))
    spec = AttackSpec(p=draw(st.sampled_from(["inf", "two"])), eps=eps,
                      alpha=eps * draw(st.sampled_from([0.25, 1.0])), k=draw(st.integers(1, 4)),
                      random_start=draw(st.booleans()), track_best=draw(st.booleans()))
    rng_seeds = [draw(st.integers(0, 2**31)) for _ in range(seeds or 1)]
    return (weights, LabeledBatch(inputs, labels, k), spec,
            rng_seeds[0] if seeds is None else rng_seeds)


def cases_in_row_blocks(seeds=None):
    """(case, blocked) pairs: an attack_cases case for core's own block size,
    or, blocked, one of 5-11 rows (not a multiple of three) for blocks of 2-3 rows."""
    return st.one_of(
        attack_cases(seeds=seeds).map(lambda case: (case, False)),
        attack_cases(rows=st.sampled_from([5, 7, 8, 10, 11]), seeds=seeds)
        .map(lambda case: (case, True)))


@contextlib.contextmanager
def row_blocks(x0, blocked):
    """core's own block size, or if `blocked` its block constant set to three
    rows of one seed's slice of x0, which must then split into several blocks."""
    if not blocked:
        yield
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK", 3 * x0.shape[-1])
        assert len(core.row_blocks(x0)) >= 2
        yield


class TestPgdProperties:
    @settings(deadline=None, database=None, max_examples=200)
    @given(attack_cases(), st.booleans())
    def test_equals_two_forward_oracle(self, case, use_clean_trace):
        weights, batch, spec, seed = case
        clean_trace = forward(weights, batch.inputs) if use_clean_trace else None
        got = pgd(weights, batch, spec, make_rng(seed), clean_trace=clean_trace)
        assert np.array_equal(got, pgd_two_forward_oracle(weights, batch, spec, make_rng(seed)))

    @settings(deadline=None, database=None, max_examples=200)
    @given(cases_in_row_blocks())
    def test_oracle_bits_with_signed_zeros(self, case_blocked):
        # array_equal reads -0.0 == 0.0; the raw words tell them apart, at a
        # block boundary too
        (weights, batch, spec, seed), blocked = case_blocked
        with row_blocks(batch.inputs, blocked):
            got = pgd(weights, batch, spec, make_rng(seed))
        want = pgd_two_forward_oracle(weights, batch, spec, make_rng(seed))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @settings(deadline=None, database=None, max_examples=100)
    @given(cases_in_row_blocks(seeds=3))
    def test_stack_oracle_bits_with_signed_zeros(self, case_blocked):
        (weights, batch, spec, seeds), blocked = case_blocked
        with row_blocks(batch.inputs, blocked):
            got = pgd_stack(weights, batch, spec, [make_rng(s) for s in seeds])
        for s, seed in enumerate(seeds):
            part = LabeledBatch(batch.inputs[s], batch.labels[s], batch.num_classes)
            want = pgd_two_forward_oracle([w[s] for w in weights], part, spec, make_rng(seed))
            assert np.array_equal(got[s].view(np.uint64), want.view(np.uint64))

    @settings(deadline=None, database=None, max_examples=200)
    @given(attack_cases())
    def test_fgsm_spec_is_one_signed_step(self, case):
        weights, batch, spec, _ = case
        want = np.clip(batch.inputs + spec.eps * fgsm_sign(weights, batch), 0.0, 1.0)
        assert np.array_equal(pgd(weights, batch, fgsm_spec(spec.eps)), want)

    @settings(deadline=None, database=None, max_examples=200)
    @given(attack_cases())
    def test_inside_ball_and_box(self, case):
        weights, batch, spec, seed = case
        adv = pgd(weights, batch, spec, make_rng(seed))
        delta = adv - batch.inputs
        if spec.p == "inf":
            assert np.abs(delta).max() <= spec.eps + 1e-12
        else:
            assert np.linalg.norm(delta, axis=1).max() <= spec.eps + 1e-12
        assert adv.min() >= 0.0 and adv.max() <= 1.0

    @settings(deadline=None, database=None, max_examples=200)
    @given(attack_cases())
    def test_track_best_never_below_clean(self, case):
        weights, batch, spec, seed = case
        spec = dataclasses.replace(spec, track_best=True)
        adv = pgd(weights, batch, spec, make_rng(seed))
        clean_loss, _ = ce_loss(forward(weights, batch.inputs).logits, batch.labels)
        adv_loss, _ = ce_loss(forward(weights, adv).logits, batch.labels)
        assert np.all(adv_loss >= clean_loss)


class TestRowBlocks:
    """Each row block of a batch runs the whole attack (its bits against the
    two-forward oracle are checked in TestPgdProperties)."""

    @pytest.mark.parametrize("shape, sizes", [
        ((2000, 784), [166, 167, 167] * 4),
        ((128, 784), [128]),
        ((256, 784), [128, 128]),
        ((6, 64, 32), [64]),
        ((2, 256, 784), [128, 128]),
        ((3, 2**17 + 1), [1, 1, 1]),
    ], ids=["eval_analysis_test_split", "pgd_train_batch", "sweep784_test_split",
            "sweep_grid_stack", "stack_of_two_test_splits", "rows_wider_than_a_block"])
    def test_block_rule(self, shape, sizes):
        # near-equal blocks, as few as hold at most _BLOCK entries of one seed's slice
        blocks = core.row_blocks(np.zeros(shape))
        assert [b.stop - b.start for b in blocks] == sizes
        assert blocks[0].start == 0 and blocks[-1].stop == shape[-2]
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all((b.stop - b.start) * shape[-1] <= max(core._BLOCK, shape[-1])
                   for b in blocks)

    @pytest.mark.parametrize("spec", [
        AttackSpec(k=3, random_start=True),
        AttackSpec(p="two", eps=1.0, alpha=0.25, k=3, random_start=True),
    ], ids=["linf_random_start", "l2_random_start"])
    def test_per_block_calls_equal_one_call(self, spec):
        # each block draws its own start from the shared stream, so pgd on the
        # 2000 x 784 batch equals pgd called on each of its 12 blocks in turn
        rng = make_rng(35)
        batch = LabeledBatch(rng.uniform(size=(2000, 784)), rng.integers(0, 10, size=2000), 10)
        weights = init_weights(MlpConfig([784, 256, 10], seed=36))
        got = pgd(weights, batch, spec, make_rng(37))
        shared = make_rng(37)
        want = np.concatenate([
            pgd(weights, LabeledBatch(batch.inputs[rows], batch.labels[rows], 10), spec, shared)
            for rows in core.row_blocks(batch.inputs)])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("spec", [
        AttackSpec(k=3, track_best=True),
        AttackSpec(p="two", eps=1.0, alpha=0.25, k=3, random_start=True),
    ], ids=["linf_track_best", "l2_random_start"])
    def test_stack_equals_each_seed_pgd(self, spec):
        # a 2 x 256 x 784 stack is cut into the blocks of one seed's 256 x 784
        # batch (128 + 128); blocks counted over the whole stack (four of 64
        # rows) would run the last layer's gemm through OpenBLAS's small-matrix
        # path, whose bits differ from the single network's
        rng = make_rng(30)
        nets = [init_weights(MlpConfig([784, 256, 10], seed=s)) for s in (31, 32)]
        batch = LabeledBatch(rng.uniform(size=(2, 256, 784)),
                             rng.integers(0, 10, size=(2, 256)), 10)
        got = pgd_stack([np.stack(layer) for layer in zip(*nets)], batch, spec,
                        [make_rng(s) for s in (33, 34)])
        for s, net in enumerate(nets):
            part = LabeledBatch(batch.inputs[s], batch.labels[s], 10)
            want = pgd(net, part, spec, make_rng(33 + s))
            assert np.array_equal(got[s].view(np.uint64), want.view(np.uint64))
