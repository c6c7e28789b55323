"""Acceptance suite: ten go/no-go checks at pinned tolerances.

Each test prints a single "criterion N ...: PASS" line on success (visible
under pytest -v -s or in the captured output).  Criteria 8 and 9 need the
MNIST IDX files; point ADVLAB_MNIST_DIR at a directory containing
train-images-idx3-ubyte / train-labels-idx1-ubyte / t10k-images-idx3-ubyte /
t10k-labels-idx1-ubyte, otherwise those two tests skip with a reason.
"""

import itertools
import os
from pathlib import Path

import numpy as np
import pytest

from advlab.attacks import AttackSpec, pgd
from advlab.core import make_rng, softmax_rows
from advlab.data import DatasetHandle, LabeledBatch, blob_dataset, load_idx
from advlab.fisher_rao import (BoundInputs, complexity_bounds,
                               empirical_rademacher, exhaustive_rademacher,
                               fr_norm_ce, radius_estimates)
from advlab.loat import LoatSchedule, loat
from advlab.mlp import MlpConfig, backward, forward, init_weights
from advlab.objectives import ce_loss, mixture_from_logits
from advlab.sweep import SweepSpec, correlate, run_sweep, slopes_by
from advlab.trainer import TrainConfig, _batch_step, _epoch_rngs, train
from advlab.data import batches
from advlab.objectives import ObjectiveSpec

from fd_utils import fd_weight_grads, max_rel_err
from oracles import (bound_slope_ratio, jensen_middle_wrong, penalty_correct, penalty_wrong,
                     synth_blobs)

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def mnist_dir():
    root = os.environ.get("ADVLAB_MNIST_DIR")
    if not root:
        return None
    root = Path(root)
    if all((root / f).exists() for f in MNIST_FILES.values()):
        return root
    return None


def report(criterion, text):
    print(f"criterion {criterion} ({text}): PASS")


def test_criterion_01_gradient_correctness():
    """Analytic weight gradients of CE, the mixture objective, and the
    scheduled regularization penalties match central finite differences
    (h = 1e-5) within 1e-5 relative error on 20 random networks."""
    rng = np.random.default_rng(31415)
    attack_eps = 0.03
    for trial in range(20):
        n_hidden = int(rng.integers(1, 4))
        widths = [int(rng.integers(2, 9))] + \
                 [int(rng.integers(2, 17)) for _ in range(n_hidden)] + \
                 [int(rng.integers(2, 5))]
        weights = init_weights(MlpConfig(widths, seed=int(rng.integers(1e6))))
        n = max(int(rng.integers(1, 9)), widths[-1])
        batch = synth_blobs(make_rng(int(rng.integers(1e6))),
                            n, widths[0], widths[-1], 0.3)
        adv_inputs = np.clip(
            batch.inputs + attack_eps * rng.choice([-1.0, 1.0], batch.inputs.shape),
            0.0, 1.0)
        lam = float(rng.uniform(0.0, 1.0))
        epoch = int(rng.choice([1, 9]))  # early or late phase
        sched = LoatSchedule(e1=2, e2=8, tau=0.7, gamma=0.2,
                             variant=str(rng.choice(["SLORE", "LORE"])))
        # the correctness mask is a stop-gradient constant, fixed from the
        # unperturbed weights
        mask = forward(weights, batch.inputs).logits.argmax(axis=1) == batch.labels

        def total_loss(ws):
            clean_logits = forward(ws, batch.inputs).logits
            adv_logits = forward(ws, adv_inputs).logits
            base, _, _ = mixture_from_logits(clean_logits, adv_logits,
                                             batch.labels, lam)
            return base + loat(clean_logits, batch.labels, mask, epoch, sched,
                               adv_logits)[0]

        clean_trace = forward(weights, batch.inputs)
        adv_trace = forward(weights, adv_inputs)
        _, g_clean, g_adv = mixture_from_logits(
            clean_trace.logits, adv_trace.logits, batch.labels, lam)
        _, pen_clean, pen_adv = loat(
            clean_trace.logits, batch.labels, mask, epoch, sched,
            adv_trace.logits)
        wg_clean = backward(weights, clean_trace, g_clean + pen_clean)
        wg_adv = backward(weights, adv_trace, g_adv + pen_adv)
        analytic = [a + b for a, b in zip(wg_clean, wg_adv)]
        numeric = fd_weight_grads(total_loss, weights, h=1e-5)
        err = max_rel_err(analytic, numeric)
        assert err < 1e-5, f"trial {trial}: relative error {err:.2e}"
    report(1, "gradient correctness, 20 nets, rel err < 1e-5")


def test_criterion_02_radius_inequality():
    """On 1000 random (model, batch) pairs the Fisher-Rao ball radius never
    exceeds the mean maximal logit gap (tolerance 1e-9)."""
    rng = np.random.default_rng(27182)
    violations = 0
    for _ in range(1000):
        widths = [int(rng.integers(2, 8)),
                  int(rng.integers(2, 16)),
                  int(rng.integers(2, 6))]
        scale = float(rng.uniform(0.2, 3.0))
        weights = init_weights(MlpConfig(widths, seed=int(rng.integers(1e6)),
                                         init_scale=scale))
        batch = synth_blobs(make_rng(int(rng.integers(1e6))),
                            int(rng.integers(widths[-1], 30)),
                            widths[0], widths[-1], float(rng.uniform(0.05, 0.5)))
        _, radius = fr_norm_ce(weights, batch)
        gamma_hat = radius_estimates(weights, batch).gamma_hat
        if radius > gamma_hat + 1e-9:
            violations += 1
    assert violations == 0, f"{violations}/1000 radius inequality violations"
    report(2, "radius <= gamma_hat on 1000 random pairs, zero violations")


def test_criterion_03_penalty_inequalities():
    """P_C_lower <= P_C and the Jensen middle term <= P_M on 10^4 random
    probability matrices, zero violations."""
    rng = np.random.default_rng(16180)
    violations = 0
    for _ in range(10**4):
        k = int(rng.integers(2, 12))
        n = int(rng.integers(2, 16))
        probs = softmax_rows(rng.standard_normal((n, k)) * rng.uniform(0.5, 4.0))
        labels = rng.integers(0, k, size=n)
        mask = rng.integers(0, 2, size=n).astype(bool)
        mask[0] = True
        mask[-1] = False
        p_c, p_c_lower = penalty_correct(probs, labels, mask)
        p_m, _ = penalty_wrong(probs, labels, mask)
        jensen = jensen_middle_wrong(probs, labels, mask)
        if p_c_lower > p_c + 1e-12 or jensen > p_m + 1e-12:
            violations += 1
    assert violations == 0, f"{violations}/10000 penalty inequality violations"
    report(3, "penalty lower forms hold on 10^4 matrices, zero violations")


def test_criterion_04_bound_oracle():
    """The closed-form complexity bounds reproduce the worked value within
    1e-6 and the slope ratio equals sqrt(n_w/n_c) within 1e-9 on a grid."""
    b = BoundInputs(n=100, n_correct=50, n_wrong=50, num_classes=10,
                    gamma_hat_m=1.0, gamma_ce=0.0)
    lo, hi = complexity_bounds(b)
    # independent direct-formula evaluation
    c_mc = (np.sqrt(50) + np.sqrt(50)) / 100
    expect_lo = c_mc * np.log(10) - 1.0 / (np.sqrt(100) * np.sqrt(2.0))
    expect_hi = c_mc * np.log(10) + 1.0 / (np.sqrt(100) * np.sqrt(2.0))
    assert abs(lo - expect_lo) < 1e-6, f"lower {lo} vs {expect_lo}"
    assert abs(hi - expect_hi) < 1e-6, f"upper {hi} vs {expect_hi}"

    rng = np.random.default_rng(14142)
    for _ in range(20):
        n_c = int(rng.integers(1, 500))
        n_w = int(rng.integers(1, 500))
        grid_b = BoundInputs(n=n_c + n_w, n_correct=n_c, n_wrong=n_w,
                             num_classes=int(rng.integers(2, 20)),
                             gamma_hat_m=float(rng.uniform(0.01, 5.0)),
                             gamma_ce=float(rng.uniform(-0.5, 3.0)))
        assert abs(bound_slope_ratio(grid_b) - np.sqrt(n_w / n_c)) < 1e-9
    report(4, "bound oracle within 1e-6, slope ratio within 1e-9 on 20 points")


def test_criterion_05_rademacher_estimator():
    """Monte-Carlo Rademacher estimates at 1e5 draws agree with exhaustive
    sign enumeration within 3 standard errors on small tables."""
    rng = np.random.default_rng(17320)
    for trial in range(5):
        h = int(rng.integers(1, 4))
        n = int(rng.integers(4, 13))
        table = rng.uniform(0.0, 1.0, size=(h, n))
        exact = exhaustive_rademacher(table)
        estimate, stderr = empirical_rademacher(table, make_rng(1000 + trial), 10**5)
        assert abs(estimate - exact) <= 3.0 * stderr, \
            f"trial {trial}: |{estimate} - {exact}| > 3*{stderr}"
    report(5, "Monte-Carlo estimate within 3 stderr of exhaustive, 1e5 draws")


def test_criterion_06_attack_optimality():
    """On 100 random linear instances (d <= 12) PGD reaches at least 99% of
    the exhaustive corner-search maximal CE, and every output respects the
    epsilon ball and the [0,1] box exactly."""
    rng = np.random.default_rng(22360)
    for trial in range(100):
        d = int(rng.integers(2, 13))
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        inputs = rng.uniform(0.0, 1.0, size=(n, d))
        labels = rng.integers(0, k, size=n)
        batch = LabeledBatch(inputs, labels, k)
        weights = [rng.standard_normal((k, d))]
        eps = float(rng.uniform(0.02, 0.15))
        spec = AttackSpec(p="inf", eps=eps, alpha=eps / 4.0, k=10, track_best=True)
        adv = pgd(weights, batch, spec)

        assert np.abs(adv - inputs).max() <= eps * (1 + 1e-12)
        assert adv.min() >= 0.0 and adv.max() <= 1.0

        # vectorized corner search: CE of a linear model is convex in the
        # input, so the per-sample max over the clipped box is at a corner
        corners = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
        loss_pgd, _ = ce_loss(forward(weights, adv).logits, labels)
        for i in range(n):
            cand = np.clip(inputs[i] + eps * corners, 0.0, 1.0)
            losses, _ = ce_loss(forward(weights, cand).logits,
                                np.full(len(cand), labels[i]))
            best = losses.max()
            assert loss_pgd[i] >= 0.99 * best, \
                f"trial {trial} sample {i}: {loss_pgd[i]} < 0.99 * {best}"
    report(6, "PGD >= 99% of corner-search CE on 100 linear instances")


def test_criterion_07_schedule_gate():
    """With E1=2, E2=8 the middle epochs 3..7 of a 10-epoch run compute
    per-batch losses and gradients bit-identical to the regularizer-off
    configuration at the same weight state and seed."""
    data = blob_dataset(5, 200, 50, 6, 3, 0.1)
    base = dict(model=MlpConfig([6, 10, 3], seed=1),
                objective=ObjectiveSpec(kind="mixture", lam=0.5),
                attack=AttackSpec(eps=0.03, alpha=0.01, k=3, random_start=True),
                epochs=10, batch_size=32, seed=7, metrics_every=10)
    cfg_off = TrainConfig(schedule=LoatSchedule(variant="OFF"), **base)
    cfg_slore = TrainConfig(schedule=LoatSchedule(e1=2, e2=8, variant="SLORE"), **base)
    cfg_lore = TrainConfig(schedule=LoatSchedule(e1=2, e2=8, variant="LORE"), **base)

    # representative weight state: two epochs of the off configuration
    warm = TrainConfig(schedule=LoatSchedule(variant="OFF"),
                       **{**base, "epochs": 2})
    weights, _ = train(warm, data)

    for epoch in range(3, 8):
        shuffle_rng, _ = _epoch_rngs(base["seed"], epoch)
        epoch_batches = list(batches(data.train, base["batch_size"], shuffle_rng))
        for b in epoch_batches:
            results = []
            for cfg in (cfg_off, cfg_slore, cfg_lore):
                _, attack_rng = _epoch_rngs(base["seed"], epoch)
                loss, grads = _batch_step(weights, b, cfg, epoch, attack_rng)
                results.append((loss, grads))
            loss0, grads0 = results[0]
            for loss, grads in results[1:]:
                assert loss == loss0  # bit-identical, no tolerance
                assert all(np.array_equal(g, g0) for g, g0 in zip(grads, grads0))
    report(7, "epochs 3-7 bit-identical between OFF, SLORE, LORE")


@pytest.fixture(scope="module")
def mnist_sweep_rows():
    root = mnist_dir()
    if root is None:
        pytest.skip("MNIST IDX files unavailable: set ADVLAB_MNIST_DIR to a "
                    "directory with the four standard ubyte files (this "
                    "sandbox cannot download them)")
    train_b = load_idx(root / MNIST_FILES["train_images"],
                       root / MNIST_FILES["train_labels"], limit=4000)
    test_b = load_idx(root / MNIST_FILES["test_images"],
                      root / MNIST_FILES["test_labels"], limit=2000)
    data = DatasetHandle(train_b, test_b, name="mnist-4000", source="idx-files")
    spec = SweepSpec(widths=(32, 64, 128, 256),
                     lambdas=(0.25, 0.5, 0.75, 1.0),
                     seeds=(0, 1),
                     epochs_list=(10, 200))
    return run_sweep(spec, data, jobs=4)


def test_criterion_08_correlation_sign_flip(mnist_sweep_rows):
    """On the MNIST-4000 sweep the correlation between the relative radius
    gap and the cross-family generalization gap is positive at budget 10
    and negative at budget 200 (|r| >= 0.2 each)."""
    early = correlate(mnist_sweep_rows, "early")
    late = correlate(mnist_sweep_rows, "late")
    assert early.pearson_r >= 0.2, f"early pearson {early.pearson_r}"
    assert late.pearson_r <= -0.2, f"late pearson {late.pearson_r}"
    report(8, "correlation sign flips across epoch budgets on MNIST-4000")


def test_criterion_09_slope_trends(mnist_sweep_rows):
    """Least-squares slope of the misclassified-vs-correct radius scatter
    shrinks with width and grows with the adversarial weight lambda."""
    by_width = slopes_by(mnist_sweep_rows, "width")
    by_lambda = slopes_by(mnist_sweep_rows, "lambda")
    assert by_width[256] < by_width[32], f"width slopes {by_width}"
    assert by_lambda[1.0] > by_lambda[0.25], f"lambda slopes {by_lambda}"
    report(9, "radius-scatter slopes shrink with width, grow with lambda")


def test_criterion_10_regularizer_overhead():
    """Epoch wall time with LORE active stays within 1.05x of the
    regularizer-off baseline at the reference configuration shape
    (4000 x 784 inputs, width 256, 10 classes, PGD training).

    One epoch is short enough that scheduler noise moves a single
    OFF/LORE ratio past 1.05, so the gate is the median ratio over
    interleaved pairs, with the order inside a pair alternating."""
    data = blob_dataset(0, 4000, 100, 784, 10, 0.15)
    base = dict(model=MlpConfig([784, 256, 10], seed=0),
                objective=ObjectiveSpec(kind="mixture", lam=1.0),
                attack=AttackSpec(eps=8 / 255, alpha=2 / 255, k=10),
                epochs=1, batch_size=128, seed=0)
    off = TrainConfig(schedule=LoatSchedule(variant="OFF"), **base)
    # e1 = epochs so every measured epoch runs the penalty branch
    lore = TrainConfig(schedule=LoatSchedule(e1=1, e2=100, variant="LORE"), **base)

    def epoch_ms(cfg):
        return train(cfg, data)[1][-1].epoch_wall_ms

    epoch_ms(off)  # warm-up, not measured
    ratios = []
    for pair in range(15):
        if pair % 2 == 0:
            t_off = epoch_ms(off)
            t_lore = epoch_ms(lore)
        else:
            t_lore = epoch_ms(lore)
            t_off = epoch_ms(off)
        ratios.append(t_lore / t_off)
    ratio = float(np.median(ratios))
    assert ratio <= 1.05, f"median LORE/OFF epoch ratio {ratio:.3f} over pairs " \
                          f"{', '.join(f'{r:.3f}' for r in ratios)}"
    report(10, f"median LORE overhead ratio {ratio:.3f} <= 1.05")
