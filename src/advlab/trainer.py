"""Deterministic mini-batch training loop with per-epoch metrics.

Optimizer is SGD with momentum (v <- m*v + g; w <- w - lr*v), defaults
momentum 0.9 and lr 0.1.  These are documented defaults chosen for the
desk-scale MLP studies, not tuned claims.

Every source of randomness is derived from the master seed through
numpy SeedSequence spawning keyed by epoch index, so a single epoch is
reproducible in isolation and a whole run replays bit-identically
(timing fields excepted).

epoch_wall_ms measures the batch loop only, excluding the per-epoch
metric evaluation, matching a training-time-per-epoch reading.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .attacks import AttackSpec, pgd
# softmax_rows is unused here but stays bound: perfbench's tracer counts the
# softmax passes of this module through this name.
from .core import ParameterError, check_count, make_rng, softmax_rows  # noqa: F401
from .data import DatasetHandle, LabeledBatch, batches
from .fisher_rao import bounds_of, radius_estimates_from_logits
from .loat import LoatSchedule, loat
from .mlp import MlpConfig, backward, forward, init_weights
from .objectives import (ObjectiveSpec, correct_mask, mixture_from_logits,
                         risk_from_logits, trades_from_logits)


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass(frozen=True)
class TrainConfig:
    model: MlpConfig
    objective: ObjectiveSpec = field(default_factory=ObjectiveSpec)
    attack: AttackSpec = field(default_factory=AttackSpec)
    schedule: LoatSchedule = field(default_factory=LoatSchedule)
    epochs: int = 10
    batch_size: int = 128
    lr: float = 0.1
    momentum: float = 0.9
    seed: int = 0
    metrics_every: int = 1
    eval_attacks: tuple = ()  # ((name, AttackSpec), ...)

    def __post_init__(self):
        for name in ("epochs", "batch_size", "metrics_every"):
            check_count(getattr(self, name), name)
        check_count(self.seed, "seed", least=0)
        TrainConfig.check_sgd(self.lr, self.momentum)

    @staticmethod
    def check_sgd(lr, momentum) -> None:
        """The optimizer rule: lr >= 0 and momentum in [0, 1)."""
        if not lr >= 0.0:
            raise ParameterError(f"lr must be >= 0, got {lr!r}")
        if not 0.0 <= momentum < 1.0:
            raise ParameterError(f"momentum must lie in [0, 1), got {momentum!r}")


@dataclass(frozen=True)
class MetricsRecord:
    epoch: int
    clean_train_loss: float
    clean_train_acc: float
    clean_test_loss: float
    clean_test_acc: float
    adv_test_acc: dict
    gamma_hat: float
    gamma_hat_c: float | None
    gamma_hat_m: float | None
    gamma_ce: float | None
    bound_lower: float | None
    bound_upper: float | None
    epoch_wall_ms: float


def sgd_step(weights: list, grads: list, velocity: list, lr: float, momentum: float):
    """One momentum-SGD update; mutates and returns (weights, velocity)."""
    if len(grads) != len(weights) or len(velocity) != len(weights):
        raise ParameterError("weights, grads, velocity must have equal layer counts")
    for w, g, v in zip(weights, grads, velocity):
        if g.shape != w.shape:
            raise ParameterError(f"grad shape {g.shape} != weight shape {w.shape}")
        v *= momentum
        v += g
        w -= lr * v
    return weights, velocity


def _epoch_rngs(seed: int, epoch: int):
    children = np.random.SeedSequence(entropy=seed, spawn_key=(epoch,)).spawn(2)
    return (np.random.Generator(np.random.PCG64(c)) for c in children)


def _batch_step(weights, batch: LabeledBatch, cfg: TrainConfig, epoch: int,
                attack_rng) -> tuple:
    """One gradient computation; returns (loss, weight_grads).  adv is None if no attack ran."""
    obj = cfg.objective
    clean = forward(weights, batch.inputs)
    adv = None
    if obj.needs_attack:
        adv = forward(weights, pgd(weights, batch, cfg.attack, attack_rng, clean_trace=clean))
    adv_logits = None if adv is None else adv.logits

    if obj.kind == "trades":
        loss, clean_grad, adv_grad = trades_from_logits(
            clean.logits, adv_logits, batch.labels, obj.beta)
    else:
        loss, clean_grad, adv_grad = mixture_from_logits(
            clean.logits, adv_logits, batch.labels, obj.lam)

    if cfg.schedule.phase(epoch) != "off":
        penalty, pen_clean, pen_adv = loat(
            clean.logits, batch.labels, correct_mask(clean.logits, batch.labels), epoch,
            cfg.schedule, adv_logits)
        loss = loss + penalty
        clean_grad = clean_grad + pen_clean
        adv_grad = adv_grad + pen_adv

    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite loss {loss} at epoch {epoch}")

    weight_grads, _ = backward(weights, clean, clean_grad)
    if adv is not None:
        adv_wgrads, _ = backward(weights, adv, adv_grad)
        weight_grads = [a + b for a, b in zip(weight_grads, adv_wgrads)]
    return loss, weight_grads


def evaluate(weights: list, data: DatasetHandle, eval_attacks=(),
             epoch: int = 0, epoch_wall_ms: float = 0.0,
             attack_seed: int = 12345) -> MetricsRecord:
    """Full-split metrics: risks, adversarial accuracies, radius estimates.

    Radius estimates (and hence gamma_ce and the complexity bounds) are
    computed on the training split.  Undefined metrics stay None.  Each
    split is forwarded once: the train logits serve the risk and the
    radius estimates, the test trace the risk and every eval attack's
    clean start.
    """
    train_logits = forward(weights, data.train.inputs).logits
    train_report = risk_from_logits(train_logits, data.train.labels)
    test_trace = forward(weights, data.test.inputs)
    test_report = risk_from_logits(test_trace.logits, data.test.labels)

    adv_acc = {}
    for name, spec in eval_attacks:
        adv_inputs = pgd(weights, data.test, spec, make_rng(attack_seed),
                         clean_trace=test_trace)
        adv_logits = forward(weights, adv_inputs).logits
        adv_acc[name] = float(correct_mask(adv_logits, data.test.labels).mean())

    est = radius_estimates_from_logits(train_logits, data.train.labels)
    g_ce, bound_lo, bound_hi = bounds_of(est, data.train.num_classes)

    return MetricsRecord(
        epoch=epoch,
        clean_train_loss=train_report.mean_loss,
        clean_train_acc=train_report.accuracy,
        clean_test_loss=test_report.mean_loss,
        clean_test_acc=test_report.accuracy,
        adv_test_acc=adv_acc,
        gamma_hat=est.gamma_hat,
        gamma_hat_c=est.gamma_hat_c,
        gamma_hat_m=est.gamma_hat_m,
        gamma_ce=g_ce,
        bound_lower=bound_lo,
        bound_upper=bound_hi,
        epoch_wall_ms=epoch_wall_ms,
    )


def metric_epochs(epochs: int, every: int) -> set:
    """Epochs a run of `epochs` evaluates after: every `every`-th and the last."""
    return {e for e in range(1, epochs + 1) if e % every == 0 or e == epochs}


def train(cfg: TrainConfig, data: DatasetHandle, record_epochs=None):
    """Run the full training loop; returns (final_weights, history).

    `record_epochs` is the set of epochs to evaluate after; it defaults to
    metric_epochs(cfg.epochs, cfg.metrics_every).  A sweep passes the
    union of several budgets' epochs to read them off one run.
    """
    if data.train.dim != cfg.model.layer_widths[0]:
        raise ParameterError("model input width must match dataset dimension")
    if data.train.num_classes != cfg.model.layer_widths[-1]:
        raise ParameterError("model output width must match class count")

    weights = init_weights(cfg.model)
    velocity = [np.zeros_like(w) for w in weights]
    if record_epochs is None:
        record_epochs = metric_epochs(cfg.epochs, cfg.metrics_every)
    history = []
    for epoch in range(1, cfg.epochs + 1):
        shuffle_rng, attack_rng = _epoch_rngs(cfg.seed, epoch)
        t0 = time.perf_counter()
        for batch in batches(data.train, cfg.batch_size, shuffle_rng):
            _, grads = _batch_step(weights, batch, cfg, epoch, attack_rng)
            sgd_step(weights, grads, velocity, cfg.lr, cfg.momentum)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        if epoch in record_epochs:
            history.append(evaluate(weights, data, cfg.eval_attacks,
                                    epoch=epoch, epoch_wall_ms=wall_ms))
    return weights, history
