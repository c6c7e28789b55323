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

evaluate runs each row block of a split end to end.  Its records equal
those of whole-split forwards at 10 classes on 784-d splits, but their
last bits differ at 4 or 2 classes (see evaluate).

train_stack(cfg, data, seeds) trains one config under several seeds in
lockstep, each seed setting both seed and model.seed, on arrays with a
leading stack axis (see core): a sweep trains the seeds of one (width,
lambda) this way, and each numpy call of the batch step serves every
seed.  Each seed keeps its own init, its own per-epoch generators,
shuffle order and attack draws, so its weights and records equal those
of its own train() run bit for bit.  The per-epoch metrics are evaluated
one seed at a time.  epoch_wall_ms is the stacked
epoch's time, shared by the stack's seeds.  train runs the same loop on
a stack of one, which has no stack axis.  A blow-up raises
DivergenceError, with numpy's overflow warnings silenced.  sgd_step
checks every layer's grad and velocity against its weight
(core.check_shape) before it updates any layer.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from .attacks import AttackSpec, pgd, pgd_stack
# softmax_rows is unused here but stays bound: perfbench's tracer counts the
# softmax passes of this module through this name.
from .core import (NonFiniteError, ParameterError, check_count, check_finite,  # noqa: F401
                   check_real, check_shape, check_unique, make_rng, row_blocks, seeds_of,
                   softmax_rows, stack_of)
from .data import DatasetHandle, LabeledBatch, batches
from .fisher_rao import bounds_of, radius_estimates_from_logits
from .loat import LoatSchedule, loat
from .mlp import MlpConfig, backward, backward_stack, forward, forward_stack, init_weights
from .objectives import (ObjectiveSpec, correct_mask, mixture_from_logits,
                         risk_from_logits, trades_from_logits)


EVAL_ATTACK_SEED = 12345  # every evaluate draws its eval attacks from this seed's stream


class DivergenceError(RuntimeError):
    """Non-finite logits or loss in training, named by seed, epoch and batch, with
    the seed's last finite loss."""


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
        check_real(self.lr, "lr", "[0, inf)")
        check_real(self.momentum, "momentum", "[0, 1)")
        check_unique([name for name, _ in self.eval_attacks], "eval_attacks name")


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
    """One momentum-SGD update of a network or a stack; mutates and returns (weights, velocity).
    Every argument is checked before any layer changes."""
    check_real(lr, "lr", "[0, inf)")
    check_real(momentum, "momentum", "[0, 1)")
    if len(grads) != len(weights) or len(velocity) != len(weights):
        raise ParameterError("weights, grads, velocity must have equal layer counts")
    for i, w in enumerate(weights):
        check_shape(grads[i], w.shape, f"grads[{i}]")
        check_shape(velocity[i], w.shape, f"velocity[{i}]")
    for w, g, v in zip(weights, grads, velocity):
        v *= momentum
        v += g
        w -= lr * v
    return weights, velocity


def _epoch_rngs(seed: int, epoch: int):
    children = np.random.SeedSequence(entropy=seed, spawn_key=(epoch,)).spawn(2)
    return (np.random.Generator(np.random.PCG64(c)) for c in children)


def _batch_step(weights, batch: LabeledBatch, cfg: TrainConfig, epoch: int,
                attack_rng) -> tuple:
    """One gradient computation; returns (loss, weight_grads).

    For a stack, attack_rng holds one generator per seed and the loss has
    one value per seed.  Non-finite logits or loss raise NonFiniteError.
    """
    fwd, bwd, attack = ((forward_stack, backward_stack, pgd_stack) if weights[0].ndim == 3
                        else (forward, backward, pgd))
    obj = cfg.objective
    clean = fwd(weights, batch.inputs)
    adv = None
    if obj.needs_attack:
        adv = fwd(weights, attack(weights, batch, cfg.attack, attack_rng, clean_trace=clean))
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

    check_finite(loss, "loss", ndim=0)
    grads = bwd(weights, clean, clean_grad)
    if adv is not None:
        grads = [a + b for a, b in zip(grads, bwd(weights, adv, adv_grad))]
    return loss, grads


def evaluate(weights: list, data: DatasetHandle, eval_attacks=(),
             epoch: int = 0, epoch_wall_ms: float = 0.0) -> MetricsRecord:
    """Full-split metrics: risks, adversarial accuracies, radius estimates.

    Radius estimates (and hence gamma_ce and the complexity bounds) are
    computed on the training split.  Undefined metrics stay None.  Both
    splits run in the blocks of core.row_blocks, and only their n x K
    logits and each attack's per-row correct mask outlive a block.  A test
    block's one forward gives its logits and every eval attack's clean start.

    Each eval attack draws from its own generator, seeded EVAL_ATTACK_SEED,
    block after block, so its output is that of one pgd call on the whole
    split; a repeated name is a ParameterError.  Block logits equal
    the whole split's only where neither gemm takes OpenBLAS's small-matrix
    path (0.3.31: M*N <= 1200, M rows, N outputs), as in pgd: at 10 classes
    a 784-d split's 166-167-row blocks keep its bits, but at 4 or 2 classes
    their last-layer gemm gives others (4,000 and about 3,980 of a
    4000 x 784 split's logit rows differ).
    """
    check_unique([name for name, _ in eval_attacks], "eval_attacks name")
    k = weights[-1].shape[0]
    train_logits = np.empty((data.train.n, k))
    for rows in row_blocks(data.train.inputs):
        train_logits[rows] = forward(weights, data.train.inputs[rows]).logits
    test = data.test
    test_logits = np.empty((test.n, k))
    adv_correct = {name: np.empty(test.n, dtype=bool) for name, _ in eval_attacks}
    rngs = [make_rng(EVAL_ATTACK_SEED) for _ in eval_attacks]
    for rows in row_blocks(test.inputs):
        block = LabeledBatch(test.inputs[rows], test.labels[rows], test.num_classes)
        trace = forward(weights, block.inputs)
        test_logits[rows] = trace.logits
        for (name, spec), rng in zip(eval_attacks, rngs):
            adv = pgd(weights, block, spec, rng, clean_trace=trace)
            adv_correct[name][rows] = correct_mask(forward(weights, adv).logits, block.labels)
    train_report = risk_from_logits(train_logits, data.train.labels)
    test_report = risk_from_logits(test_logits, test.labels)
    adv_acc = {name: float(mask.mean()) for name, mask in adv_correct.items()}

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


def check_fit(cfg: TrainConfig, data: DatasetHandle) -> TrainConfig:
    """cfg, unless the model's first or last width does not fit the dataset (ParameterError)."""
    widths = cfg.model.layer_widths
    if data.train.dim != widths[0]:
        raise ParameterError(f"model.widths: first width {widths[0]} must match the "
                             f"dataset dimension {data.train.dim}")
    if data.train.num_classes != widths[-1]:
        raise ParameterError(f"model.widths: last width {widths[-1]} must match the "
                             f"class count {data.train.num_classes}")
    return cfg


def train(cfg: TrainConfig, data: DatasetHandle):
    """Run the full training loop; returns (final_weights, history), evaluated
    after the epochs of metric_epochs(cfg.epochs, cfg.metrics_every)."""
    return _train([cfg], data, None)[0]


def train_stack(cfg: TrainConfig, data: DatasetHandle, seeds, record_epochs=None) -> list:
    """Train cfg under each seed (setting seed and model.seed) in lockstep; returns
    (final_weights, history) per seed, each equal to its own train() run.
    A blow-up in any seed raises DivergenceError naming that seed.

    `record_epochs` is the set of epochs to evaluate after; it defaults to
    metric_epochs(cfg.epochs, cfg.metrics_every).  A sweep passes the
    union of several budgets' epochs to read them off one run.
    """
    if len(seeds) == 0:
        raise ParameterError("a stack needs at least one seed")
    return _train([dataclasses.replace(cfg, seed=s, model=dataclasses.replace(cfg.model, seed=s))
                   for s in seeds], data, record_epochs)


def _train(cfgs: list, data: DatasetHandle, record_epochs) -> list:
    """The loop of train and train_stack: cfgs differ only in seed and model.seed."""
    cfg = cfgs[0]
    check_fit(cfg, data)
    seeds = [c.seed for c in cfgs]
    weights = [stack_of(layer) for layer in zip(*(init_weights(c.model) for c in cfgs))]
    velocity = [np.zeros_like(w) for w in weights]
    if record_epochs is None:
        record_epochs = metric_epochs(cfg.epochs, cfg.metrics_every)
    histories = [[] for _ in cfgs]
    losses = None  # each seed's loss at the last finished batch
    for epoch in range(1, cfg.epochs + 1):
        shuffle_rngs, attack_rngs = zip(*(_epoch_rngs(seed, epoch) for seed in seeds))
        t0 = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):  # DivergenceError reports it
            for index, batch in enumerate(batches(data.train, cfg.batch_size,
                                                  stack_of(shuffle_rngs))):
                try:
                    loss, grads = _batch_step(weights, batch, cfg, epoch, stack_of(attack_rngs))
                except NonFiniteError as err:
                    raise _diverged(err, err.part, seeds, losses,
                                    f"epoch {epoch}, batch {index}") from err
                losses = np.atleast_1d(loss)
                sgd_step(weights, grads, velocity, cfg.lr, cfg.momentum)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            if epoch in record_epochs:
                for part, (history, w) in enumerate(zip(histories, _networks(weights))):
                    try:
                        history.append(evaluate(w, data, cfg.eval_attacks,
                                                epoch=epoch, epoch_wall_ms=wall_ms))
                    except NonFiniteError as err:
                        raise _diverged(err, part, seeds, losses,
                                        f"epoch {epoch}, evaluation") from err
    return list(zip(_networks(weights), histories))


def _diverged(err: NonFiniteError, part: int, seeds: list, losses, where: str):
    """The DivergenceError of seed number `part` of the stack, ending with its loss
    at the last finished batch (losses holds one per seed, None before the first)."""
    last = "no finite loss yet" if losses is None else f"last finite loss {float(losses[part])!r}"
    return DivergenceError(f"seed {seeds[part]} diverged at {where}: {err}; {last}")


def _networks(weights: list) -> list:
    """Each seed's network (list of matrices) of a stack, in seed order."""
    return [list(w) for w in zip(*(seeds_of(w) for w in weights))]
