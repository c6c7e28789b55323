"""Seed stacks: the seeds of one config trained in lockstep on arrays with a
leading stack axis give each seed the bits of its own 2-D run."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advlab import trainer
from advlab.attacks import AttackSpec, pgd, pgd_stack
from advlab.core import ParameterError, ShapeError, check_labels, make_rng
from advlab.data import LabeledBatch, blob_dataset
from advlab.loat import LoatSchedule
from advlab.mlp import MlpConfig, backward, forward, forward_stack, init_weights
from advlab.objectives import ObjectiveSpec
from advlab.trainer import DivergenceError, TrainConfig, _batch_step, train, train_stack

DATA = blob_dataset(4, 24, 12, 5, 3, 0.3)
OBJECTIVES = {"mixture-0": ObjectiveSpec(kind="mixture", lam=0.0),
              "mixture-0.5": ObjectiveSpec(kind="mixture", lam=0.5),
              "mixture-1": ObjectiveSpec(kind="mixture", lam=1.0),
              "trades": ObjectiveSpec(kind="trades", beta=3.0)}


def strip(history):
    return [dataclasses.replace(rec, epoch_wall_ms=0.0) for rec in history]


@st.composite
def stack_configs(draw):
    """S in 1..4 configs that differ only in their seeds: 1 or 2 hidden layers, every
    objective, LOAT variant, attack norm and random start, over 5 epochs that cross
    the early (1, 2), middle (3) and late (4, 5) phases."""
    size = draw(st.integers(1, 4))
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=size, max_size=size, unique=True))
    widths = [5, 6, 3] if draw(st.booleans()) else [5, 6, 4, 3]
    p = draw(st.sampled_from(["inf", "two"]))
    attack = AttackSpec(p=p, eps=0.1 if p == "inf" else 0.5, alpha=0.03 if p == "inf" else 0.2,
                        k=2, random_start=draw(st.booleans()))
    base = TrainConfig(model=MlpConfig(widths),
                       objective=OBJECTIVES[draw(st.sampled_from(sorted(OBJECTIVES)))],
                       attack=attack,
                       schedule=LoatSchedule(e1=2, e2=4, tau=0.8, gamma=0.4,
                                             variant=draw(st.sampled_from(["LORE", "SLORE",
                                                                           "OFF"]))),
                       epochs=5, batch_size=8,
                       eval_attacks=(("fgsm", AttackSpec(eps=0.1, alpha=0.1, k=1)),
                                     ("pgd", attack)))
    return [dataclasses.replace(base, seed=s, model=MlpConfig(widths, seed=s + 1))
            for s in seeds]


class TestStackedEqualsSeparate:
    @settings(deadline=None, database=None, max_examples=30)
    @given(stack_configs())
    def test_train_stack_bit_identical_to_train(self, cfgs):
        runs = train_stack(cfgs, DATA)
        assert len(runs) == len(cfgs)
        for cfg, (weights, history) in zip(cfgs, runs):
            want_weights, want_history = train(cfg, DATA)
            assert all(w.shape == v.shape and np.array_equal(w, v)
                       for w, v in zip(weights, want_weights))
            assert strip(history) == strip(want_history)

    @settings(deadline=None, database=None, max_examples=60)
    @given(stack_configs(), st.integers(1, 5), st.integers(0, 2**16))
    def test_batch_step_bit_identical_per_seed(self, cfgs, epoch, draw_seed):
        # every seed its own weights, batch (rows and labels) and attack generator
        cfg, seeds = cfgs[0], [c.seed for c in cfgs]
        weights = [init_weights(c.model) for c in cfgs]
        order = make_rng(draw_seed).permuted(np.tile(np.arange(DATA.train.n), (len(cfgs), 1)),
                                             axis=1)[:, :8]
        parts = [LabeledBatch(DATA.train.inputs[i], DATA.train.labels[i], 3) for i in order]
        rngs = [make_rng(s) for s in seeds]
        want_rngs = [make_rng(s) for s in seeds]
        stacked = [np.stack(layer) for layer in zip(*weights)]
        batch = LabeledBatch(np.stack([b.inputs for b in parts]),
                             np.stack([b.labels for b in parts]), 3)
        loss, grads = _batch_step(stacked, batch, cfg, epoch, rngs)
        for s in range(len(cfgs)):
            want_loss, want_grads = _batch_step(weights[s], parts[s], cfg, epoch, want_rngs[s])
            assert loss[s] == want_loss
            assert all(np.array_equal(g[s], w) for g, w in zip(grads, want_grads))
            assert rngs[s].bit_generator.state == want_rngs[s].bit_generator.state

    @pytest.mark.parametrize("random_start", [False, True])
    def test_pgd_stack_slices_equal_pgd(self, random_start):
        spec = AttackSpec(p="two", eps=0.5, alpha=0.2, k=3, random_start=random_start)
        weights = [init_weights(MlpConfig([5, 7, 3], seed=s)) for s in (2, 9, 4)]
        stacked = [np.stack(layer) for layer in zip(*weights)]
        batch = LabeledBatch(np.stack([DATA.test.inputs] * 3),
                             np.stack([DATA.test.labels] * 3), 3)
        got = pgd_stack(stacked, batch, spec, [make_rng(s) for s in (5, 6, 7)])
        for s, (w, seed) in enumerate(zip(weights, (5, 6, 7))):
            assert np.array_equal(got[s], pgd(w, DATA.test, spec, make_rng(seed)))


class TestStackChecks:
    @pytest.mark.parametrize("p", ["inf", "two"])
    def test_pgd_stack_needs_one_generator_per_seed(self, p):
        spec = AttackSpec(p=p, eps=0.5, alpha=0.2, k=1, random_start=True)
        stacked = [np.stack(layer) for layer in zip(*(init_weights(MlpConfig([5, 7, 3], seed=s))
                                                      for s in (2, 9)))]
        batch = LabeledBatch(np.stack([DATA.test.inputs] * 2), np.stack([DATA.test.labels] * 2), 3)
        for rngs in (make_rng(5), [make_rng(5)], [make_rng(s) for s in (5, 6, 7)]):
            with pytest.raises(ParameterError, match="a stack of 2 needs one generator per seed"):
                pgd_stack(stacked, batch, spec, rngs)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_diverging_seed_is_named(self, monkeypatch):
        # seed 7's weights put its largest training logit at 0.9 of the float64
        # limit: the logits stay finite, but its cross-entropy overflows; seed 3
        # trains normally
        def init(model):
            weights = init_weights(model)
            if model.seed == 7:
                top = np.abs(DATA.train.inputs @ weights[-1].T).max()
                weights[-1] *= 0.9 * np.finfo(np.float64).max / top
            return weights

        monkeypatch.setattr(trainer, "init_weights", init)
        cfgs = [TrainConfig(model=MlpConfig([5, 3], seed=s), objective=ObjectiveSpec(lam=0.0),
                            epochs=2, batch_size=8, seed=s) for s in (3, 7)]
        train(cfgs[0], DATA)
        with pytest.raises(DivergenceError, match="seed 7"):
            train(cfgs[1], DATA)
        with pytest.raises(DivergenceError, match="seed 7"):
            train_stack(cfgs, DATA)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blown_up_seed_is_named_with_epoch_and_batch(self, monkeypatch):
        # seed 7, the middle of the stack, has its logits overflow at the first
        # batch; seeds 3 and 5 train normally
        def init(model):
            weights = init_weights(model)
            return [w * 1e160 for w in weights] if model.seed == 7 else weights

        monkeypatch.setattr(trainer, "init_weights", init)
        cfgs = [TrainConfig(model=MlpConfig([5, 6, 3], seed=s), objective=ObjectiveSpec(lam=0.0),
                            epochs=2, batch_size=8, seed=s) for s in (3, 7, 5)]
        with pytest.raises(DivergenceError, match="^seed 7 diverged at epoch 1, batch 0: "
                                                  "logits contains non-finite values$"):
            train_stack(cfgs, DATA)

    @pytest.mark.parametrize("change", [dict(lr=0.2), dict(epochs=3),
                                        dict(model=MlpConfig([5, 4, 3], seed=1))])
    def test_configs_may_differ_only_in_seeds(self, change):
        base = TrainConfig(model=MlpConfig([5, 6, 3], seed=1), epochs=2, batch_size=8, seed=1)
        with pytest.raises(ParameterError, match="seed"):
            train_stack([base, dataclasses.replace(base, **change)], DATA)
        with pytest.raises(ParameterError):
            train_stack([], DATA)

    def test_one_network_functions_refuse_a_stack(self):
        # a stack runs through forward_stack, backward_stack and pgd_stack
        stacked = [np.stack(layer) for layer in zip(*(init_weights(MlpConfig([5, 6, 3], seed=s))
                                                      for s in (1, 2)))]
        trace = forward_stack(stacked, DATA.test.inputs)
        with pytest.raises(ShapeError, match="ndim=3"):
            forward(stacked, DATA.test.inputs)
        with pytest.raises(ShapeError, match="ndim=3"):
            backward(stacked, trace, np.zeros_like(trace.logits))
        with pytest.raises(ShapeError, match="ndim=3"):
            pgd(stacked, DATA.test, AttackSpec(k=1))

    def test_stack_labels_one_row_per_seed(self):
        assert check_labels([[0, 2], [1, 1]], 2, 2, 3).shape == (2, 2)
        with pytest.raises(ShapeError):
            check_labels([0, 2], 2, 2, 3)
        with pytest.raises(ParameterError):
            check_labels([[0, 2], [1, 3]], 2, 2, 3)

    def test_stacked_batch_inputs_range_checked(self):
        inputs = np.full((2, 3, 5), 0.5)
        inputs[1, 2, 4] = 1.5
        with pytest.raises(ParameterError, match=r"\[0, 1\]"):
            LabeledBatch(inputs, np.zeros((2, 3), dtype=np.int64), 3)
