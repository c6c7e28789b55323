import dataclasses

import numpy as np
import pytest

from advlab import trainer
from advlab.attacks import AttackSpec, pgd
from advlab.core import ParameterError, ShapeError, make_rng
from advlab.data import LabeledBatch, blob_dataset
from advlab.fisher_rao import (BoundInputs, UndefinedMetricError,
                               complexity_bounds, gamma_ce, radius_estimates)
from advlab.loat import LoatSchedule
from advlab.mlp import MlpConfig, init_weights
from advlab.objectives import ObjectiveSpec, risk
from advlab.trainer import (DivergenceError, MetricsRecord, TrainConfig, _batch_step,
                            evaluate, metric_epochs, sgd_step, train)

from oracles import _batch_step as oracle_batch_step


def blob_data(seed=0, n_train=120, n_test=60, d=5, k=3, spread=0.08):
    return blob_dataset(seed, n_train, n_test, d, k, spread)


def weights_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


class TestSgdStep:
    def test_no_momentum_is_plain_descent(self):
        w = [np.array([[1.0, 2.0]])]
        g = [np.array([[0.5, -1.0]])]
        v = [np.zeros((1, 2))]
        sgd_step(w, g, v, lr=0.1, momentum=0.0)
        assert np.allclose(w[0], [[0.95, 2.1]], atol=1e-15)

    def test_two_steps_constant_gradient(self):
        # v1 = g, v2 = 0.9 g + g; total displacement lr * g * (1 + 1.9)
        w = [np.zeros((1, 1))]
        g = [np.ones((1, 1))]
        v = [np.zeros((1, 1))]
        sgd_step(w, g, v, lr=0.1, momentum=0.9)
        sgd_step(w, g, v, lr=0.1, momentum=0.9)
        assert w[0][0, 0] == pytest.approx(-0.1 * 2.9, abs=1e-15)

    def test_lr_zero_freezes_weights(self):
        w = [make_rng(0).standard_normal((2, 3))]
        before = [w[0].copy()]
        sgd_step(w, [np.ones((2, 3))], [np.zeros((2, 3))], lr=0.0, momentum=0.9)
        assert weights_equal(w, before)

    def test_mismatched_shapes(self):
        with pytest.raises(ShapeError,
                           match=r"^grads\[0\] must have shape \(2, 2\), got \(2, 3\)$"):
            sgd_step([np.zeros((2, 2))], [np.zeros((2, 3))], [np.zeros((2, 2))],
                     lr=0.1, momentum=0.0)

    @pytest.mark.parametrize("lr, momentum, name", [
        (float("nan"), 0.9, "lr"), (float("inf"), 0.9, "lr"), (-0.1, 0.9, "lr"),
        (0.1, float("nan"), "momentum"), (0.1, 1.0, "momentum"), (0.1, -0.5, "momentum")])
    def test_lr_and_momentum_checked(self, lr, momentum, name):
        w = [make_rng(0).standard_normal((2, 3))]
        before = [w[0].copy()]
        with pytest.raises(ParameterError, match=f"^{name} must be a finite real"):
            sgd_step(w, [np.ones((2, 3))], [np.zeros((2, 3))], lr=lr, momentum=momentum)
        assert weights_equal(w, before)

    @pytest.mark.parametrize("bad", ["grads", "velocity"])
    def test_bad_last_layer_changes_no_layer(self, bad):
        # a grad or velocity of the wrong shape in the last layer used to raise (or
        # broadcast) only after the earlier layers had moved
        rng = make_rng(4)
        w = [rng.standard_normal((3, 4)), rng.standard_normal((2, 3))]
        args = {"grads": [np.ones_like(x) for x in w],
                "velocity": [rng.standard_normal(x.shape) for x in w]}
        args[bad][-1] = np.ones((2, 1))
        before = [[x.copy() for x in arrays] for arrays in (w, args["velocity"])]
        with pytest.raises(ShapeError,
                           match=rf"^{bad}\[1\] must have shape \(2, 3\), got \(2, 1\)$"):
            sgd_step(w, args["grads"], args["velocity"], lr=0.1, momentum=0.9)
        for arrays, want in zip((w, args["velocity"]), before):
            assert all(x.tobytes() == y.tobytes() for x, y in zip(arrays, want))

    @pytest.mark.parametrize("grads, velocity", [(1, 2), (2, 1)], ids=["grads", "velocity"])
    def test_mismatched_layer_counts(self, grads, velocity):
        w = [np.zeros((2, 2)), np.zeros((2, 2))]
        with pytest.raises(ParameterError, match="equal layer counts"):
            sgd_step(w, [np.zeros((2, 2))] * grads, [np.zeros((2, 2))] * velocity,
                     lr=0.1, momentum=0.0)


class TestTrainConfig:
    def test_validation(self):
        model = MlpConfig([4, 2])
        with pytest.raises(ParameterError):
            TrainConfig(model=model, epochs=0)
        with pytest.raises(ParameterError):
            TrainConfig(model=model, momentum=1.0)
        with pytest.raises(ParameterError):
            TrainConfig(model=model, lr=-0.1)
        for field in ("epochs", "batch_size", "metrics_every"):
            for bad in (0, 1.5, True, np.float64(2.0)):
                with pytest.raises(ParameterError, match=field):
                    TrainConfig(model=model, **{field: bad})
            assert getattr(TrainConfig(model=model, **{field: np.int64(3)}), field) == 3


class TestTrain:
    def test_dimension_mismatch_rejected(self):
        data = blob_data()
        with pytest.raises(ParameterError):
            train(TrainConfig(model=MlpConfig([7, 3]),
                              objective=ObjectiveSpec(kind="standard")), data)
        with pytest.raises(ParameterError):
            train(TrainConfig(model=MlpConfig([5, 4]),
                              objective=ObjectiveSpec(kind="standard")), data)

    def test_bit_identical_replay(self):
        data = blob_data()
        cfg = TrainConfig(model=MlpConfig([5, 8, 3], seed=1),
                          objective=ObjectiveSpec(kind="mixture", lam=0.5),
                          attack=AttackSpec(eps=0.03, alpha=0.01, k=3,
                                            random_start=True),
                          epochs=3, batch_size=32, seed=11)
        w1, h1 = train(cfg, data)
        w2, h2 = train(cfg, data)
        assert weights_equal(w1, w2)
        for a, b in zip(h1, h2):
            assert dataclasses.replace(a, epoch_wall_ms=0.0) == \
                   dataclasses.replace(b, epoch_wall_ms=0.0)

    def test_seed_changes_trajectory(self):
        data = blob_data()
        base = dict(model=MlpConfig([5, 8, 3], seed=1),
                    objective=ObjectiveSpec(kind="standard"),
                    epochs=2, batch_size=16)
        w1, _ = train(TrainConfig(seed=0, **base), data)
        w2, _ = train(TrainConfig(seed=1, **base), data)
        assert not weights_equal(w1, w2)

    def test_standard_training_fits_tight_blobs(self):
        data = blob_data(seed=2, spread=0.02)
        cfg = TrainConfig(model=MlpConfig([5, 16, 3], seed=0),
                          objective=ObjectiveSpec(kind="standard"),
                          epochs=30, batch_size=32, lr=0.3, seed=0,
                          metrics_every=30)
        weights, history = train(cfg, data)
        assert risk(weights, data.train).accuracy == 1.0
        assert history[-1].clean_test_acc >= 0.95

    def test_adversarial_training_improves_pgd_accuracy(self):
        data = blob_data(seed=3, spread=0.05)
        attack = AttackSpec(eps=0.1, alpha=0.03, k=5)
        base = dict(model=MlpConfig([5, 16, 3], seed=0), attack=attack,
                    epochs=25, batch_size=32, lr=0.3, seed=0, metrics_every=25,
                    eval_attacks=(("pgd", attack),))
        _, h_std = train(TrainConfig(
            objective=ObjectiveSpec(kind="standard"), **base), data)
        _, h_adv = train(TrainConfig(
            objective=ObjectiveSpec(kind="mixture", lam=1.0), **base), data)
        assert h_adv[-1].adv_test_acc["pgd"] >= h_std[-1].adv_test_acc["pgd"]

    def test_trades_objective_runs(self):
        data = blob_data(seed=4)
        cfg = TrainConfig(model=MlpConfig([5, 8, 3], seed=0),
                          objective=ObjectiveSpec(kind="trades", beta=6.0),
                          attack=AttackSpec(eps=0.05, alpha=0.02, k=3),
                          epochs=3, batch_size=32, seed=0, metrics_every=3)
        _, history = train(cfg, data)
        assert np.isfinite(history[-1].clean_train_loss)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_guard(self):
        data = blob_data(seed=5)
        # huge scales overflow float64 logits; the loop must abort with an
        # explicit error rather than keep stepping on inf/nan values
        cfg = TrainConfig(model=MlpConfig([5, 8, 3], seed=0, init_scale=1e150),
                          objective=ObjectiveSpec(kind="standard"),
                          epochs=20, batch_size=8, lr=1e150, seed=0)
        with pytest.raises((DivergenceError, FloatingPointError)):
            train(cfg, data)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("batch_size, where", [(8, "epoch 1, batch 1"),
                                                   (120, "epoch 1, evaluation")])
    def test_blow_up_names_seed_epoch_and_batch(self, batch_size, where, monkeypatch):
        # lr 1e200 overflows the logits of the next forward: the second batch's,
        # or with one batch per epoch the evaluation's; numpy warns of nothing.
        # The message ends with the loss of the one finished batch.
        losses = []

        def batch_step(*args):
            loss, grads = _batch_step(*args)
            losses.append(float(loss))
            return loss, grads

        monkeypatch.setattr(trainer, "_batch_step", batch_step)
        cfg = TrainConfig(model=MlpConfig([5, 8, 3], seed=0),
                          objective=ObjectiveSpec(kind="standard"),
                          epochs=2, batch_size=batch_size, lr=1e200, seed=4)
        with pytest.raises(DivergenceError, match=f"^seed 4 diverged at {where}: "
                                                  "logits contains non-finite values; "
                                                  "last finite loss ") as info:
            train(cfg, blob_data(seed=5))
        assert len(losses) == 1 and np.isfinite(losses[0])
        assert str(info.value).endswith(f"; last finite loss {losses[0]!r}")

    def test_metrics_cadence(self):
        data = blob_data(seed=6)
        cfg = TrainConfig(model=MlpConfig([5, 4, 3], seed=0),
                          objective=ObjectiveSpec(kind="standard"),
                          epochs=7, batch_size=64, seed=0, metrics_every=3)
        _, history = train(cfg, data)
        assert [rec.epoch for rec in history] == [3, 6, 7]
        assert metric_epochs(7, 3) == {3, 6, 7}

    def test_record_epochs_override_cadence(self):
        data = blob_data(seed=6)
        cfg = TrainConfig(model=MlpConfig([5, 4, 3], seed=0),
                          objective=ObjectiveSpec(kind="standard"),
                          epochs=7, batch_size=64, seed=0, metrics_every=3)
        _, default = train(cfg, data)
        _, chosen = train(cfg, data, record_epochs={1, 6, 7})
        assert [rec.epoch for rec in chosen] == [1, 6, 7]
        strip = lambda rec: dataclasses.replace(rec, epoch_wall_ms=0.0)
        assert [strip(r) for r in chosen[1:]] == [strip(r) for r in default[1:]]

    def test_schedule_gate_middle_epochs_bit_exact(self):
        # between E1 and E2 the penalty branch must not touch the update,
        # so runs with the regularizer off and on agree bit for bit there
        data = blob_data(seed=7)
        base = dict(model=MlpConfig([5, 8, 3], seed=1),
                    objective=ObjectiveSpec(kind="mixture", lam=0.5),
                    attack=AttackSpec(eps=0.03, alpha=0.01, k=2),
                    epochs=5, batch_size=32, seed=3, metrics_every=1)
        sched_on = LoatSchedule(e1=1, e2=9, tau=0.5, variant="SLORE")
        _, h_off = train(TrainConfig(schedule=LoatSchedule(variant="OFF"), **base), data)
        _, h_on = train(TrainConfig(schedule=sched_on, **base), data)
        # epoch 1 is in the early phase: trajectories diverge immediately
        assert h_off[0] != h_on[0] or h_off[-1] != h_on[-1]

        sched_never = LoatSchedule(e1=0, e2=9, tau=0.5, variant="SLORE")
        _, h_never = train(TrainConfig(schedule=sched_never, **base), data)
        for a, b in zip(h_off, h_never):
            assert dataclasses.replace(a, epoch_wall_ms=0.0) == \
                   dataclasses.replace(b, epoch_wall_ms=0.0)


def evaluate_oracle(weights, data, eval_attacks, attack_seed=12345):
    """evaluate() as a separate forward per use: risk() per split, each
    eval attack forwarding the clean test split itself, and the radius
    estimates forwarding the training split once more."""
    train_report = risk(weights, data.train)
    test_report = risk(weights, data.test)
    adv_acc = {}
    for name, spec in eval_attacks:
        adv = pgd(weights, data.test, spec, make_rng(attack_seed))
        adv_acc[name] = risk(weights, LabeledBatch(adv, data.test.labels,
                                                   data.test.num_classes)).accuracy
    est = radius_estimates(weights, data.train)
    g_ce = lo = hi = None
    try:
        g_ce = gamma_ce(est)
        lo, hi = complexity_bounds(BoundInputs(
            n=est.n, n_correct=est.n_correct, n_wrong=est.n_wrong,
            num_classes=data.train.num_classes,
            gamma_hat_m=est.gamma_hat_m, gamma_ce=g_ce))
    except (UndefinedMetricError, ParameterError):
        pass
    return MetricsRecord(
        epoch=0, clean_train_loss=train_report.mean_loss,
        clean_train_acc=train_report.accuracy, clean_test_loss=test_report.mean_loss,
        clean_test_acc=test_report.accuracy, adv_test_acc=adv_acc,
        gamma_hat=est.gamma_hat, gamma_hat_c=est.gamma_hat_c, gamma_hat_m=est.gamma_hat_m,
        gamma_ce=g_ce, bound_lower=lo, bound_upper=hi, epoch_wall_ms=0.0)


class TestEvaluate:
    @pytest.mark.parametrize("p", ["inf", "two"])
    @pytest.mark.parametrize("random_start", [False, True])
    @pytest.mark.parametrize("track_best", [False, True])
    def test_equals_one_forward_per_use(self, p, random_start, track_best):
        data = blob_data(seed=11, spread=0.3)
        weights = init_weights(MlpConfig([5, 7, 3], seed=4))
        attacks = (("fgsm", AttackSpec(p="inf", eps=0.06, alpha=0.06, k=1)),
                   ("pgd", AttackSpec(p=p, eps=0.06, alpha=0.02, k=4,
                                      random_start=random_start, track_best=track_best)),
                   ("none", AttackSpec(eps=0.0)))
        assert evaluate(weights, data, attacks) == evaluate_oracle(weights, data, attacks)

    def test_zero_model_metrics(self):
        data = blob_data(seed=8, k=3)
        weights = init_weights(MlpConfig([5, 3], seed=0, init_scale=0.0))
        rec = evaluate(weights, data)
        assert rec.clean_train_loss == pytest.approx(np.log(3.0), abs=1e-12)
        assert rec.gamma_hat == pytest.approx(0.0, abs=1e-15)
        # gamma_hat_m is zero for all-zero logits, so the relative gap and
        # bounds must be reported undefined rather than zero
        assert rec.gamma_ce is None
        assert rec.bound_lower is None and rec.bound_upper is None

    def test_adv_accuracies_keyed_by_name(self):
        data = blob_data(seed=9)
        weights = init_weights(MlpConfig([5, 6, 3], seed=1))
        rec = evaluate(weights, data, eval_attacks=(
            ("fgsm", AttackSpec(eps=0.05, alpha=0.05, k=1)),
            ("pgd", AttackSpec(eps=0.05, alpha=0.02, k=5))))
        assert set(rec.adv_test_acc) == {"fgsm", "pgd"}
        clean_acc = risk(weights, data.test).accuracy
        assert rec.adv_test_acc["pgd"] <= clean_acc + 1e-12

    def test_bounds_populated_when_both_subsets_exist(self):
        data = blob_data(seed=10)
        weights = init_weights(MlpConfig([5, 6, 3], seed=2))
        rec = evaluate(weights, data)
        if rec.gamma_hat_m is not None and rec.gamma_hat_m > 0 \
                and rec.gamma_hat_c is not None:
            assert rec.bound_lower is not None
            assert rec.bound_upper is not None
            assert rec.bound_lower <= rec.bound_upper


class TestBatchStepOracle:
    """_batch_step equals, bit for bit, the step kept verbatim in oracles.py."""

    OBJECTIVES = {"standard": ObjectiveSpec(kind="standard"),
                  "mixture-0": ObjectiveSpec(kind="mixture", lam=0.0),
                  "mixture-0.5": ObjectiveSpec(kind="mixture", lam=0.5),
                  "mixture-1": ObjectiveSpec(kind="mixture", lam=1.0),
                  "trades": ObjectiveSpec(kind="trades", beta=3.0)}
    ATTACKS = (AttackSpec(p="inf", eps=0.1, alpha=0.03, k=3),
               AttackSpec(p="two", eps=0.5, alpha=0.2, k=3, random_start=True))

    @pytest.mark.parametrize("variant", ["LORE", "SLORE", "OFF"])
    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    def test_equals_oracle(self, objective, variant):
        data = blob_data(seed=3, n_train=24, spread=0.3)
        batch = data.train
        sched = LoatSchedule(e1=2, e2=4, tau=0.8, gamma=0.4, variant=variant)
        for widths in ([5, 6, 3], [5, 6, 4, 3]):
            weights = init_weights(MlpConfig(widths, seed=2))
            for attack in self.ATTACKS:
                cfg = TrainConfig(model=MlpConfig(widths), objective=self.OBJECTIVES[objective],
                                  attack=attack, schedule=sched)
                for epoch in range(1, 6):  # early, early at e1, middle, late at e2, late
                    rng, want_rng = make_rng(epoch), make_rng(epoch)
                    loss, grads = _batch_step(weights, batch, cfg, epoch, rng)
                    want_loss, want_grads = oracle_batch_step(weights, batch, cfg, epoch,
                                                              want_rng)
                    assert loss == want_loss
                    assert len(grads) == len(want_grads)
                    assert all(np.array_equal(g, w) for g, w in zip(grads, want_grads))
                    assert rng.bit_generator.state == want_rng.bit_generator.state
