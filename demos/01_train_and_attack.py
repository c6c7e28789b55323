"""Train a small MLP on synthetic blobs, then measure attack robustness.

Walks through the basic loop: build a dataset, pick an objective, train
deterministically, and compare clean accuracy against FGSM and PGD
accuracy at a few perturbation budgets.
"""

from advlab import (AttackSpec, LabeledBatch, MlpConfig, ObjectiveSpec,
                    TrainConfig, pgd, risk, train)
from advlab.data import blob_dataset

data = blob_dataset(seed=0, n_train=600, n_test=300, d=6, K=4, spread=0.22)
print(f"dataset: {data.name}, {data.train.n} train / {data.test.n} test")

cfg = TrainConfig(
    model=MlpConfig([6, 32, 4], seed=0),
    objective=ObjectiveSpec(kind="mixture", lam=0.5),
    attack=AttackSpec(eps=0.05, alpha=0.02, k=5, random_start=True),
    epochs=15,
    batch_size=64,
    lr=0.2,
    seed=0,
    metrics_every=5,
)
weights, history = train(cfg, data)

for rec in history:
    print(f"epoch {rec.epoch:3d}  train loss {rec.clean_train_loss:.4f}  "
          f"test acc {rec.clean_test_acc:.3f}")

print()
print("robustness on the test split:")
clean = risk(weights, data.test)
print(f"  clean accuracy          {clean.accuracy:.3f}")
for eps in (0.05, 0.10, 0.20):
    # FGSM is one l-inf PGD step of size eps
    fgsm = AttackSpec(p="inf", eps=eps, alpha=eps, k=1, track_best=False)
    adv_f = pgd(weights, data.test, fgsm)
    acc_f = risk(weights, LabeledBatch(adv_f, data.test.labels,
                                       data.test.num_classes)).accuracy
    spec = AttackSpec(eps=eps, alpha=eps / 4, k=10, track_best=True)
    adv_p = pgd(weights, data.test, spec)
    acc_p = risk(weights, LabeledBatch(adv_p, data.test.labels,
                                       data.test.num_classes)).accuracy
    print(f"  eps {eps:.2f}: fgsm acc {acc_f:.3f}   pgd acc {acc_p:.3f}")

# PGD with best-iterate tracking never finds a weaker point than the
# clean input, so its accuracy is monotone nonincreasing in eps here
