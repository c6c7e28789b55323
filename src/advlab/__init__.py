"""Adversarial-training laboratory for bias-free ReLU MLPs.

Building blocks: seeded linear algebra (core), dataset handling (data),
MLPs with exact gradients (mlp), training objectives (objectives), PGD
attacks with FGSM as its one-step case (attacks), Fisher-Rao complexity
metrics (fisher_rao), logit-oriented regularization (loat), the training
loop (trainer), and sweep/correlation tooling (sweep) with a CLI front
end (cli).
"""

from .attacks import AttackSpec, pgd, project
from .core import ParameterError, ShapeError, make_rng, softmax_rows
from .data import DatasetHandle, FormatError, LabeledBatch, batches, blob_dataset, load_idx
from .fisher_rao import (BoundInputs, RadiusEstimates, UndefinedMetricError,
                         complexity_bounds, empirical_rademacher, fr_norm_ce,
                         gamma_ce, radius_estimates)
from .loat import LoatSchedule
from .mlp import (ForwardTrace, MlpConfig, backward, forward, init_weights, input_grad,
                  load_checkpoint, save_checkpoint)
from .objectives import (ObjectiveSpec, RiskReport, ce_loss, ce_loss_and_grad,
                         generalization_gap, risk)
from .trainer import (DivergenceError, MetricsRecord, TrainConfig, evaluate,
                      sgd_step, train)

__version__ = "0.1.0"
