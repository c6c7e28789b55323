"""Adversarial-training laboratory for bias-free ReLU MLPs: the public names of its
modules, which the README's module map describes."""

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
