#!/usr/bin/env python3
"""Digests that tell whether two checkouts of advlab compute the same bits.

    python3 tools/bitcheck.py [--src DIR]

Prints one JSON line of SHA-256 digests; run it on two checkouts (or on one
with --src pointing at the other's src/) and compare the lines.  Timing
fields are left out, so equal lines mean equal outputs:

  train_60        weights and per-epoch metric history of 60 runs: objectives
                  standard, mixture lambda 0 / 0.5 / 1 and TRADES, x LOAT
                  variants LORE / SLORE / OFF, x attacks l-inf PGD and l2 PGD
                  with a random start, x 1 or 2 hidden layers; 5 epochs each,
                  evaluated every epoch with the FGSM + PGD eval attacks; the
                  18 runs that attack with l2 PGD (lambda 0.5 / 1 and TRADES)
                  draw an l2 random start in every batch
  train_stack_4   weights and histories of one 4-seed trainer.train_stack call
  attacks         pgd and pgd_stack outputs for l-inf / l2, with and without a
                  random start and track-best, on inputs holding -0.0 entries
                  (4 of its 24 parts draw an l2 random start: pgd and pgd_stack
                  at p="two" with a random start, with and without track-best)
  pgd_blocks      pgd on a 2000 x 784 batch (12 row blocks) and pgd_stack on a
                  2 x 256 x 784 stack (two blocks per seed) through widths
                  [784, 256, 10], l-inf track-best and l2 with a random start
                  (the two l2 parts draw an l2 random start); the l2 outputs
                  differ between OPENBLAS_NUM_THREADS=1 and two threads, so
                  compare lines made at one thread count
  evaluate_blocks trainer.evaluate's record without epoch_wall_ms on the 4000 x 784
                  train and 2000 x 784 test splits of a 10-class blob dataset
                  (24 and 12 row blocks), through widths [784, 256, 10] after
                  one clean epoch, with the eval attacks of the default
                  AttackSpec (track-best FGSM and PGD-10) and an l-inf PGD-10
                  with a random start, and the weights; like pgd_blocks it
                  differs between OPENBLAS_NUM_THREADS=1 and two threads
  loat            loat.loat's penalty and both logit gradients, signs of zeros
                  included, for SLORE / LORE in the early, off and late phases,
                  over all-correct, all-wrong and mixed masks, with and without
                  adversarial logits, for K = 2 and 4, random and tied clean
                  logits (tied ones make the late penalty -0.0), on a matrix and
                  a 3-seed stack
  rademacher      empirical_rademacher's (estimate, stderr) and the generator
                  state after it, for five bit generators, with and without a
                  pending 32-bit half
  rademacher_chunks
                  the same over several sign chunks, under PCG64 and Philox, with
                  and without a pending half: a 3 x 4097 table with 3 * 4095 + 7
                  draws (4095-row chunks of an odd number of words) and a 3 x 5
                  table with 20001 draws (4096-row chunks, the last one odd)
  rademacher_eval the same under PCG64 at the shapes whose chunks are cut
                  into row blocks or kept whole: 4 x 4000 with 20000 draws
                  (perfbench's eval_analysis), 1 x 4000 with 5000 draws
                  (h = 1, whole chunks) and 4 x 60000 with 600 draws
                  (279-row chunks)
  sweep_csv_jobsJ, manifest_jobsJ
                  `advlab sweep` at --jobs J = 1 and 2 on perfbench's
                  sweep_grid config (data seed 11): sweep.csv without
                  epoch_wall_ms, manifest.json
  sweep784_csv_jobsJ
                  sweep.csv without epoch_wall_ms of `advlab sweep` at --jobs
                  J = 1 and 2 at the paper's layer shapes: d=784, K=10, 512/256
                  rows, width 256, lambda 0 and 1, seeds 0-1, one epoch, PGD-3;
                  the two must be equal, as every task runs at one BLAS thread
  correlate       the early and late reports that `advlab correlate` prints for
                  the --jobs 1 sweep.csv
  figures         the fig2.json, fig3.json and fig4.json that `advlab plotscript`
                  writes from the --jobs 1 sweep.csv
  files           the bytes save_checkpoint and dump_array write for fixed inputs
                  (a Fortran-order float32 layer, a transposed matrix holding -0.0,
                  inf and nan), and the arrays, with their C-contiguous and
                  writeable flags, that load_checkpoint, load_array and load_idx
                  (on a fixed IDX image/label pair) read back

Uses only the standard library, numpy and advlab; a full run takes about
12 s on two cores.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

SWEEP_CONFIG = {
    "dataset": {"kind": "synthetic", "seed": 11, "n_train": 600, "n_test": 300, "d": 32,
                "K": 4, "spread": 1.0},
    "grid": {"widths": [16, 64], "lambdas": [0.5, 1.0], "seeds": [0, 1, 2, 3, 4, 5],
             "epochs_list": [3, 8]},
    "attack": {"epsilon": 0.0314, "alpha": 0.0078, "k": 10},
    "schedule": {"variant": "LORE", "E1": 2, "E2": 8},
    "train": {"batch_size": 64},
}
SWEEP784_CONFIG = {
    "dataset": {"kind": "synthetic", "seed": 5, "n_train": 512, "n_test": 256, "d": 784,
                "K": 10, "spread": 1.0},
    "grid": {"widths": [256], "lambdas": [1.0], "seeds": [0, 1], "epochs_list": [1]},
    "attack": {"epsilon": 0.1, "alpha": 0.04, "k": 3},
    "train": {"batch_size": 128},
}


def digest(parts) -> str:
    """SHA-256 over a sequence of arrays (shape and bytes) and reprs of anything else."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def run_parts(weights, history):
    """A run's weights and its records without the timing field."""
    yield from weights
    for rec in history:
        fields = dataclasses.asdict(rec)
        del fields["epoch_wall_ms"]
        yield fields


def state_parts(state):
    """A bit_generator.state dict, arrays (MT19937, Philox, SFC64) kept whole."""
    for key, value in state.items():
        yield key
        yield from state_parts(value) if isinstance(value, dict) else [value]


def train_digests(lab):
    data = lab.data.blob_dataset(5, 120, 60, 10, 3, 1.0)
    attacks = [lab.attacks.AttackSpec(p="inf", eps=0.1, alpha=0.03, k=3),
               lab.attacks.AttackSpec(p="two", eps=0.5, alpha=0.2, k=3, random_start=True)]
    objectives = [lab.objectives.ObjectiveSpec(kind="standard")]
    objectives += [lab.objectives.ObjectiveSpec(lam=lam) for lam in (0.0, 0.5, 1.0)]
    objectives += [lab.objectives.ObjectiveSpec(kind="trades")]

    def config(objective, variant, attack, widths, seed=7):
        return lab.trainer.TrainConfig(
            model=lab.mlp.MlpConfig(widths, seed=seed), objective=objective, attack=attack,
            schedule=lab.loat.LoatSchedule(e1=2, e2=4, variant=variant), epochs=5,
            batch_size=32, seed=seed, eval_attacks=lab.attacks.eval_attack_pair(attack))

    parts = []
    for objective in objectives:
        for variant in ("LORE", "SLORE", "OFF"):
            for attack in attacks:
                for widths in ([10, 12, 3], [10, 12, 8, 3]):
                    parts += run_parts(*lab.trainer.train(
                        config(objective, variant, attack, widths), data))
    stack = lab.trainer.train_stack(config(objectives[3], "LORE", attacks[0], [10, 12, 3]), data,
                                    range(4))
    return {"train_60": digest(parts),
            "train_stack_4": digest(p for run in stack for p in run_parts(*run))}


def attack_digest(lab):
    rng = np.random.default_rng(3)
    inputs = np.where(rng.uniform(size=(48, 10)) < 0.2, -0.0, rng.uniform(size=(48, 10)))
    batch = lab.data.LabeledBatch(inputs, rng.integers(0, 3, size=48), 3)
    nets = [lab.mlp.init_weights(lab.mlp.MlpConfig([10, 12, 3], seed=s)) for s in range(3)]
    stacked = [np.stack(layer) for layer in zip(*nets)]
    stacked_batch = lab.data.LabeledBatch(np.stack([inputs] * 3),
                                          np.stack([batch.labels] * 3), 3)
    parts = []
    for p, eps, alpha in (("inf", 8 / 255, 2 / 255), ("inf", 1.5, 0.5), ("two", 0.5, 0.2)):
        for random_start in (False, True):
            for track_best in (False, True):
                spec = lab.attacks.AttackSpec(p=p, eps=eps, alpha=alpha, k=4,
                                              random_start=random_start, track_best=track_best)
                parts.append(lab.attacks.pgd(nets[0], batch, spec, np.random.default_rng(4)))
                parts.append(lab.attacks.pgd_stack(
                    stacked, stacked_batch, spec, [np.random.default_rng(s) for s in (5, 6, 7)]))
    return digest(parts)


def pgd_blocks_digest(lab):
    rng = np.random.default_rng(9)
    inputs, labels = rng.uniform(size=(2000, 784)), rng.integers(0, 10, size=2000)
    nets = [lab.mlp.init_weights(lab.mlp.MlpConfig([784, 256, 10], seed=s)) for s in (1, 2)]
    stacked = [np.stack(layer) for layer in zip(*nets)]
    stacked_batch = lab.data.LabeledBatch(inputs[:512].reshape(2, 256, 784),
                                          labels[:512].reshape(2, 256), 10)
    parts = []
    for spec in (lab.attacks.AttackSpec(k=3),
                 lab.attacks.AttackSpec(p="two", eps=1.0, alpha=0.25, k=3, random_start=True)):
        parts.append(lab.attacks.pgd(nets[0], lab.data.LabeledBatch(inputs, labels, 10), spec,
                                     np.random.default_rng(4)))
        parts.append(lab.attacks.pgd_stack(stacked, stacked_batch, spec,
                                           [np.random.default_rng(s) for s in (5, 6)]))
    return digest(parts)


def evaluate_blocks_digest(lab):
    # one clean epoch, so that the attacks leave some test rows correct
    data = lab.data.blob_dataset(10, 4000, 2000, 784, 10, 2.0)
    weights, _ = lab.trainer.train(lab.trainer.TrainConfig(
        model=lab.mlp.MlpConfig([784, 256, 10], seed=3),
        objective=lab.objectives.ObjectiveSpec(kind="standard"), epochs=1, seed=3), data)
    spec = lab.attacks.AttackSpec()
    attacks = lab.attacks.eval_attack_pair(spec) + (
        ("pgd_random_start", dataclasses.replace(spec, random_start=True)),)
    return digest(run_parts(weights, [lab.trainer.evaluate(weights, data, attacks)]))


def loat_digest(lab):
    parts = []
    for k in (2, 4):
        rng = np.random.default_rng(k)
        adv, random_clean = rng.standard_normal((2, 3, 12, k))
        labels = rng.integers(0, k, size=(3, 12))
        masks = (np.ones((3, 12), bool), np.zeros((3, 12), bool), rng.uniform(size=(3, 12)) < 0.5)
        # tied clean logits give softmax rows of exactly 1/k, so both subset terms are
        # exact zeros and the late penalty -tau * (0 - 0) is -0.0
        for clean in (random_clean, np.zeros_like(random_clean)):
            for variant in ("SLORE", "LORE"):
                sched = lab.loat.LoatSchedule(e1=1, e2=3, tau=0.7, gamma=0.3, variant=variant)
                for epoch, mask, adv_logits in itertools.product((1, 2, 3), masks, (None, adv)):
                    parts.append(lab.loat.loat(clean[0], labels[0], mask[0], epoch, sched,
                                               None if adv_logits is None else adv[0]))
                    parts.append(lab.loat.loat(clean, labels, mask, epoch, sched, adv_logits))
    # a scalar penalty enters as a 0-d array, so the sign of a zero shows in its bytes
    return digest(np.asarray(a) for result in parts for a in result)


def rademacher_digest(lab, bit_generators, shapes):
    parts = []
    for bit_generator in bit_generators:
        for pending_half in (False, True):
            for h, n, draws in shapes:
                table = np.random.default_rng(n).uniform(-1.0, 3.0, size=(h, n))
                rng = np.random.Generator(bit_generator(17))
                if pending_half:
                    rng.integers(0, 5, dtype=np.int32)
                parts.append(lab.fisher_rao.empirical_rademacher(table, rng, draws))
                parts += state_parts(rng.bit_generator.state)
    return digest(parts)


def sweep_digests(lab, name: str, config: dict, jobs: int, work: Path):
    """(sweep.csv without epoch_wall_ms, manifest.json) digests of `advlab sweep` on
    `config` at --jobs `jobs`, written to work/{name}-jobs{jobs}."""
    path = work / f"{name}.json"
    path.write_text(json.dumps(config))
    out = work / f"{name}-jobs{jobs}"
    with contextlib.redirect_stdout(io.StringIO()):
        code = lab.cli.main(["sweep", "--config", str(path), "--out", str(out),
                             "--jobs", str(jobs)])
    if code != 0:
        raise SystemExit(f"advlab sweep --jobs {jobs} exited {code}")
    with open(out / "sweep.csv", newline="") as f:
        rows = [{k: v for k, v in row.items() if k != "epoch_wall_ms"}
                for row in csv.DictReader(f)]
    return digest(rows), hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()


def correlate_digest(lab, csv_path: Path) -> str:
    parts = []
    for regime in ("early", "late"):
        with contextlib.redirect_stdout(io.StringIO()) as report:
            code = lab.cli.main(["correlate", str(csv_path), "--regime", regime])
        if code != 0:
            raise SystemExit(f"advlab correlate --regime {regime} exited {code}")
        parts.append(report.getvalue())
    return digest(parts)


def figures_digest(lab, csv_path: Path, work: Path) -> str:
    out = work / "figures"
    parts = []
    for figure in ("fig2", "fig3", "fig4"):
        with contextlib.redirect_stdout(io.StringIO()):
            code = lab.cli.main(["plotscript", str(csv_path), "--figure", figure,
                                 "--out", str(out)])
        if code != 0:
            raise SystemExit(f"advlab plotscript --figure {figure} exited {code}")
        parts.append((out / f"{figure}.json").read_bytes())
    return digest(parts)


def files_digest(lab, work: Path) -> str:
    weights = lab.mlp.init_weights(lab.mlp.MlpConfig([6, 5, 4, 3], seed=2))
    weights[1] = np.asfortranarray(weights[1], dtype=np.float32)
    matrix = np.random.default_rng(8).uniform(-1.0, 1.0, size=(4, 7))
    matrix[0, :3] = -0.0, np.inf, np.nan
    checkpoint, dump = work / "model.ckpt", work / "logits.bin"
    lab.mlp.save_checkpoint(weights, checkpoint)
    lab.data.dump_array(matrix.T, np.arange(7) % 3, 3, dump)
    images, labels = work / "images.idx", work / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, 5, 3, 2) + bytes(range(0, 240, 8)))
    labels.write_bytes(struct.pack(">II", 0x801, 5) + bytes([3, 1, 4, 1, 5]))
    batch = lab.data.load_idx(images, labels)
    read = [*lab.mlp.load_checkpoint(checkpoint), *lab.data.load_array(dump)[:2],
            batch.inputs, batch.labels]
    return digest([checkpoint.read_bytes(), dump.read_bytes(), lab.data.load_array(dump)[2],
                   *read, *((a.flags.c_contiguous, a.flags.writeable) for a in read)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the advlab package (default: this checkout's src/)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import advlab.cli  # noqa: F401 - binds the submodules used below
    import advlab as lab

    out = {**train_digests(lab), "attacks": attack_digest(lab),
           "pgd_blocks": pgd_blocks_digest(lab), "evaluate_blocks": evaluate_blocks_digest(lab),
           "loat": loat_digest(lab),
           "rademacher": rademacher_digest(
               lab, (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                     np.random.SFC64, np.random.MT19937),
               ((3, 6, 5000), (4, 300, 9000), (2, 5000, 300), (1, 1, 7))),
           "rademacher_chunks": rademacher_digest(
               lab, (np.random.PCG64, np.random.Philox), ((3, 4097, 3 * 4095 + 7), (3, 5, 20001))),
           "rademacher_eval": rademacher_digest(
               lab, (np.random.PCG64,), ((4, 4000, 20000), (1, 4000, 5000), (4, 60000, 600)))}
    with tempfile.TemporaryDirectory() as tmp:
        for jobs in (1, 2):
            out[f"sweep_csv_jobs{jobs}"], out[f"manifest_jobs{jobs}"] = \
                sweep_digests(lab, "sweep", SWEEP_CONFIG, jobs, Path(tmp))
        csv_path = Path(tmp) / "sweep-jobs1" / "sweep.csv"
        out["correlate"] = correlate_digest(lab, csv_path)
        out["figures"] = figures_digest(lab, csv_path, Path(tmp))
        out["files"] = files_digest(lab, Path(tmp))
        for jobs in (1, 2):
            out[f"sweep784_csv_jobs{jobs}"] = \
                sweep_digests(lab, "sweep784", SWEEP784_CONFIG, jobs, Path(tmp))[0]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
