"""Command-line front end.

Subcommands:
  train       run one training config; writes history CSV, checkpoint, manifest
  sweep       run a width/lambda/seed/budget grid; writes a long-format CSV
  correlate   Pearson/Spearman between gamma_ce and the generalization gap
  bounds      radius estimates and complexity bounds from a logit dump
  plotscript  emit a standalone matplotlib script for a figure

Exit codes: 0 success, 1 input error (an invalid config, or an input file
that is missing, unreadable or malformed), 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from . import sweep as sweep_mod
from .attacks import AttackSpec
from .core import ParameterError
from .data import DatasetHandle, blob_dataset, load_array, load_idx
from .fisher_rao import (BoundInputs, UndefinedMetricError, complexity_bounds,
                         gamma_ce, radius_estimates_from_logits)
from .loat import LoatSchedule
from .mlp import MlpConfig, save_checkpoint
from .objectives import ObjectiveSpec
from .trainer import TrainConfig, train


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


def _require(cfg: dict, field: str, types, where: str):
    if field not in cfg:
        raise ConfigError(f"{where}.{field}: missing required field")
    value = cfg[field]
    if not isinstance(value, types):
        raise ConfigError(f"{where}.{field}: expected {types}, got {type(value).__name__}")
    return value


def _build(cls, section: dict, where: str, renames=()):
    section = dict(section)
    for src, dst in renames:
        if src in section:
            section[dst] = section.pop(src)
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(section) - known
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    try:
        return cls(**section)
    except (ParameterError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read_input(what: str, load, *args):
    """load(*args); a file that cannot be read is an input error (exit 1)."""
    try:
        return load(*args)
    except OSError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _read_config(path) -> dict:
    return json.loads(_read_input("--config", Path(path).read_text))


def build_dataset(cfg: dict) -> DatasetHandle:
    kind = _require(cfg, "kind", str, "dataset")
    if kind == "synthetic":
        seed = cfg.get("seed", 0)
        n_train = cfg.get("n_train", 1000)
        n_test = cfg.get("n_test", 500)
        d = cfg.get("d", 16)
        k = cfg.get("K", 4)
        spread = cfg.get("spread", 0.08)
        try:
            return blob_dataset(seed, n_train, n_test, d, k, spread)
        except ParameterError as exc:
            raise ConfigError(f"dataset: {exc}") from exc
    if kind == "idx":
        trainb = _read_input("dataset", load_idx,
                             _require(cfg, "train_images", str, "dataset"),
                             _require(cfg, "train_labels", str, "dataset"),
                             cfg.get("train_limit"))
        testb = _read_input("dataset", load_idx,
                            _require(cfg, "test_images", str, "dataset"),
                            _require(cfg, "test_labels", str, "dataset"),
                            cfg.get("test_limit"))
        return DatasetHandle(trainb, testb, name=cfg.get("name", "idx"), source="idx-files")
    raise ConfigError(f"dataset.kind: unknown kind {kind!r}")


def build_train_config(cfg: dict) -> TrainConfig:
    model = _build(MlpConfig, _require(cfg, "model", dict, "config"),
                   "model", renames=[("widths", "layer_widths")])
    objective = _build(ObjectiveSpec, cfg.get("objective", {}), "objective",
                       renames=[("lambda", "lam")])
    attack = _build(AttackSpec, cfg.get("attack", {}), "attack",
                    renames=[("epsilon", "eps")])
    schedule = _build(LoatSchedule, cfg.get("schedule", {}), "schedule",
                      renames=[("E1", "e1"), ("E2", "e2")])
    tr = dict(cfg.get("train", {}))
    eval_attacks = [("fgsm", AttackSpec(p="inf", eps=attack.eps, alpha=attack.eps, k=1)),
                    ("pgd", AttackSpec(p=attack.p, eps=attack.eps,
                                       alpha=attack.alpha, k=attack.k))]
    return _build(TrainConfig, {
        "model": model, "objective": objective, "attack": attack,
        "schedule": schedule, "eval_attacks": tuple(eval_attacks), **tr,
    }, "train")


def _content_hash(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def cmd_train(config_path, out_dir) -> int:
    raw = _read_config(config_path)
    data = build_dataset(_require(raw, "dataset", dict, "config"))
    cfg = build_train_config(raw)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    weights, history = train(cfg, data)
    widths = cfg.model.layer_widths
    width = widths[1] if len(widths) > 2 else widths[0]
    lam = cfg.objective.lam if cfg.objective.kind == "mixture" else None
    rows = [sweep_mod.record_row(rec, f"train_s{cfg.seed}", width, lam, cfg.seed, cfg.epochs)
            for rec in history]
    sweep_mod.write_csv(rows, out / "history.csv")
    save_checkpoint(weights, out / "final.ckpt")
    manifest = {
        "schema_version": sweep_mod.CSV_SCHEMA_VERSION,
        "config": raw,
        "dataset_fingerprint": _content_hash({
            "name": data.name, "source": data.source,
            "n_train": data.train.n, "n_test": data.test.n,
            "d": data.train.dim, "K": data.train.num_classes,
        }),
        "config_hash": _content_hash(raw),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return 0


def cmd_sweep(config_path, out_dir, jobs: int) -> int:
    raw = _read_config(config_path)
    data = build_dataset(_require(raw, "dataset", dict, "config"))
    grid = _require(raw, "grid", dict, "config")
    attack = _build(AttackSpec, raw.get("attack", {}), "attack",
                    renames=[("epsilon", "eps")])
    schedule = _build(LoatSchedule, raw.get("schedule", {}), "schedule",
                      renames=[("E1", "e1"), ("E2", "e2")])
    spec = _build(sweep_mod.SweepSpec, {
        "widths": tuple(_require(grid, "widths", list, "grid")),
        "lambdas": tuple(_require(grid, "lambdas", list, "grid")),
        "seeds": tuple(_require(grid, "seeds", list, "grid")),
        "epochs_list": tuple(_require(grid, "epochs_list", list, "grid")),
        "attack": attack, "schedule": schedule,
        **raw.get("train", {}),
    }, "grid")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = sweep_mod.run_sweep(spec, data, jobs=jobs)
    sweep_mod.write_csv(rows, out / "sweep.csv")
    manifest = {
        "schema_version": sweep_mod.CSV_SCHEMA_VERSION,
        "config": raw,
        "config_hash": _content_hash(raw),
        "metrics_cadence": "every epoch for budgets <= 10, every 25th otherwise",
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return 0


def cmd_correlate(csv_path, regime) -> int:
    rows = _read_input("csv", sweep_mod.read_csv, csv_path)
    report = sweep_mod.correlate(rows, regime)
    print(json.dumps(dataclasses.asdict(report), indent=2))
    return 0


def cmd_bounds(dump_path) -> int:
    logits, labels, k = _read_input("dump", load_array, dump_path)
    est = radius_estimates_from_logits(logits, labels)
    report = {
        "n": est.n, "n_correct": est.n_correct, "n_wrong": est.n_wrong,
        "gamma_hat": est.gamma_hat, "gamma_hat_c": est.gamma_hat_c,
        "gamma_hat_m": est.gamma_hat_m, "gamma_ce": None,
        "bound_lower": None, "bound_upper": None,
    }
    try:
        g = gamma_ce(est)
        lo, hi = complexity_bounds(BoundInputs(
            n=est.n, n_correct=est.n_correct, n_wrong=est.n_wrong,
            num_classes=k, gamma_hat_m=est.gamma_hat_m, gamma_ce=g))
        report.update(gamma_ce=g, bound_lower=lo, bound_upper=hi)
    except (UndefinedMetricError, ParameterError):
        pass
    print(json.dumps(report, indent=2))
    return 0


_PLOT_BODY = {
    "fig2": """
for width, group in adv.groupby("width"):
    pts = group.dropna(subset=["gamma_hat_c", "gamma_hat_m"])
    slope, intercept = np.polyfit(pts["gamma_hat_c"], pts["gamma_hat_m"], 1)
    ax.scatter(pts["gamma_hat_c"], pts["gamma_hat_m"], label=f"width={width} slope={slope:.3f}", s=12)
    xs = np.linspace(pts["gamma_hat_c"].min(), pts["gamma_hat_c"].max(), 2)
    ax.plot(xs, slope * xs + intercept, "--")
ax.set_xlabel("gamma_hat (correct subset)")
ax.set_ylabel("gamma_hat (misclassified subset)")
""",
    "fig3": """
finals = adv.sort_values("epoch").groupby("run_id").tail(1)
for budget, group in finals.groupby("epoch_budget"):
    agg = group.groupby("lambda")[["gamma_ce", "gap_ce"]].mean()
    ax.plot(agg.index, agg["gamma_ce"], marker="o", label=f"gamma_ce (budget {budget})")
    ax.plot(agg.index, agg["gap_ce"], marker="x", label=f"gap (budget {budget})")
ax.set_xlabel("trade-off factor lambda")
""",
    "fig4": """
finals = adv.sort_values("epoch").groupby("run_id").tail(1)
for budget, group in finals.groupby("epoch_budget"):
    agg = group.groupby("width")[["gamma_ce", "gap_ce"]].mean()
    ax.plot(agg.index, agg["gamma_ce"], marker="o", label=f"gamma_ce (budget {budget})")
    ax.plot(agg.index, agg["gap_ce"], marker="x", label=f"gap (budget {budget})")
ax.set_xlabel("hidden units")
""",
}

_FIGURE_COLUMNS = {
    "fig2": ["width", "gamma_hat_c", "gamma_hat_m"],
    "fig3": ["lambda", "gamma_ce", "gap_ce"],
    "fig4": ["width", "gamma_ce", "gap_ce"],
}


def cmd_plotscript(csv_path, figure, out_dir) -> int:
    rows = _read_input("csv", sweep_mod.read_csv, csv_path)  # validates the schema
    needed = _FIGURE_COLUMNS[figure]
    if not any(all(r.get(c) is not None for c in needed) for r in rows):
        raise ParameterError(f"CSV has no usable rows for {figure} (columns {needed})")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    script = f'''"""Standalone plot script generated from {Path(csv_path).name}."""
import matplotlib.pyplot as plt
import numpy as np
import pandas as pd

df = pd.read_csv({str(Path(csv_path).resolve())!r})
adv = df[df["lambda"].fillna(0) > 0]
fig, ax = plt.subplots(figsize=(7, 5))
{_PLOT_BODY[figure]}
ax.legend(fontsize=7)
fig.tight_layout()
fig.savefig("{figure}.png", dpi=150)
print("wrote {figure}.png")
'''
    path = out / f"plot_{figure}.py"
    path.write_text(script)
    print(str(path))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="advlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep", help="run a sweep grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--jobs", type=int, default=1)

    p_corr = sub.add_parser("correlate", help="correlate gamma_ce with the gap")
    p_corr.add_argument("csv")
    p_corr.add_argument("--regime", choices=["early", "late"], required=True)

    p_bounds = sub.add_parser("bounds", help="complexity bounds from a logit dump")
    p_bounds.add_argument("dump")

    p_plot = sub.add_parser("plotscript", help="emit a plotting script")
    p_plot.add_argument("csv")
    p_plot.add_argument("--figure", choices=["fig2", "fig3", "fig4"], required=True)
    p_plot.add_argument("--out", default=".")

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args.config, args.out)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.out, args.jobs)
        if args.command == "correlate":
            return cmd_correlate(args.csv, args.regime)
        if args.command == "bounds":
            return cmd_bounds(args.dump)
        if args.command == "plotscript":
            return cmd_plotscript(args.csv, args.figure, args.out)
        return 1
    except (ConfigError, ParameterError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
