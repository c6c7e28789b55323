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
from .attacks import AttackSpec, eval_attack_pair
from .core import ParameterError, check_count
from .data import DatasetHandle, blob_dataset, load_array, load_idx
from .fisher_rao import bounds_of, radius_estimates_from_logits
from .loat import LoatSchedule
from .mlp import MlpConfig, save_checkpoint
from .objectives import ObjectiveSpec
from .trainer import TrainConfig, check_fit, train


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


# The JSON types a config number may take, by the type of its field's default.
_NUMBER = {int: int, float: (int, float)}


def _field(cfg: dict, field: str, types, where: str, default=None):
    """cfg[field], an instance of `types`; required unless a default is given."""
    if field not in cfg and default is None:
        raise ConfigError(f"{where}.{field}: missing required field")
    value = cfg.get(field, default)
    if not isinstance(value, types):
        want = getattr(types, "__name__", "a number")
        raise ConfigError(f"{where}.{field}: expected {want}, got {type(value).__name__}")
    return value


def _build(cls, section: dict, where: str, renames=()):
    section = dict(section)
    for src, dst in renames:
        if src in section:
            section[dst] = section.pop(src)
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(section) - set(defaults)
    if unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    for name in section:
        if type(defaults[name]) in _NUMBER:  # exact type: bool defaults are not numbers
            _field(section, name, _NUMBER[type(defaults[name])], where)
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
    cfg = json.loads(_read_input("--config", Path(path).read_text))
    if not isinstance(cfg, dict):
        raise ConfigError(f"--config: expected an object, got {type(cfg).__name__}")
    return cfg


# Synthetic dataset fields and their defaults, in blob_dataset's argument order.
_SYNTHETIC = {"seed": 0, "n_train": 1000, "n_test": 500, "d": 16, "K": 4, "spread": 0.08}


def build_dataset(cfg: dict) -> DatasetHandle:
    kind = _field(cfg, "kind", str, "dataset")
    if kind == "synthetic":
        try:
            return blob_dataset(*(_field(cfg, name, _NUMBER[type(default)], "dataset", default)
                                  for name, default in _SYNTHETIC.items()))
        except ParameterError as exc:
            raise ConfigError(f"dataset: {exc}") from exc
    if kind == "idx":
        trainb, testb = (_read_input("dataset", load_idx,
                                     _field(cfg, f"{split}_images", str, "dataset"),
                                     _field(cfg, f"{split}_labels", str, "dataset"),
                                     cfg.get(f"{split}_limit")) for split in ("train", "test"))
        return DatasetHandle(trainb, testb, name=cfg.get("name", "idx"), source="idx-files")
    raise ConfigError(f"dataset.kind: unknown kind {kind!r}")


# Config sections: the spec each one builds and its key renames.
_SECTIONS = {
    "model": (MlpConfig, [("widths", "layer_widths")]),
    "objective": (ObjectiveSpec, [("lambda", "lam")]),
    "attack": (AttackSpec, [("epsilon", "eps")]),
    "schedule": (LoatSchedule, [("E1", "e1"), ("E2", "e2")]),
}


def _build_sections(cfg: dict, names) -> dict:
    built = {}
    for name in names:
        cls, renames = _SECTIONS[name]
        built[name] = _build(cls, _field(cfg, name, dict, "config", {}), name, renames)
    return built


def _with_train_fields(cfg: dict, built: dict) -> dict:
    """built plus cfg's train section, whose keys may not replace built ones."""
    train_fields = _field(cfg, "train", dict, "config", {})
    clash = sorted(set(train_fields) & set(built))
    if clash:
        raise ConfigError(f"train: {clash} belong in their own sections, not in train")
    return {**built, **train_fields}


def build_train_config(cfg: dict) -> TrainConfig:
    _field(cfg, "model", dict, "config")
    built = _build_sections(cfg, ("model", "objective", "attack", "schedule"))
    built["eval_attacks"] = eval_attack_pair(built["attack"])
    return _build(TrainConfig, _with_train_fields(cfg, built), "train")


def _content_hash(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _sweep_spec(cfg: dict) -> sweep_mod.SweepSpec:
    grid = _field(cfg, "grid", dict, "config")
    built = _build_sections(cfg, ("attack", "schedule"))
    for name in ("widths", "lambdas", "seeds", "epochs_list"):
        built[name] = tuple(_field(grid, name, list, "grid"))
    return _build(sweep_mod.SweepSpec, _with_train_fields(cfg, built), "grid")


def _run_config(config_path, out_dir, build, run, **manifest_extra) -> int:
    """The run path of train and sweep: read the config, build its dataset and spec with
    build(raw, data) (input errors come before --out exists), create --out,
    run(spec, data, out), write manifest.json."""
    raw = _read_config(config_path)
    data = build_dataset(_field(raw, "dataset", dict, "config"))
    spec = build(raw, data)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run(spec, data, out)
    fingerprint = {"name": data.name, "source": data.source, "n_train": data.train.n,
                   "n_test": data.test.n, "d": data.train.dim, "K": data.train.num_classes}
    manifest = {"schema_version": sweep_mod.CSV_SCHEMA_VERSION, "config": raw,
                "dataset_fingerprint": _content_hash(fingerprint),
                "config_hash": _content_hash(raw), **manifest_extra}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return 0


def cmd_train(config_path, out_dir) -> int:
    def run(cfg, data, out):
        weights, history = train(cfg, data)
        widths = cfg.model.layer_widths
        width = widths[1] if len(widths) > 2 else widths[0]
        lam = cfg.objective.lam if cfg.objective.kind == "mixture" else None
        rows = [sweep_mod.record_row(rec, f"train_s{cfg.seed}", width, lam, cfg.seed,
                                     cfg.epochs) for rec in history]
        sweep_mod.write_csv(rows, out / "history.csv")
        save_checkpoint(weights, out / "final.ckpt")

    def build(raw, data):
        cfg = build_train_config(raw)
        check_fit(cfg, data)
        return cfg
    return _run_config(config_path, out_dir, build, run)


def cmd_sweep(config_path, out_dir, jobs: int) -> int:
    check_count(jobs, "jobs")

    def run(spec, data, out):
        sweep_mod.write_csv(sweep_mod.run_sweep(spec, data, jobs=jobs), out / "sweep.csv")
    return _run_config(config_path, out_dir, lambda raw, data: _sweep_spec(raw), run,
                       metrics_cadence=sweep_mod.METRICS_CADENCE)


def cmd_correlate(csv_path, regime) -> int:
    rows = _read_input("csv", sweep_mod.read_csv, csv_path)
    report = sweep_mod.correlate(rows, regime)
    print(json.dumps(dataclasses.asdict(report), indent=2))
    return 0


def cmd_bounds(dump_path) -> int:
    logits, labels, k = _read_input("dump", load_array, dump_path)
    if k != logits.shape[1]:
        raise ConfigError(f"dump: header K={k} but the logits have {logits.shape[1]} columns")
    est = radius_estimates_from_logits(logits, labels)
    names = ("n", "n_correct", "n_wrong", "gamma_hat", "gamma_hat_c", "gamma_hat_m")
    report = {name: getattr(est, name) for name in names}
    report["gamma_ce"], report["bound_lower"], report["bound_upper"] = bounds_of(est, k)
    print(json.dumps(report, indent=2))
    return 0


_FIG2_BODY = """
for width, group in adv.groupby("width"):
    pts = group.dropna(subset=["gamma_hat_c", "gamma_hat_m"])
    slope, intercept = np.polyfit(pts["gamma_hat_c"], pts["gamma_hat_m"], 1)
    ax.scatter(pts["gamma_hat_c"], pts["gamma_hat_m"], label=f"width={width} slope={slope:.3f}", s=12)
    xs = np.linspace(pts["gamma_hat_c"].min(), pts["gamma_hat_c"].max(), 2)
    ax.plot(xs, slope * xs + intercept, "--")
ax.set_xlabel("gamma_hat (correct subset)")
ax.set_ylabel("gamma_hat (misclassified subset)")
"""

# fig3 and fig4: per budget, mean gamma_ce and gap at the runs' last epochs against {x}
_FINALS_BODY = """
finals = adv.sort_values("epoch").groupby("run_id").tail(1)
for budget, group in finals.groupby("epoch_budget"):
    agg = group.groupby("{x}")[["gamma_ce", "gap_ce"]].mean()
    ax.plot(agg.index, agg["gamma_ce"], marker="o", label=f"gamma_ce (budget {{budget}})")
    ax.plot(agg.index, agg["gap_ce"], marker="x", label=f"gap (budget {{budget}})")
ax.set_xlabel("{xlabel}")
"""

# Each figure's script body and the columns a CSV row must fill to be plotted.
_FIGURES = {
    "fig2": (_FIG2_BODY, ["width", "gamma_hat_c", "gamma_hat_m"]),
    "fig3": (_FINALS_BODY.format(x="lambda", xlabel="trade-off factor lambda"),
             ["lambda", "gamma_ce", "gap_ce"]),
    "fig4": (_FINALS_BODY.format(x="width", xlabel="hidden units"), ["width", "gamma_ce", "gap_ce"]),
}


def cmd_plotscript(csv_path, figure, out_dir) -> int:
    rows = _read_input("csv", sweep_mod.read_csv, csv_path)  # validates the schema
    body, needed = _FIGURES[figure]
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
{body}
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
    p_train.set_defaults(run=lambda a: cmd_train(a.config, a.out))

    p_sweep = sub.add_parser("sweep", help="run a sweep grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(run=lambda a: cmd_sweep(a.config, a.out, a.jobs))

    p_corr = sub.add_parser("correlate", help="correlate gamma_ce with the gap")
    p_corr.add_argument("csv")
    p_corr.add_argument("--regime", choices=["early", "late"], required=True)
    p_corr.set_defaults(run=lambda a: cmd_correlate(a.csv, a.regime))

    p_bounds = sub.add_parser("bounds", help="complexity bounds from a logit dump")
    p_bounds.add_argument("dump")
    p_bounds.set_defaults(run=lambda a: cmd_bounds(a.dump))

    p_plot = sub.add_parser("plotscript", help="emit a plotting script")
    p_plot.add_argument("csv")
    p_plot.add_argument("--figure", choices=sorted(_FIGURES), required=True)
    p_plot.add_argument("--out", default=".")
    p_plot.set_defaults(run=lambda a: cmd_plotscript(a.csv, a.figure, a.out))

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, ParameterError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
