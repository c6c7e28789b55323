import contextlib
import hashlib
import inspect
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advlab
from advlab import cli
from advlab.attacks import AttackSpec
from advlab.cli import main
from advlab.core import make_rng
from advlab.data import DatasetHandle, LabeledBatch, blob_dataset, dump_array, idx_dataset
from advlab.loat import LoatSchedule
from advlab.mlp import MlpConfig, forward, init_weights, load_checkpoint
from advlab.objectives import ObjectiveSpec
from advlab.sweep import SweepSpec, read_csv
from advlab.trainer import TrainConfig, check_fit, evaluate


def base_config(**overrides):
    cfg = {
        "dataset": {"kind": "synthetic", "seed": 0, "n_train": 60,
                    "n_test": 30, "d": 4, "K": 3, "spread": 0.1},
        "model": {"widths": [4, 6, 3], "seed": 0},
        "objective": {"kind": "mixture", "lambda": 0.5},
        "attack": {"epsilon": 0.05, "alpha": 0.02, "k": 2},
        "train": {"epochs": 2, "batch_size": 32, "seed": 0},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestTrainCommand:
    def test_writes_artifacts(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = read_csv(out / "history.csv")
        assert len(rows) == 2
        weights = load_checkpoint(out / "final.ckpt")
        assert [w.shape for w in weights] == [(6, 4), (3, 6)]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema_version"] == "v1"
        assert "config_hash" in manifest

    def test_history_rows_name_the_run(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = read_csv(out / "history.csv")
        assert [(r["run_id"], r["width"], r["lambda"], r["seed"], r["epoch_budget"],
                 r["epoch"], r["gap_ce"]) for r in rows] == \
               [("train_s0", 6, 0.5, 0, 2, 1, None), ("train_s0", 6, 0.5, 0, 2, 2, None)]

    def test_rerun_reproduces_csv_except_timing(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", str(cfg_path), "--out", str(out1)])
        main(["train", "--config", str(cfg_path), "--out", str(out2)])
        strip = lambda rows: [{k: v for k, v in r.items() if k != "epoch_wall_ms"}
                              for r in rows]
        assert strip(read_csv(out1 / "history.csv")) == \
               strip(read_csv(out2 / "history.csv"))
        assert (out1 / "final.ckpt").read_bytes() == (out2 / "final.ckpt").read_bytes()

    def test_unknown_field_names_section(self, tmp_path, capsys):
        cfg = base_config()
        cfg["model"]["depth"] = 3
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "model" in capsys.readouterr().err

    def test_bad_value_names_field(self, tmp_path, capsys):
        cfg = base_config()
        cfg["objective"]["lambda"] = 2.0
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "objective" in capsys.readouterr().err

    def test_missing_dataset_section(self, tmp_path, capsys):
        cfg = base_config()
        del cfg["dataset"]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "dataset" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 1


class TestSweepCommand:
    def test_writes_sweep_csv(self, tmp_path):
        cfg = {
            "dataset": {"kind": "synthetic", "seed": 0, "n_train": 60,
                        "n_test": 30, "d": 4, "K": 3, "spread": 0.1},
            "grid": {"widths": [4], "lambdas": [0.5], "seeds": [0, 1],
                     "epochs_list": [2]},
            "attack": {"epsilon": 0.05, "alpha": 0.02, "k": 2},
            "train": {"batch_size": 32},
        }
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        # 1 width x {0, 0.5} lambdas x 2 seeds x budget 2 epochs, metrics every epoch
        assert len(rows) == 1 * 2 * 2 * 2
        finals = [r for r in rows if r["epoch"] == 2 and r["lambda"] == 0.5]
        assert all(r["gap_ce"] is not None for r in finals)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blow_up_exits_two_with_one_line_naming_the_seed(self, tmp_path, capsys):
        cfg = {
            "dataset": {"kind": "synthetic", "seed": 0, "n_train": 60,
                        "n_test": 30, "d": 4, "K": 3, "spread": 0.1},
            "grid": {"widths": [4], "lambdas": [0.5], "seeds": [0, 1], "epochs_list": [2]},
            "attack": {"epsilon": 0.05, "alpha": 0.02, "k": 2},
            "train": {"batch_size": 8, "lr": 1e200},
        }
        cfg_path = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("runtime error: seed 0 diverged at epoch 1, batch 1: ")

    def test_missing_grid_is_validation_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {
            "dataset": {"kind": "synthetic", "n_train": 30, "n_test": 30,
                        "d": 4, "K": 2}})
        assert main(["sweep", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "grid" in capsys.readouterr().err


class TestCorrelateCommand:
    def _sweep(self, tmp_path):
        cfg = {
            "dataset": {"kind": "synthetic", "seed": 0, "n_train": 60,
                        "n_test": 30, "d": 4, "K": 3, "spread": 0.15},
            "grid": {"widths": [4, 8], "lambdas": [0.5], "seeds": [0, 1],
                     "epochs_list": [2]},
            "attack": {"epsilon": 0.05, "alpha": 0.02, "k": 2},
            "train": {"batch_size": 32},
        }
        out = tmp_path / "sweepout"
        main(["sweep", "--config", str(write_config(tmp_path, cfg)),
              "--out", str(out)])
        return out / "sweep.csv"

    def test_report_json(self, tmp_path, capsys):
        csv_path = self._sweep(tmp_path)
        code = main(["correlate", str(csv_path), "--regime", "early"])
        captured = capsys.readouterr().out
        if code == 0:
            report = json.loads(captured)
            assert set(report) >= {"pearson_r", "spearman_rho", "n_points",
                                   "epoch_regime", "n_excluded"}
            assert -1.0 <= report["pearson_r"] <= 1.0
        else:
            # small grids can leave too few points with defined metrics;
            # that must surface as a validation failure, not a crash
            assert code == 1

    def test_insufficient_points_exit_one(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        from advlab.sweep import CSV_COLUMNS, write_csv
        row = {c: None for c in CSV_COLUMNS}
        row.update(run_id="r0", width=4, seed=0, epoch_budget=1, epoch=1,
                   gamma_ce=1.0, gap_ce=1.0)
        write_csv([row], path)
        assert main(["correlate", str(path), "--regime", "early"]) == 1


class TestBoundsCommand:
    def test_worked_example(self, tmp_path, capsys):
        # fifty correct rows with gap 1, fifty wrong rows with gap 1:
        # gamma_hat_m = 1, Gamma = 0, K from the dump header
        logits = np.zeros((100, 10))
        logits[:50, 0] = 1.0   # label 0, correct, gap 1
        logits[50:, 1] = 1.0   # label 0, wrong, gap 1
        labels = np.zeros(100, dtype=np.int64)
        path = tmp_path / "logits.bin"
        dump_array(logits, labels, 10, path)
        assert main(["bounds", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_correct"] == 50 and report["n_wrong"] == 50
        assert report["gamma_ce"] == pytest.approx(0.0, abs=1e-12)
        assert report["bound_lower"] == pytest.approx(0.2549240285843747, abs=1e-9)
        assert report["bound_upper"] == pytest.approx(0.39634538482168413, abs=1e-9)

    def test_truncated_dump_exit_one(self, tmp_path, capsys):
        path = tmp_path / "logits.bin"
        dump_array(np.eye(3), np.arange(3), 3, path)
        path.write_bytes(path.read_bytes()[:-1])
        assert main(["bounds", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: dump length")

    def test_undefined_metrics_stay_null(self, tmp_path, capsys):
        logits = np.zeros((4, 3))
        logits[:, 0] = 1.0  # every row correct
        path = tmp_path / "logits.bin"
        dump_array(logits, np.zeros(4, dtype=np.int64), 3, path)
        assert main(["bounds", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gamma_ce"] is None
        assert report["bound_lower"] is None and report["bound_upper"] is None

    @pytest.mark.parametrize("case", ["defined", "all-correct", "gamma_hat_m-zero"])
    def test_same_as_evaluate(self, tmp_path, capsys, case):
        """evaluate and `advlab bounds` on the same training logits report the
        same gamma_ce and bounds, or both leave them undefined."""
        if case == "defined":
            data = blob_dataset(0, 60, 30, 4, 3, 0.1)
            weights = init_weights(MlpConfig([4, 6, 3], seed=0))
        else:
            # one layer W = I: each row's logits are its input
            inputs = np.eye(3)[[0, 1, 2, 0, 1, 2]]
            if case == "gamma_hat_m-zero":
                inputs[3:] = 0.0  # tied logits: rows labelled 1 and 2 are wrong with gap 0
            batch = LabeledBatch(inputs, np.array([0, 1, 2, 0, 1, 2]), 3)
            data = DatasetHandle(batch, batch, name="onehot", source="synthetic")
            weights = [np.eye(3)]
        rec = evaluate(weights, data)
        path = tmp_path / "logits.bin"
        dump_array(forward(weights, data.train.inputs).logits, data.train.labels, 3, path)
        assert main(["bounds", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["gamma_ce"], report["bound_lower"], report["bound_upper"]) == \
               (rec.gamma_ce, rec.bound_lower, rec.bound_upper)
        assert (rec.gamma_ce is None) == (case != "defined")
        assert report["gamma_hat_m"] == rec.gamma_hat_m
        if case == "gamma_hat_m-zero":
            assert report["n_wrong"] == 2 and report["gamma_hat_m"] == 0.0

    def test_bad_dump_exit_one(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        assert main(["bounds", str(path)]) == 1

    def test_header_k_above_logit_columns_exit_one(self, tmp_path, capsys):
        # ln K for K=10 would enter the bounds of a 3-class dump
        logits = make_rng(0).standard_normal((40, 3))
        path = tmp_path / "logits.bin"
        dump_array(logits, np.arange(40) % 3, 10, path)
        assert main(["bounds", str(path)]) == 1
        assert "K=10" in capsys.readouterr().err

    def test_label_at_or_above_header_k_exit_one(self, tmp_path, capsys):
        # header K=2 on 3 logit columns: labels reach 2 >= K
        logits = make_rng(0).standard_normal((40, 3))
        path = tmp_path / "logits.bin"
        dump_array(logits, np.arange(40) % 3, 2, path)
        assert main(["bounds", str(path)]) == 1
        assert "K=2" in capsys.readouterr().err


class TestPlotscriptCommand:
    def _csv(self, tmp_path):
        from advlab.sweep import CSV_COLUMNS, write_csv
        rows = []
        for i in range(4):
            r = {c: None for c in CSV_COLUMNS}
            r.update(run_id=f"r{i}", width=4 + i, seed=0, epoch_budget=2,
                     epoch=2, gamma_hat_c=1.0 + i, gamma_hat_m=2.0 + i,
                     gamma_ce=0.1 * i, gap_ce=0.2 * i)
            r["lambda"] = 0.5
            rows.append(r)
        path = tmp_path / "sweep.csv"
        write_csv(rows, path)
        return path

    @pytest.mark.parametrize("figure", ["fig2", "fig3", "fig4"])
    def test_emits_python_script(self, tmp_path, capsys, figure):
        csv_path = self._csv(tmp_path)
        assert main(["plotscript", str(csv_path), "--figure", figure,
                     "--out", str(tmp_path)]) == 0
        script_path = tmp_path / f"plot_{figure}.py"
        assert script_path.exists()
        source = script_path.read_text()
        compile(source, str(script_path), "exec")  # must be valid python
        assert "matplotlib" in source and str(csv_path.resolve()) in source

    def test_unusable_csv_exit_one(self, tmp_path):
        from advlab.sweep import CSV_COLUMNS, write_csv
        row = {c: None for c in CSV_COLUMNS}
        row.update(run_id="r0", width=4, seed=0, epoch_budget=1, epoch=1)
        path = tmp_path / "empty.csv"
        write_csv([row], path)
        assert main(["plotscript", str(path), "--figure", "fig3",
                     "--out", str(tmp_path)]) == 1


@pytest.fixture
def idx_section(tmp_path):
    """A dataset section of kind idx: 20 train and 20 test 3x3 images."""
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(20, 3, 3)).astype(np.uint8)
    labels = rng.integers(0, 10, size=20).astype(np.uint8)
    section = {"kind": "idx"}
    for split in ("train", "test"):
        img = tmp_path / f"{split}_img.idx"
        lab = tmp_path / f"{split}_lab.idx"
        img.write_bytes(struct.pack(">IIII", 0x803, *images.shape) + images.tobytes())
        lab.write_bytes(struct.pack(">II", 0x801, 20) + labels.tobytes())
        section.update({f"{split}_images": str(img), f"{split}_labels": str(lab)})
    return section


class TestDatasetSection:
    def test_idx_kind_roundtrip(self, tmp_path, idx_section):
        cfg = base_config(dataset=idx_section)
        cfg["model"]["widths"] = [9, 6, 10]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 0

    def test_reads_the_loader_signature_under_a_wrapper(self, monkeypatch):
        # perfbench's tracer replaces module functions by (*args, **kwargs) wrappers
        monkeypatch.setattr(cli, "blob_dataset", lambda *args, **kwargs: None)
        data = cli.build_dataset({"kind": "synthetic", "seed": 1, "n_train": 8, "n_test": 6,
                                  "d": 2, "K": 2})
        assert (data.train.n, data.test.n, data.train.dim) == (8, 6, 2)

    def test_idx_limits_and_name(self, idx_section):
        data = cli.build_dataset({**idx_section, "train_limit": 5, "test_limit": 7,
                                  "name": "mini"})
        assert (data.train.n, data.test.n, data.name, data.source) == (5, 7, "mini", "idx-files")

    @pytest.mark.parametrize("field, value", [("train_limit", "5"), ("train_limit", 2.5),
                                              ("test_limit", True), ("train_images", 5),
                                              ("name", 3)])
    def test_idx_field_of_the_wrong_type_exit_one(self, tmp_path, capsys, idx_section, field,
                                                  value):
        # a string or float limit exited 2 with a bare TypeError, and true kept one sample
        cfg = base_config(dataset={**idx_section, field: value})
        out = tmp_path / "o"
        assert main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: dataset.{field}: expected ")
        assert not out.exists()

    def test_unknown_kind(self, tmp_path, capsys):
        cfg = base_config(dataset={"kind": "imagenet"})
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "dataset.kind" in capsys.readouterr().err


SWEEP_CONFIG = {
    "dataset": {"kind": "synthetic", "seed": 0, "n_train": 60, "n_test": 30,
                "d": 4, "K": 3, "spread": 0.1},
    "grid": {"widths": [4], "lambdas": [0.5], "seeds": [0], "epochs_list": [1]},
    "train": {"batch_size": 32},
}


# The top-level sections each command reads.
SECTIONS = {"train": ["dataset", "model", "objective", "attack", "schedule", "train"],
            "sweep": ["dataset", "grid", "attack", "schedule", "train"]}
# Every key a config may hold at some level: sections, parameters, dataset kind, renames.
KNOWN_KEYS = {name for target in (blob_dataset, idx_dataset, MlpConfig, ObjectiveSpec, AttackSpec,
                                   LoatSchedule, TrainConfig, SweepSpec)
              for name in inspect.signature(target).parameters}
KNOWN_KEYS |= {*SECTIONS["train"], *SECTIONS["sweep"], "kind", "widths", "lambda", "epsilon",
               "E1", "E2"}


@st.composite
def configs_with_an_unknown_key(draw):
    """(command, a valid config of it with one unknown key added, that key as where.key)."""
    command = draw(st.sampled_from(sorted(SECTIONS)))
    cfg = json.loads(json.dumps(base_config() if command == "train" else SWEEP_CONFIG))
    where = draw(st.sampled_from(["config"] + SECTIONS[command]))
    key = draw(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,11}", fullmatch=True)
               .filter(lambda k: k not in KNOWN_KEYS))
    node = cfg if where == "config" else cfg.setdefault(where, {})
    node[key] = draw(st.sampled_from([0, 1.5, "x", True, None, [1], {}]))
    return command, cfg, f"{where}.{key}"


class TestConfigErrors:
    """Configs that passed section validation but failed while running."""

    @settings(max_examples=60, deadline=None)
    @given(case=configs_with_an_unknown_key())
    def test_unknown_key_anywhere_exit_one_naming_it(self, case):
        # an unknown key in the dataset, the grid or at the top level was ignored
        command, cfg, where_key = case
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "o"
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main([command, "--config", str(write_config(Path(tmp), cfg)),
                             "--out", str(out)])
            assert code == 1
            assert stderr.getvalue().startswith(f"error: {where_key}: unknown ")
            assert not out.exists()

    @pytest.mark.parametrize("command, train_fields, field", [
        ("train", {"attack": {"epsilon": 0.1}}, "attack"),
        ("train", {"epochs": 1.5}, "epochs"),
        ("train", {"metrics_every": 0}, "metrics_every"),
        ("sweep", {"schedule": {"variant": "SLORE"}}, "schedule"),
        ("sweep", {"batch_size": 2.5}, "batch_size"),
    ], ids=["train-attack", "train-epochs", "train-metrics_every", "sweep-schedule",
            "sweep-batch_size"])
    def test_exit_one_naming_the_field(self, tmp_path, capsys, command, train_fields, field):
        cfg = json.loads(json.dumps(base_config() if command == "train" else SWEEP_CONFIG))
        cfg["train"].update(train_fields)
        argv = [command, "--config", str(write_config(tmp_path, cfg)),
                "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize("command, path, value, field", [
        ("train", ["train"], [1, 2], "train"),
        ("train", ["attack"], [1], "attack"),
        ("sweep", ["schedule"], [1], "schedule"),
        ("train", ["dataset", "n_train"], "40", "n_train"),
        ("sweep", ["dataset", "spread"], "0.1", "spread"),
        ("train", ["train", "lr"], "0.1", "lr"),
        ("sweep", ["train", "momentum"], "0.9", "momentum"),
        ("train", ["attack", "k"], 2.5, "k"),
        ("train", ["model", "widths"], [4, 2.5, 3], "widths"),
        ("sweep", ["grid", "widths"], [2.5], "widths"),
        ("sweep", ["grid", "seeds"], ["a"], "seeds"),
        ("train", ["model", "seed"], -1, "seed"),
        ("train", ["train", "seed"], -1, "seed"),
        ("sweep", ["grid", "seeds"], [-1], "seeds"),
        ("sweep", ["train", "lr"], -0.1, "lr"),
        ("sweep", ["train", "momentum"], 1.0, "momentum"),
        ("sweep", ["grid", "lambdas"], ["x"], "lambdas"),
        ("train", ["model", "widths"], [5, 6, 3], "widths"),
        ("train", ["model", "widths"], [4, 6, 2], "widths"),
        ("train", ["dataset", "seed"], True, "dataset.seed"),
        ("train", ["attack", "epsilon"], True, "attack.epsilon"),
        ("train", ["train", "lr"], True, "train.lr"),
        ("sweep", ["grid", "lambdas"], [True], "lambdas"),
        ("train", ["schedul"], {"variant": "LORE"}, "config.schedul"),
        ("sweep", ["objective"], {"kind": "trades"}, "config.objective"),
        ("train", ["dataset", "n_trian"], 40, "dataset.n_trian"),
        ("sweep", ["grid", "epochs"], [9], "grid.epochs"),
        ("sweep", ["train", "widths"], [4], "train.widths"),
        ("train", ["objective", "lam"], 0.5, "objective.lam"),
        ("train", ["attack", "epsilon"], float("nan"), "attack.epsilon"),
        ("train", ["schedule"], {"variant": "SLORE", "tau": float("nan")}, "schedule.tau"),
        ("train", ["schedule"], {"variant": "LORE", "gamma": float("inf")}, "schedule.gamma"),
        ("train", ["objective"], {"kind": "trades", "beta": float("nan")}, "objective.beta"),
        ("sweep", ["dataset", "spread"], float("nan"), "dataset.spread"),
        ("train", ["model", "init_scale"], float("nan"), "model.init_scale"),
        ("train", ["train", "lr"], float("inf"), "train.lr"),
        ("sweep", ["attack"], {"epsilon": float("inf")}, "attack.epsilon"),
        ("train", ["attack", "alpha"], float("inf"), "attack.alpha"),
        ("train", ["dataset", "seed"], -1, "seed"),
        ("train", ["attack", "random_start"], "false", "attack.random_start"),
        ("sweep", ["attack"], {"track_best": None}, "attack.track_best"),
    ], ids=["train-list", "attack-list", "schedule-list", "dataset-n_train-str",
            "dataset-spread-str", "train-lr-str", "sweep-momentum-str", "attack-k-float",
            "model-widths-float", "grid-widths-float", "grid-seeds-str", "model-seed-negative",
            "train-seed-negative", "grid-seeds-negative", "sweep-lr-negative",
            "sweep-momentum-one", "grid-lambdas-str", "model-widths-first-not-d",
            "model-widths-last-not-k", "dataset-seed-bool", "attack-epsilon-bool",
            "train-lr-bool", "grid-lambdas-bool", "top-level-typo", "sweep-objective",
            "dataset-typo", "grid-typo", "sweep-train-grid-list", "objective-lambda-twice",
            "attack-epsilon-nan", "schedule-tau-nan", "schedule-gamma-inf", "trades-beta-nan",
            "dataset-spread-nan", "model-init_scale-nan", "train-lr-inf", "sweep-epsilon-inf",
            "attack-alpha-inf", "dataset-seed-negative", "attack-random_start-str",
            "attack-track_best-null"])
    def test_shape_exit_one_naming_the_field(self, tmp_path, capsys, command, path, value,
                                             field):
        # each of these exited 2 (runtime error), exited 1 without the field's name, some
        # after creating --out, or exited 0 running something else than the config says
        # (json reads NaN and Infinity, and a non-finite number ran until the loss diverged);
        # the spec that owns the field now rejects it before --out exists
        cfg = json.loads(json.dumps(base_config() if command == "train" else SWEEP_CONFIG))
        *parents, last = path
        node = cfg
        for key in parents:
            node = node[key]
        node[last] = value
        out = tmp_path / "o"
        argv = [command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_config_not_an_object_exit_one(self, tmp_path, capsys, command):
        argv = [command, "--config", str(write_config(tmp_path, 5)), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: --config:")

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_one(self, tmp_path, capsys, jobs):
        # --jobs 0 used to exit 1 only after creating --out
        out = tmp_path / "o"
        argv = ["sweep", "--config", str(write_config(tmp_path, SWEEP_CONFIG)),
                "--out", str(out), "--jobs", jobs]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "jobs" in err
        assert not out.exists()


def test_readme_example_config_builds():
    """The README's example config passes the CLI's reader, so the docs cannot drift from it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    command_line = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    (example,) = re.findall(r"```json\n(.*?)```", command_line, re.S)
    cfg = json.loads(example)
    check_fit(cli.build_train_config(cfg), cli.build_dataset(cfg["dataset"]))


def config_hash(cfg) -> str:
    """sha256 of the config's sorted-key JSON, computed apart from the CLI."""
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


class TestManifests:
    """train and sweep write manifest.json through one run path."""

    @pytest.mark.parametrize("command, extra_keys", [("train", []),
                                                     ("sweep", ["metrics_cadence"])])
    def test_keys_config_and_hash(self, tmp_path, command, extra_keys):
        cfg = base_config() if command == "train" else SWEEP_CONFIG
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest) == ["schema_version", "config", "dataset_fingerprint",
                                  "config_hash"] + extra_keys
        assert manifest["schema_version"] == "v1"
        assert manifest["config"] == cfg
        assert manifest["config_hash"] == config_hash(cfg)

    def test_dataset_fingerprint_follows_the_dataset(self, tmp_path):
        def fingerprint(command, cfg):
            out = tmp_path / f"{command}-{cfg['dataset']['n_train']}"
            assert main([command, "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(out)]) == 0
            return json.loads((out / "manifest.json").read_text())["dataset_fingerprint"]

        train_cfg = base_config()
        assert train_cfg["dataset"] == SWEEP_CONFIG["dataset"]
        shared = fingerprint("train", train_cfg)
        assert fingerprint("sweep", SWEEP_CONFIG) == shared
        train_cfg["dataset"]["n_train"] = 45
        assert fingerprint("train", train_cfg) != shared


class TestInputErrors:
    """A missing or unreadable input file is an input error: exit 1, `error:`."""

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_missing_config(self, tmp_path, capsys, command):
        missing = tmp_path / "nope.json"
        assert main([command, "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --config:") and "nope.json" in err

    def test_unreadable_config(self, tmp_path, capsys):
        # a directory cannot be read as a file
        assert main(["train", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: --config:")

    @pytest.mark.parametrize("argv", [["correlate", "{missing}", "--regime", "early"],
                                      ["plotscript", "{missing}", "--figure", "fig2"],
                                      ["bounds", "{missing}"]])
    def test_missing_input_file(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "nope.bin")
        assert main([a.format(missing=missing) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nope.bin" in err

    @pytest.mark.parametrize("argv", [
        ["correlate", "{csv}", "--regime", "early"],
        ["plotscript", "{csv}", "--figure", "fig4", "--out", "{out}"],
    ], ids=["correlate", "plotscript"])
    def test_non_integral_csv_width(self, tmp_path, capsys, argv):
        from advlab.sweep import CSV_COLUMNS, write_csv
        row = {c: None for c in CSV_COLUMNS}
        row.update(run_id="r0", width=2.7, seed=0, epoch_budget=1, epoch=1, gamma_ce=1.0,
                   gap_ce=1.0)
        path = tmp_path / "sweep.csv"
        write_csv([row], path)
        out = tmp_path / "plots"
        assert main([a.format(csv=path, out=out) for a in argv]) == 1
        assert capsys.readouterr().err == "error: CSV row 1: width '2.7' is not an integer\n"
        assert not out.exists()

    def test_missing_idx_file(self, tmp_path, capsys):
        cfg = base_config(dataset={
            "kind": "idx", "train_images": str(tmp_path / "nope.idx"),
            "train_labels": str(tmp_path / "nope.idx"),
            "test_images": str(tmp_path / "nope.idx"),
            "test_labels": str(tmp_path / "nope.idx")})
        assert main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: dataset:")

    def test_truncated_idx_file(self, tmp_path, capsys):
        img = tmp_path / "img.idx"
        img.write_bytes(bytes.fromhex("00000803") + (2).to_bytes(4, "big") * 3 + b"\0" * 5)
        cfg = base_config(dataset={
            "kind": "idx", "train_images": str(img), "train_labels": str(img),
            "test_images": str(img), "test_labels": str(img)})
        assert main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "o")]) == 1
        assert "expected 8 bytes of data, found 5" in capsys.readouterr().err


def test_import_cli_does_not_load_scipy():
    src = str(Path(advlab.__file__).resolve().parents[1])
    code = ("import sys, advlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
