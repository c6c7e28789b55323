import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import advlab
from advlab.cli import main
from advlab.core import make_rng
from advlab.data import DatasetHandle, LabeledBatch, blob_dataset, dump_array
from advlab.mlp import MlpConfig, forward, init_weights, load_checkpoint
from advlab.sweep import read_csv
from advlab.trainer import evaluate


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


class TestDatasetSection:
    def test_idx_kind_roundtrip(self, tmp_path):
        import struct
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(20, 3, 3)).astype(np.uint8)
        labels = rng.integers(0, 10, size=20).astype(np.uint8)
        paths = {}
        for split in ("train", "test"):
            img = tmp_path / f"{split}_img.idx"
            lab = tmp_path / f"{split}_lab.idx"
            with open(img, "wb") as fh:
                fh.write(struct.pack(">IIII", 0x803, *images.shape))
                fh.write(images.tobytes())
            with open(lab, "wb") as fh:
                fh.write(struct.pack(">II", 0x801, 20))
                fh.write(labels.tobytes())
            paths[split] = (str(img), str(lab))
        cfg = base_config(dataset={
            "kind": "idx",
            "train_images": paths["train"][0], "train_labels": paths["train"][1],
            "test_images": paths["test"][0], "test_labels": paths["test"][1],
        })
        cfg["model"]["widths"] = [9, 6, 10]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 0

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


class TestConfigErrors:
    """Configs that passed section validation but failed while running."""

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
    ], ids=["train-list", "attack-list", "schedule-list", "dataset-n_train-str",
            "dataset-spread-str", "train-lr-str", "sweep-momentum-str", "attack-k-float",
            "model-widths-float", "grid-widths-float", "grid-seeds-str", "model-seed-negative",
            "train-seed-negative", "grid-seeds-negative", "sweep-lr-negative",
            "sweep-momentum-one", "grid-lambdas-str"])
    def test_shape_exit_one_naming_the_field(self, tmp_path, capsys, command, path, value,
                                             field):
        # each of these exited 2 (runtime error) or exited 1 without the field's name, some
        # after creating --out; the spec that owns the field now rejects it before that
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
        argv = ["sweep", "--config", str(write_config(tmp_path, SWEEP_CONFIG)),
                "--out", str(tmp_path / "o"), "--jobs", jobs]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "jobs" in err


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
