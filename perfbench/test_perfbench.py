"""The benchmark's own test: every workload at reduced size, untraced and traced.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import BUCKETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def small_run(workload, trace, cwd=ROOT):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--size", "small", cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_small_run_emits_every_metric_and_passes_its_checks(workload, trace):
    result, stderr = small_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values()), values
    else:
        layers = sum(values[f"{b}.self_s"] for b in BUCKETS)
        assert layers == pytest.approx(values["trace.wall_s"], rel=1e-6)


def copy_checkout(dest: Path, with_src: bool):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_fails_without_the_program(tmp_path):
    copy_checkout(tmp_path, with_src=False)
    proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checks_catch_an_attack_that_leaves_the_ball(tmp_path):
    copy_checkout(tmp_path, with_src=True)
    attacks = tmp_path / "src" / "advlab" / "attacks.py"
    code = attacks.read_text()
    assert "x = np.clip(x, x0 - eps, x0 + eps)" in code
    attacks.write_text(code.replace("x = np.clip(x, x0 - eps, x0 + eps)", "pass"))
    result, stderr = small_run("eval_analysis", 0, cwd=tmp_path)
    assert not result["correct"] and result["failed"] > 0
    assert "eps-ball" in stderr
