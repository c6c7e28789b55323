"""advlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end metrics of BENCHMARK.json, measured untraced;
with `--trace 1` they are its per-layer metrics, from a run with span
tracing on (see spans.py).  The line before it holds the run's
provenance.  `--workload all` runs every workload in turn and prints a
table, with op_error_rate = failed / attempted.

Load policy: one process generates the load.  The single-process
workloads keep OpenBLAS's default thread count (nproc); sweep_grid runs
`--jobs nproc` with one BLAS thread in every process.  NOTES.md gives
the metric definitions and a known defect behind that policy.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("pgd_train", "clean_train", "eval_analysis", "sweep_grid")
POOL_WORKLOADS = {"sweep_grid"}
SETUP_TRIALS = 2  # set-ups in fresh processes; with the in-process one, three
POOL_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: reduced inputs, for the benchmark's own test")
    ap.add_argument("--write-reference", action="store_true",
                    help="store this environment's pinned-seed digests in reference.json")
    ap.add_argument("--setup-trial", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "advlab" / "__init__.py").is_file():
        print(f"error: no advlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload in POOL_WORKLOADS:
        for var in POOL_THREAD_ENV:
            os.environ[var] = "1"
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def load(args, work):
    """Import advlab from the checkout and set the workload up: the set-up that setup_s times."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    lab = importlib.import_module("advlab")
    if args.workload == "sweep_grid":
        importlib.import_module("advlab.cli")
    if not Path(lab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"advlab imported from {lab.__file__}, not from {ROOT / 'src'}")
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    p = wl.params(small=args.size == "small")
    if args.workload in POOL_WORKLOADS:
        p["jobs"] = nproc()
    state = wl.setup(lab, p, args.seed, work)
    return time.perf_counter() - t0, lab, wl, p, state


def run(args, spec, work) -> int:
    setup_s, lab, wl, p, state = load(args, work)
    if args.setup_trial:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import provenance
    prov = provenance.collect(ROOT, args, p)
    key = prov["reference_key"]
    (work / "golden").mkdir()
    try:
        golden = wl.golden(lab, work / "golden", p.get("jobs", 1))
    except Exception as exc:  # noqa: BLE001 - a raising golden run is a failed operation
        golden = {"error": f"{type(exc).__name__}: {exc}"}
    ref_path = HERE / "reference.json"
    refs = json.loads(ref_path.read_text())
    if args.write_reference:
        refs.setdefault(key, {})[args.workload] = golden
        ref_path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(json.dumps({key: {args.workload: golden}}))
        return 0
    want = refs.get(key, {}).get(args.workload)
    prov["golden"] = ("unchecked: no reference for this environment" if want is None
                      else "match" if golden == want else f"MISMATCH {golden} != {want}")

    if args.trace:
        import tracing
        ops, metrics, detail = tracing.traced_run(args, lab, wl, p, state, work)
    else:
        ops, metrics, detail = timed_run(args, lab, wl, p, state)
        trials = [setup_trial(args) for _ in range(SETUP_TRIALS)]
        metrics["setup_s"] = statistics.median([setup_s] + trials)
        prov["setup_trials_s"] = [setup_s] + trials

    problems = wl.check(lab, p, state, ops)
    attempted = sum(len(calls) for calls in ops)
    failed = len({(i, name) for i, name, _ in problems})
    if want is not None:
        attempted += 1
        failed += golden != want
    for i, name, msg in problems:
        print(f"check failed: op {i} {name}: {msg}", file=sys.stderr)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if "spans" in detail:
        with open(out / f"{stem}-spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in detail.pop("spans"))
    (out / f"{stem}.json").write_text(json.dumps(
        {"provenance": prov, "problems": problems, "detail": detail, "result": result},
        indent=1))
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


def peak_rss_mb(jobs: int) -> float:
    """Peak RSS of this process plus `jobs` times the largest child's peak."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + jobs * kids) / 1024.0


def timed_run(args, lab, wl, p, state):
    """Operations back to back for --seconds (at least one); medians per op."""
    ops, walls = [], []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        calls = wl.op(lab, p, state, len(ops))
        walls.append(time.perf_counter() - t0)
        wl.finish(calls, state, len(ops))
        ops.append(calls)
    metrics = {"op_s": statistics.median(walls), "peak_rss_mb": peak_rss_mb(p.get("jobs", 0))}
    return ops, metrics, {"op_walls_s": walls}


def setup_trial(args) -> float:
    """Time the set-up in a fresh interpreter, so the import is paid again."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-trial"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    status = 0
    print(f"{'workload':14} {'metric':36} {'value':>14}  unit")
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name:14} failed with exit code {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows.append(("op_error_rate", result["failed"] / result["attempted"], "fraction"))
        for metric, value, unit in rows:
            print(f"{name:14} {metric:36} {value:14.6g}  {unit}")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
