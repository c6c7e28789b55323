"""The traced run: per-layer metrics of one workload.

Order: the set-up once more with spans on (for data.blob_dataset.s and
mlp.checkpoint.s), then pairs of one untraced and one traced operation
for --seconds (at least one pair).  trace.overhead_frac compares the
median traced operation with the median untraced one.  Per-op figures
are totals over the traced operations divided by their number.  The `<layer>.self_s`
metrics, with bench.self_s (the benchmark's own code between calls) and
trace.self_s (the tracer's counting hooks), add up to trace.wall_s.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time

import spans


def traced_run(args, lab, wl, p, state, work):
    for layer in spans.LAYERS:
        importlib.import_module(f"advlab.{layer}")
    jobs = p.get("jobs", 1)
    (work / "workers").mkdir()

    setup_tracer = spans.Tracer(work / "workers")
    setup_tracer.install()
    try:
        setup_tracer.span("bench.setup", wl.setup, lab, p, args.seed, work)
    finally:
        setup_tracer.uninstall()
    setup_incl = setup_tracer.profile()["incl"]

    tracer = spans.Tracer(work / "workers")
    ops, records, walls, untraced = [], [], [], []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        calls = wl.op(lab, p, state, len(ops))
        untraced.append(time.perf_counter() - t0)
        wl.finish(calls, state, len(ops))
        ops.append(calls)

        tracer.install()
        try:
            calls = tracer.span("bench.op", wl.op, lab, p, state, len(ops))
        finally:
            tracer.uninstall()
        walls.append(tracer.spans[-1][4] - tracer.spans[-1][3])
        records += tracer.collect_workers()
        wl.finish(calls, state, len(ops))
        ops.append(calls)

    prof = spans.merge_workers(tracer.profile(), records, jobs)
    metrics = per_layer(prof, len(walls), setup_incl)
    total = sum(walls)
    layers = sum(metrics[f"{b}.self_s"] for b in spans.BUCKETS) * len(walls)
    if abs(layers - total) > 1e-6 * total:
        raise RuntimeError(f"self times sum to {layers} s, traced wall is {total} s")
    metrics["trace.overhead_frac"] = statistics.median(walls) / statistics.median(untraced) - 1.0
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    span_log = (setup_tracer.span_records(run_id) + tracer.span_records(run_id)
                + [dict(r["span"], run=run_id) for r in records])
    return ops, metrics, {"untraced_s": untraced, "traced_walls_s": walls, "spans": span_log}


def per_layer(prof, n_ops, setup_incl):
    self_s, incl = prof["self"], prof["incl"]
    calls, batch_calls, cnt = prof["calls"], prof["batch_calls"], prof["counters"]
    batches = cnt["batches"]

    def op(v):
        return v / n_ops

    def per_batch(v):
        return v / batches if batches else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{b}.self_s": op(sum(v for k, v in self_s.items() if k.split(".")[0] == b))
         for b in spans.BUCKETS}
    m.update({
        "trace.wall_s": op(incl["bench.op"]),
        "trace.spans": op(prof["spans"]),
        "data.batches.self_s": op(self_s["data.batches"]),
        "data.blob_dataset.s": setup_incl.get("data.blob_dataset", 0.0),
        "mlp.forward.self_s": op(self_s["mlp.forward"]),
        "mlp.backward.self_s": op(self_s["mlp.backward"]),
        "mlp.forward.calls": op(calls["mlp.forward"]),
        "mlp.backward.calls": op(calls["mlp.backward"]),
        "mlp.forward.calls_per_batch": per_batch(batch_calls["mlp.forward"]),
        "mlp.backward.calls_per_batch": per_batch(batch_calls["mlp.backward"]),
        "mlp.gflop": op(cnt["mlp.flop"]) / 1e9,
        "mlp.gbyte": op(cnt["mlp.byte"]) / 1e9,
        "mlp.checkpoint.s": (setup_incl.get("mlp.save_checkpoint", 0.0)
                             + setup_incl.get("mlp.load_checkpoint", 0.0)),
        "objectives.softmax_calls_per_batch": per_batch(cnt["softmax_batch.objectives"]),
        "attacks.pgd.calls": op(calls["attacks.pgd"]),
        "attacks.pgd.self_s": op(self_s["attacks.pgd"]),
        "attacks.project.self_s": op(self_s["attacks.project"]),
        "attacks.pgd.improved_frac": ratio(cnt["pgd.improved"], cnt["pgd.samples"]),
        "loat.softmax_calls_per_batch": per_batch(cnt["softmax_batch.loat"]
                                                  + cnt["softmax_batch.trainer"]),
        "trainer.train.self_s": op(self_s["trainer.train"]),
        "trainer.sgd_step.self_s": op(self_s["trainer.sgd_step"]),
        "trainer.evaluate.self_s": op(self_s["trainer.evaluate"]),
        "trainer.evaluate.s": op(incl["trainer.evaluate"]),
        "trainer.batches": op(batches),
        "fisher_rao.radius_estimates.s": op(incl["fisher_rao.radius_estimates"]),
        "fisher_rao.empirical_rademacher.s": op(incl["fisher_rao.empirical_rademacher"]),
        "fisher_rao.exhaustive_rademacher.s": op(incl["fisher_rao.exhaustive_rademacher"]),
        "sweep.cells": op(cnt["cells"]),
        "sweep.epochs_trained": op(cnt["sweep.epochs"]),
        "sweep.task_bytes": ratio(cnt["task_bytes"], cnt["cells"]),
        "sweep.worker_busy_frac": ratio(cnt["worker_busy_s"], prof["jobs"] * cnt["pool_wait_s"]),
        "sweep.csv.s": op(incl["sweep.write_csv"] + incl["sweep.read_csv"]),
        "sweep.correlate.s": op(incl["sweep.correlate"]),
    })
    return m
