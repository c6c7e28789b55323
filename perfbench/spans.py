"""Span tracing of the advlab layers, recorded from outside the package.

`Tracer.install()` replaces every binding of each public function of the
layer modules (data, mlp, objectives, attacks, loat, fisher_rao, trainer,
sweep, cli) with a wrapper that records a span: id, parent id, name,
start and end.  advlab imports functions by name (`trainer.pgd`,
`attacks.forward`, `sweep.train`, ...), so every module attribute that
is the original function is replaced, not only the defining one.
`core` holds helpers whose cost stays inside their callers; only the
`softmax_rows` bindings of the callers are wrapped, to count passes.

Spans stay in memory.  A layer's self time is its span's duration minus
the durations of its child spans; the self times of one process add up
to its root span.  Pool workers of `advlab sweep` fork from the traced
parent and inherit the wrappers; each worker sums the spans of a cell
and appends the sums to a file named after its pid, which the parent
reads.  The parent's wait on the pool is then split among the workers'
layers: each second of a worker's layer time counts 1/jobs of a wall
second, and the pool time no worker was busy stays with `sweep`.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import pickle
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import checks

LAYERS = ("data", "mlp", "objectives", "attacks", "loat", "fisher_rao",
          "trainer", "sweep", "cli")
# Private functions that get spans too: the sweep cell, so workers can
# report per cell.
PRIVATE = {"sweep": ("_run_cell",)}
SOFTMAX_CALLERS = ("objectives", "loat", "trainer", "fisher_rao")
BUCKETS = LAYERS + ("bench", "trace")

# The installed tracer.  `run_cell` is pickled by reference into sweep
# workers and reaches the tracer the worker inherited through this name.
_active = None


def run_cell(args):
    """Stand-in for advlab.sweep._run_cell while a tracer is installed."""
    return _active.run_cell(args)


class Tracer:
    def __init__(self, record_dir: Path):
        self.record_dir = Path(record_dir)
        self.owner = os.getpid()
        self.ids = itertools.count()
        self._patches = []
        self._cell = None
        self.reset()

    def reset(self):
        self.spans = []   # (id, parent id, name, t0, t1)
        self.stack = []   # open span ids
        self.calls = Counter()        # every call, by span name
        self.batch_calls = Counter()  # calls inside trainer.train but not trainer.evaluate
        self.counters = Counter()
        self.depth = {"trainer.train": 0, "trainer.evaluate": 0}  # open spans of each

    # -- recording ---------------------------------------------------------

    def in_batch(self) -> bool:
        return self.depth["trainer.train"] > 0 and self.depth["trainer.evaluate"] == 0

    def _open(self, name):
        sid = next(self.ids)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0):
        t1 = time.perf_counter()
        self.stack.pop()
        self.spans.append((sid, parent, name, t0, t1))

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called `name`."""
        self.calls[name] += 1
        if self.in_batch():
            self.batch_calls[name] += 1
        scoped = name in self.depth
        if scoped:
            self.depth[name] += 1
        sid, parent = self._open(name)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, parent, name, t0)
            if scoped:
                self.depth[name] -= 1

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                self.span("trace.hook", hook, self, args, result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        def wrapper(*args, **kwargs):
            counted_batch = self.in_batch()
            if counted_batch:
                self.counters["epochs"] += 1
            it = self.span(name, fn, *args, **kwargs)
            while True:
                sid, parent = self._open(name)
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(sid, parent, name, t0)
                if counted_batch:
                    self.counters["batches"] += 1
                yield item

        return wrapper

    def _count_softmax(self, module, fn):
        def wrapper(*args, **kwargs):
            self.counters[f"softmax.{module}"] += 1
            if self.in_batch():
                self.counters[f"softmax_batch.{module}"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self):
        global _active
        modules = {n: m for n, m in sys.modules.items()
                   if n == "advlab" or n.startswith("advlab.")}
        wrappers = {}  # original function -> wrapper
        for layer in LAYERS:
            mod = modules[f"advlab.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                name = f"{layer}.{attr}"
                make = self._wrap_generator if inspect.isgeneratorfunction(fn) else self._wrap
                wrappers[fn] = make(name, fn)
                if name == "sweep._run_cell":
                    self._cell = wrappers[fn]
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        for layer in SOFTMAX_CALLERS:
            mod = modules[f"advlab.{layer}"]
            self._patch(mod, "softmax_rows", self._count_softmax(layer, mod.softmax_rows))
        self._patch(modules["advlab.sweep"], "_run_cell", run_cell)
        _active = self

    def _patch(self, mod, attr, new):
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self):
        global _active
        for mod, attr, old in reversed(self._patches):
            setattr(mod, attr, old)
        self._patches.clear()
        _active = None

    # -- sweep workers -----------------------------------------------------

    def run_cell(self, args):
        if os.getpid() == self.owner:
            return self._cell(args)
        # A forked worker: forget the parent's spans and open stack.  The
        # span open when the pool forked is the parent of the cell.
        parent = self.stack[-1] if self.stack else None
        self.reset()
        task_bytes = len(pickle.dumps(args))
        rows = self._cell(args)
        record = self.profile()
        sid, _, _, t0, t1 = self.spans[-1]
        record["span"] = {"pid": os.getpid(), "id": sid, "parent": parent,
                          "name": "sweep._run_cell", "start": t0, "end": t1}
        record["counters"].update(task_bytes=task_bytes, cells=1)
        record["counters"]["sweep.epochs"] = record["counters"].get("epochs", 0)
        with open(self.record_dir / f"{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(record) + "\n")
        return rows

    def collect_workers(self):
        """Read and delete the records that sweep workers wrote."""
        records = []
        for path in sorted(self.record_dir.glob("*.jsonl")):
            with open(path) as fh:
                records.extend(json.loads(line) for line in fh)
            path.unlink()
        return records

    # -- summing -----------------------------------------------------------

    def profile(self):
        """Self and inclusive time per span name, plus counts."""
        child = Counter()
        for _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        self_s, incl_s = Counter(), Counter()
        for sid, _, name, t0, t1 in self.spans:
            self_s[name] += (t1 - t0) - child[sid]
            incl_s[name] += t1 - t0
        return {"self": dict(self_s), "incl": dict(incl_s), "calls": dict(self.calls),
                "batch_calls": dict(self.batch_calls), "counters": dict(self.counters),
                "spans": len(self.spans)}

    def span_records(self, run_id):
        """The spans of this process as JSON-able records."""
        pid = os.getpid()
        return [{"run": run_id, "pid": pid, "id": sid, "parent": parent, "name": name,
                 "start": t0, "end": t1} for sid, parent, name, t0, t1 in self.spans]


def merge_workers(profile: dict, records: list, jobs: int) -> dict:
    """Fold worker records into the parent's profile (see module docstring)."""
    out = {k: Counter(profile[k]) for k in ("self", "incl", "calls", "batch_calls", "counters")}
    out.update(spans=profile["spans"], jobs=jobs)
    wait = out["self"].get("sweep.run_sweep", 0.0)
    busy = 0.0
    for rec in records:
        busy += rec["incl"]["sweep._run_cell"]
        for k in ("self", "incl"):
            for name, v in rec[k].items():
                out[k][name] += v / jobs
        for k in ("calls", "batch_calls", "counters"):
            out[k].update(rec[k])
        out["spans"] += rec["spans"]
    if records:
        out["self"]["sweep.run_sweep"] = wait - busy / jobs
        out["counters"]["pool_wait_s"] += wait
        out["counters"]["worker_busy_s"] += busy
    return out


# -- hooks: counts measured at the layer boundary, timed as trace.hook -----

def _forward_work(tracer, args, result):
    weights, n = args[0], np.shape(args[1])[0]
    flop = byte = 0
    for i, w in enumerate(weights):
        out_w, in_w = w.shape
        flop += 2 * n * out_w * in_w
        byte += 8 * (n * in_w + out_w * in_w + n * out_w)
        if i < len(weights) - 1:
            byte += 8 * 2 * n * out_w  # relu reads and writes the layer
    tracer.counters["mlp.flop"] += flop
    tracer.counters["mlp.byte"] += byte


def _backward_work(tracer, args, result):
    weights, n = args[0], args[1].inputs.shape[0]
    flop = byte = 0
    for i, w in enumerate(weights):
        out_w, in_w = w.shape
        flop += 4 * n * out_w * in_w  # weight gradient and delta @ W
        byte += 8 * 2 * (n * out_w + n * in_w + out_w * in_w)
        if i > 0:
            byte += 8 * 3 * n * in_w  # relu mask on the propagated delta
    tracer.counters["mlp.flop"] += flop
    tracer.counters["mlp.byte"] += byte


def _pgd_strength(tracer, args, result):
    weights, batch = args[0], args[1]
    clean = checks.ce_per_sample(checks.logits(weights, batch.inputs), batch.labels)
    adv = checks.ce_per_sample(checks.logits(weights, result), batch.labels)
    tracer.counters["pgd.samples"] += len(clean)
    tracer.counters["pgd.improved"] += int(np.count_nonzero(adv > clean))


_HOOKS = {"mlp.forward": _forward_work, "mlp.backward": _backward_work,
          "attacks.pgd": _pgd_strength}
