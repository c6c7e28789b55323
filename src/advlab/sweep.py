"""Width/lambda sweep grids, the long-format CSV schema, and correlation analysis.

A sweep trains the full grid {widths x lambdas x seeds x epoch budgets}
with the mixture objective, always including a lambda=0 standard-training
family per (width, seed, budget) so the cross-family generalization gap
(min test risk over the adversarial family minus min over the standard
family, at the same epoch budget) can be attached to every adversarial
cell.  One CSV row per run per recorded epoch, whose columns are the
MetricsRecord fields by name.  Each (width, lambda, seed) trains once, to
the largest budget; the shorter budgets' runs are read off that
trajectory.  The seeds of one (width, lambda) train in lockstep, as one
trainer.train_stack(cfg, data, seeds) call (a task) on that cell's one
config; a grid with fewer (width, lambda) stacks than pool workers splits
each stack's seeds so that every worker gets a task.  A repeated grid
value is a ParameterError.  Every task runs in a pool worker at one OpenBLAS
thread, `jobs=1` included, so a sweep's bits depend on its spec and data
alone, not on `jobs` or the core count; `jobs` = nproc is the fast setting.
correlate(rows, regime) gives Pearson's r and Spearman's rho of gamma_ce
against the gap, in numpy alone and with scipy.stats' bits.
slopes_by(rows, key) fits the radius scatter per width or lambda, and
figure_data(rows, figure) gives the series of Figures 2-4 that `advlab
plotscript` writes.
"""

from __future__ import annotations

import csv
import ctypes
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attacks import AttackSpec, eval_attack_pair
from .core import ParameterError, check_count, check_real, check_unique
from .data import DatasetHandle
from .loat import LoatSchedule
from .mlp import MlpConfig
from .objectives import ObjectiveSpec, generalization_gap
from .trainer import TrainConfig, metric_epochs, train_stack

CSV_SCHEMA_VERSION = "v1"
CSV_COLUMNS = [
    "run_id", "width", "lambda", "seed", "epoch_budget", "epoch",
    "clean_train_loss", "clean_train_acc", "clean_test_loss", "clean_test_acc",
    "fgsm_acc", "pgd_acc", "gamma_hat", "gamma_hat_c", "gamma_hat_m",
    "gamma_ce", "bound_lower", "bound_upper", "gap_ce", "epoch_wall_ms",
]
# the columns that identify a row, never empty; an empty lambda marks a run whose objective
# has no lambda (TRADES) and reads as None
KEY_COLUMNS = ["run_id", "width", "seed", "epoch_budget", "epoch"]


class InsufficientDataError(ValueError):
    """Too few usable points for a statistic."""


@dataclass(frozen=True)
class SweepSpec:
    widths: tuple
    lambdas: tuple
    seeds: tuple
    epochs_list: tuple
    attack: AttackSpec = AttackSpec()
    schedule: LoatSchedule = LoatSchedule()
    batch_size: int = 128
    lr: float = 0.1
    momentum: float = 0.9

    def __post_init__(self):
        rules = {"widths": check_count, "lambdas": lambda v, name: check_real(v, name, "[0, 1]"),
                 "seeds": lambda v, name: check_count(v, name, least=0), "epochs_list": check_count}
        for name, rule in rules.items():
            values = getattr(self, name)
            if len(values) == 0:
                raise ParameterError(f"{name} must be nonempty")
            for value in values:
                rule(value, f"{name} entry")
            check_unique(values, f"{name} entry")
        check_count(self.batch_size, "batch_size")
        check_real(self.lr, "lr", "[0, inf)")
        check_real(self.momentum, "momentum", "[0, 1)")


@dataclass(frozen=True)
class CorrelationReport:
    pearson_r: float
    spearman_rho: float
    n_points: int
    epoch_regime: str
    n_excluded: int


METRICS_CADENCE = "every epoch for budgets <= 10, every 25th otherwise"


def _metrics_every(budget: int) -> int:
    return 1 if budget <= 10 else 25


def _cell_config(spec: SweepSpec, data: DatasetHandle, width: int, lam: float,
                 epochs: int) -> TrainConfig:
    return TrainConfig(
        model=MlpConfig([data.train.dim, width, data.train.num_classes]),
        objective=ObjectiveSpec(kind="mixture", lam=lam),
        attack=spec.attack,
        schedule=spec.schedule,
        epochs=epochs,
        batch_size=spec.batch_size,
        lr=spec.lr,
        momentum=spec.momentum,
        eval_attacks=eval_attack_pair(spec.attack),
    )


def record_row(rec, run_id: str, width: int, lam, seed: int, budget: int) -> dict:
    """One CSV row (schema v1) for a MetricsRecord: each field but adv_test_acc is the
    column of its name; gap_ce is left to attach_gaps."""
    row = {"run_id": run_id, "width": width, "lambda": lam, "seed": seed,
           "epoch_budget": budget, **vars(rec), "gap_ce": None}
    acc = row.pop("adv_test_acc")
    row.update(fgsm_acc=acc.get("fgsm"), pgd_acc=acc.get("pgd"))
    return row


def openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None if
    no known symbol is found: the scipy_openblas and openblas prefixes, each
    with and without the 64_ suffix."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")) + sorted(libs.glob("libopenblas*.so")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


# The running sweep's dataset, which each worker gets once from the pool initializer.
_data = None


def _share_data(data) -> None:
    """Pool initializer: hold the dataset and set the worker's OpenBLAS to one thread."""
    global _data
    _data = data
    blas = openblas_threads()
    if blas is not None:
        blas[1](1)


def _pool(data, workers: int) -> ProcessPoolExecutor:
    """`workers` processes holding `data`, each at one OpenBLAS thread whatever
    `workers` and nproc are; without a known OpenBLAS symbol, one warning and
    the library's default threads."""
    if openblas_threads() is None:
        logging.getLogger(__name__).warning(
            "no OpenBLAS thread-count symbol found; pool workers keep their default threads")
    return ProcessPoolExecutor(max_workers=workers, initializer=_share_data, initargs=(data,))


def _run_cell(args):
    """Train the seeds of one (width, lambda) in lockstep to the largest budget;
    rows of every seed and budget, in seed order.

    A run of b epochs is a prefix of the longer run: lr, the LOAT schedule
    and the per-epoch generators do not depend on the budget.  So each
    budget's rows are the longer run's records at that budget's epochs.
    """
    spec, width, lam, seeds = args
    wanted = {b: metric_epochs(b, _metrics_every(b)) for b in spec.epochs_list}
    runs = train_stack(_cell_config(spec, _data, width, lam, max(spec.epochs_list)), _data,
                       seeds, record_epochs=set().union(*wanted.values()))
    return [record_row(rec, f"w{width}_l{lam:g}_s{seed}_e{budget}", width, lam, seed, budget)
            for seed, (_, history) in zip(seeds, runs)
            for budget in spec.epochs_list
            for rec in history if rec.epoch in wanted[budget]]


def _tasks(spec: SweepSpec, jobs: int) -> list:
    """The sweep's tasks (spec, width, lambda, seeds) in grid order, lambda=0 included.

    One task per (width, lambda) stack; with fewer stacks than jobs, each
    stack's seeds split into ceil(jobs / stacks) contiguous parts (at most
    one per seed), so every worker gets a task.
    """
    lambdas = tuple(spec.lambdas)
    if 0.0 not in lambdas:
        lambdas = (0.0,) + lambdas
    stacks = [(w, lam) for w in spec.widths for lam in lambdas]
    seeds = spec.seeds
    parts = min(len(seeds), -(-jobs // len(stacks)))
    split = [seeds[i * len(seeds) // parts:(i + 1) * len(seeds) // parts] for i in range(parts)]
    return [(spec, w, lam, part) for w, lam in stacks for part in split]


def run_sweep(spec: SweepSpec, data: DatasetHandle, jobs: int = 1) -> list:
    """Train the full grid plus the lambda=0 family in a pool of min(jobs, tasks)
    workers (see _pool); returns CSV rows."""
    check_count(jobs, "jobs")
    tasks = _tasks(spec, jobs)
    # Heaviest first, so no worker is left with a long task at the end:
    # tasks that run an attack (lambda > 0), then the widest, then the most
    # seeds.  The sort is stable and rows are emitted in grid order all the same.
    order = sorted(range(len(tasks)),
                   key=lambda i: (tasks[i][2] == 0.0, -tasks[i][1], -len(tasks[i][3])))
    # under fork, the pool starts every worker at its first task, so none beyond the task count
    with _pool(data, min(jobs, len(tasks))) as pool:
        by_task = dict(zip(order, pool.map(_run_cell, [tasks[i] for i in order])))
    rows = [r for i in range(len(tasks)) for r in by_task[i]]
    attach_gaps(rows)
    return rows


def _final_rows(rows):
    """Last recorded epoch of every run."""
    last = {}
    for r in rows:
        key = r["run_id"]
        if key not in last or r["epoch"] > last[key]["epoch"]:
            last[key] = r
    return list(last.values())


def attach_gaps(rows) -> None:
    """Fill gap_ce on final-epoch rows of every adversarial family.

    The gap for family (width, lambda>0, budget) is the min final test
    risk over its seeds minus the min over the lambda=0 family's seeds.
    """
    finals = _final_rows(rows)
    by_family = {}
    for r in finals:
        by_family.setdefault((r["width"], r["lambda"], r["epoch_budget"]), []).append(r)
    for (width, lam, budget), members in by_family.items():
        if lam == 0.0:
            continue
        std = by_family.get((width, 0.0, budget))
        if not std:
            continue
        gap = generalization_gap([m["clean_test_loss"] for m in members],
                                 [m["clean_test_loss"] for m in std])
        for m in members:
            m["gap_ce"] = gap


def write_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for r in rows:
            writer.writerow({k: ("" if r.get(k) is None else r[k]) for k in CSV_COLUMNS})


def read_csv(path) -> list:
    numeric = set(CSV_COLUMNS) - {"run_id"}
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise ParameterError(f"CSV missing columns: {missing}")
        for i, raw in enumerate(reader, start=1):
            if None in raw or None in raw.values():  # DictReader's fill of a long or short row
                raise ParameterError(f"CSV row {i}: cell count differs from the header's "
                                     f"{len(reader.fieldnames)}")
            empty = [k for k in KEY_COLUMNS if raw[k] == ""]
            if empty:
                raise ParameterError(f"CSV row {i}: {empty[0]} is empty")
            row = dict(raw)
            for k in numeric:
                row[k] = float(raw[k]) if raw[k] != "" else None
                if row[k] is not None:
                    check_real(row[k], f"CSV row {i}: {k}", "(-inf, inf)")
            for k in ("width", "seed", "epoch_budget", "epoch"):
                if not row[k].is_integer():
                    raise ParameterError(f"CSV row {i}: {k} {raw[k]!r} is not an integer")
                row[k] = int(row[k])
            rows.append(row)
    return rows


def correlate(rows, regime: str) -> CorrelationReport:
    """Pearson/Spearman between gamma_ce and the generalization gap.

    regime "early" uses the smallest epoch budget in the CSV, "late" the
    largest; one point per run, taken at its final recorded epoch.
    """
    if regime not in ("early", "late"):
        raise ParameterError("regime must be 'early' or 'late'")
    budgets = sorted({r["epoch_budget"] for r in rows})
    if not budgets:
        raise InsufficientDataError("no rows")
    budget = budgets[0] if regime == "early" else budgets[-1]
    finals = [r for r in _final_rows(rows) if r["epoch_budget"] == budget]
    usable = [r for r in finals if r["gamma_ce"] is not None and r["gap_ce"] is not None]
    excluded = len(finals) - len(usable)
    if len(usable) < 3:
        raise InsufficientDataError(
            f"need >= 3 points with defined gamma_ce and gap_ce, found {len(usable)}")
    x = np.array([r["gamma_ce"] for r in usable])
    y = np.array([r["gap_ce"] for r in usable])
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise InsufficientDataError("zero variance in gamma_ce or gap_ce")
    return CorrelationReport(pearson_r=_pearson(x, y), spearman_rho=_spearman(x, y),
                             n_points=len(usable), epoch_regime=regime,
                             n_excluded=excluded)


def _pearson(x, y) -> float:
    """scipy.stats.pearsonr(x, y).statistic bit for bit (scipy 1.17): each centred vector
    is divided by its norm, taken after scaling by its largest magnitude."""
    def unit(v):
        v = v - v.mean(keepdims=True)
        top = np.abs(v).max(keepdims=True)
        return v / (top * np.linalg.norm(v / top, axis=-1, keepdims=True))
    return float(np.clip(np.dot(unit(x), unit(y)), -1.0, 1.0))


def _average_ranks(v) -> np.ndarray:
    """Ranks 1..n of v's entries, a tie group's being the mean of its positions."""
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def _spearman(x, y) -> float:
    """scipy.stats.spearmanr(x, y).statistic bit for bit: np.corrcoef of the average ranks."""
    ranks = np.column_stack([_average_ranks(x), _average_ranks(y)])
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def _adversarial_by(rows, key: str) -> dict:
    """The rows with lambda > 0 and a `key` value, grouped by it in ascending order."""
    adv = [r for r in rows if r["lambda"] not in (None, 0.0) and r[key] is not None]
    return {value: [r for r in adv if r[key] == value] for value in sorted({r[key] for r in adv})}


def _radius_fit(group) -> tuple:
    """(points, slope): the (gamma_hat_c, gamma_hat_m) of the group's rows that have both,
    as a k x 2 array, and the LSQ slope of gamma_hat_m against gamma_hat_c, None for
    fewer than 2 points or no spread in gamma_hat_c."""
    points = np.reshape([(r["gamma_hat_c"], r["gamma_hat_m"]) for r in group
                         if None not in (r["gamma_hat_c"], r["gamma_hat_m"])], (-1, 2))
    c, m = points.T
    return points, float(np.polyfit(c, m, 1)[0]) if len(c) > 1 and np.ptp(c) > 0 else None


def slopes_by(rows, key: str) -> dict:
    """Per value of column `key` (e.g. "width" or "lambda") among the adversarial rows
    (lambda > 0): the LSQ slope of gamma_hat_m against gamma_hat_c, None if undefined."""
    return {value: _radius_fit(group)[1] for value, group in _adversarial_by(rows, key).items()}


def figure_data(rows, figure: str) -> dict:
    """The plotted series of "fig2", "fig3" or "fig4", JSON-ready.

    fig2, per width: the adversarial rows' (gamma_hat_c, gamma_hat_m) points, their
    slopes_by slope, and the fitted line's endpoints at the least and greatest
    gamma_hat_c (None where the slope is).  fig3 (x = lambda) and fig4 (x = width), per
    epoch budget and x: the mean gamma_ce and gap_ce over the adversarial runs' final
    rows (_final_rows) that have it, None if none has.  InsufficientDataError if
    nothing would be plotted.
    """
    data, series = {"figure": figure}, []
    if figure == "fig2":
        for width, group in _adversarial_by(rows, "width").items():
            points, slope = _radius_fit(group)
            c, m = points.T
            line = None if slope is None else [
                [float(x), float(m.mean() + slope * (x - c.mean()))] for x in (c.min(), c.max())]
            series.append({"width": width, "points": points.tolist(), "slope": slope, "line": line})
        usable = any(s["points"] for s in series)
    else:
        data["x"] = x = {"fig3": "lambda", "fig4": "width"}[figure]
        for budget, finals in _adversarial_by(_final_rows(rows), "epoch_budget").items():
            groups = _adversarial_by(finals, x)
            entry = {"epoch_budget": budget, x: list(groups)}
            for f in ("gamma_ce", "gap_ce"):
                present = ([r[f] for r in g if r[f] is not None] for g in groups.values())
                entry[f] = [float(np.mean(v)) if v else None for v in present]
            series.append(entry)
        usable = any(v is not None for s in series for v in s["gamma_ce"] + s["gap_ce"])
    if not usable:
        raise InsufficientDataError(f"CSV has no usable rows for {figure}")
    return {**data, "series": series}
