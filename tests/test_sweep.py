import json
import logging
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from advlab import cli, sweep
from advlab.attacks import AttackSpec
from advlab.core import ParameterError
from advlab.data import blob_dataset
from advlab.loat import LoatSchedule
from advlab.mlp import MlpConfig
from advlab.objectives import ObjectiveSpec
from advlab.sweep import (CSV_COLUMNS, InsufficientDataError, SweepSpec,
                          attach_gaps, correlate, figure_data,
                          read_csv, record_row, run_sweep, slopes_by, write_csv)
from advlab.trainer import TrainConfig, train


def strip_timing(rows):
    return [{k: v for k, v in r.items() if k != "epoch_wall_ms"} for r in rows]


def tiny_sweep_rows():
    data = blob_dataset(0, 60, 30, 4, 3, 0.15)
    spec = SweepSpec(widths=(4, 8), lambdas=(0.5,), seeds=(0, 1),
                     epochs_list=(2,),
                     attack=AttackSpec(eps=0.05, alpha=0.02, k=2),
                     batch_size=32)
    return run_sweep(spec, data)


@pytest.fixture(scope="module")
def sweep_rows():
    return tiny_sweep_rows()


class TestSweepSpec:
    def test_empty_axis_rejected(self):
        with pytest.raises(ParameterError):
            SweepSpec(widths=(), lambdas=(0.5,), seeds=(0,), epochs_list=(1,))

    @pytest.mark.parametrize("axis, values, repeated", [
        ("widths", (4, 8, 4), "4"), ("lambdas", (0.5, 1.0, 1), "1"),
        ("lambdas", (0.0, -0.0), "-0.0"), ("seeds", (0, 0), "0"), ("epochs_list", (3, 2, 3), "3")])
    def test_repeated_value_rejected(self, axis, values, repeated):
        # a repeated value used to be dropped with a UserWarning
        grid = dict(widths=(4,), lambdas=(0.5,), seeds=(0,), epochs_list=(1,))
        with pytest.raises(ParameterError, match=f"^{axis} entry {repeated} is repeated$"):
            SweepSpec(**{**grid, axis: values})

    def test_lambda_range(self):
        with pytest.raises(ParameterError):
            SweepSpec(widths=(4,), lambdas=(1.5,), seeds=(0,), epochs_list=(1,))

    def test_budget_below_one_rejected(self):
        # one run trains to the largest budget, so a zero budget beside it
        # must be rejected here rather than yield no rows
        with pytest.raises(ParameterError):
            SweepSpec(widths=(4,), lambdas=(0.5,), seeds=(0,), epochs_list=(3, 0))


class TestRunSweep:
    def test_includes_lambda_zero_family(self, sweep_rows):
        lambdas = {r["lambda"] for r in sweep_rows}
        assert lambdas == {0.0, 0.5}

    def test_grid_coverage(self, sweep_rows):
        cells = {(r["width"], r["lambda"], r["seed"], r["epoch_budget"])
                 for r in sweep_rows}
        assert len(cells) == 2 * 2 * 2 * 1

    def test_row_schema(self, sweep_rows):
        for r in sweep_rows:
            assert set(r) == set(CSV_COLUMNS)

    def test_gap_attached_to_adversarial_finals(self, sweep_rows):
        finals = [r for r in sweep_rows if r["epoch"] == r["epoch_budget"]]
        for r in finals:
            if r["lambda"] > 0:
                assert r["gap_ce"] is not None
            else:
                assert r["gap_ce"] is None

    @pytest.mark.parametrize("jobs", [0, -3, 1.5])
    def test_jobs_below_one_rejected(self, jobs):
        # jobs <= 0 used to run serially without a word
        spec = SweepSpec(widths=(4,), lambdas=(0.5,), seeds=(0,), epochs_list=(1,))
        with pytest.raises(ParameterError, match="jobs"):
            run_sweep(spec, blob_dataset(1, 40, 20, 4, 2, 0.15), jobs=jobs)

    def test_parallel_matches_serial(self):
        data = blob_dataset(1, 40, 20, 4, 2, 0.15)
        spec = SweepSpec(widths=(4,), lambdas=(0.5,), seeds=(0, 1),
                         epochs_list=(2,),
                         attack=AttackSpec(eps=0.05, alpha=0.02, k=2),
                         batch_size=20)
        serial = run_sweep(spec, data, jobs=1)
        parallel = run_sweep(spec, data, jobs=2)
        assert strip_timing(serial) == strip_timing(parallel)

    def test_heaviest_cells_first_rows_in_grid_order(self, monkeypatch, tmp_path):
        # a task trains the seeds of one (width, lambda) in lockstep; tasks with
        # an attack run first, widest first, so the pool's tail holds the light
        # tasks; rows still come out in grid order.  The one worker of --jobs 1
        # starts the tasks in queue order and logs each to a file.
        monkeypatch.setattr(sweep, "_run_cell", _logging_run_cell)
        monkeypatch.setattr(_logging_run_cell, "log", tmp_path / "started.jsonl", raising=False)
        data = blob_dataset(2, 40, 20, 4, 2, 0.15)
        spec = SweepSpec(widths=(3, 6), lambdas=(0.5, 1.0), seeds=(0, 1),
                         epochs_list=(1,),
                         attack=AttackSpec(eps=0.05, alpha=0.02, k=1),
                         batch_size=20)
        rows = run_sweep(spec, data, jobs=1)
        started = [(w, lam, tuple(seeds)) for w, lam, seeds in
                   map(json.loads, (tmp_path / "started.jsonl").read_text().splitlines())]
        stacks = [(w, lam, (0, 1)) for w in (3, 6) for lam in (0.0, 0.5, 1.0)]
        assert started == sorted(stacks, key=lambda c: (c[1] == 0.0, -c[0]))
        assert started[:2] == [(6, 0.5, (0, 1)), (6, 1.0, (0, 1))]
        grid = [(w, lam, s) for w in (3, 6) for lam in (0.0, 0.5, 1.0) for s in (0, 1)]
        assert [(r["width"], r["lambda"], r["seed"]) for r in rows] == grid

    @pytest.mark.parametrize("jobs, parts", [(1, [(0, 1, 2, 3, 4)]), (4, [(0, 1), (2, 3, 4)]),
                                             (5, [(0,), (1, 2), (3, 4)]),
                                             (7, [(0,), (1,), (2,), (3, 4)]),
                                             (40, [(0,), (1,), (2,), (3,), (4,)])])
    def test_fewer_stacks_than_jobs_split_the_seeds(self, jobs, parts):
        # two (width, lambda) stacks: lambda 0.5 and the automatic lambda 0
        spec = SweepSpec(widths=(4,), lambdas=(0.5,), seeds=(0, 1, 2, 3, 4), epochs_list=(1,))
        tasks = sweep._tasks(spec, jobs)
        assert [(w, lam, seeds) for _, w, lam, seeds in tasks] == \
               [(4, lam, part) for lam in (0.0, 0.5) for part in parts]
        assert len(tasks) >= min(jobs, 2 * len(spec.seeds))

    def test_split_stacks_match_one_worker(self):
        # 2 stacks for 3 workers: each stack's seeds split in two, so every worker
        # gets a task; rows equal the unsplit run's
        data = blob_dataset(3, 40, 20, 4, 2, 0.15)
        spec = SweepSpec(widths=(4,), lambdas=(0.5,), seeds=(0, 1, 2), epochs_list=(2,),
                         attack=AttackSpec(eps=0.05, alpha=0.02, k=2), batch_size=20)
        assert len(sweep._tasks(spec, 3)) == 4
        assert strip_timing(run_sweep(spec, data, jobs=3)) == \
               strip_timing(run_sweep(spec, data, jobs=1))


_RUN_CELL = sweep._run_cell


def _logging_run_cell(args):
    """sweep._run_cell, after appending the task's (width, lambda, seeds) as a JSON line
    to the file _logging_run_cell.log; module-level, so a pool can pickle it."""
    with open(_logging_run_cell.log, "a") as fh:
        fh.write(json.dumps([args[1], args[2], list(args[3])]) + "\n")
    return _RUN_CELL(args)


def _blas_threads(_):
    """A pool task: the OpenBLAS thread count of the worker that runs it."""
    return sweep.openblas_threads()[0]()


# A sweep at the paper's layer shapes, [784, 256, 10], where the BLAS thread count
# changes the last bits of the logits and the weight gradients.
PAPER_SHAPE_SWEEP = {
    "dataset": {"kind": "synthetic", "seed": 5, "n_train": 512, "n_test": 256, "d": 784,
                "K": 10, "spread": 1.0},
    "grid": {"widths": [256], "lambdas": [1.0], "seeds": [0, 1], "epochs_list": [1]},
    "attack": {"epsilon": 0.1, "alpha": 0.04, "k": 3},
    "train": {"batch_size": 128},
}


class TestPoolBlasThreads:
    def test_workers_report_the_capped_count(self):
        # every worker runs at one thread, whatever the worker count and nproc
        blas = sweep.openblas_threads()
        if blas is None:
            pytest.skip("numpy's bundled libraries export no known OpenBLAS thread-count symbol")
        before = blas[0]()
        for workers in (1, 2):
            with sweep._pool(None, workers) as pool:
                assert set(pool.map(_blas_threads, range(8), timeout=120)) == {1}
        assert blas[0]() == before  # the parent keeps its thread count

    def test_paper_shape_csv_does_not_depend_on_jobs(self, tmp_path):
        # --jobs 1 trained in the parent at its own thread count and --jobs 2 in
        # workers at nproc // 2 threads, so on 2 or more cores the CSVs differed
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(PAPER_SHAPE_SWEEP))
        tables = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert cli.main(["sweep", "--config", str(config), "--out", str(out),
                             "--jobs", str(jobs)]) == 0
            # epoch_wall_ms is the last column
            tables.append([line.rsplit(",", 1)[0]
                           for line in (out / "sweep.csv").read_text().splitlines()])
        assert tables[0][0].split(",") == CSV_COLUMNS[:-1] and len(tables[0]) == 5
        assert tables[0] == tables[1]

    def test_pool_capped_at_the_task_count(self, monkeypatch):
        # under fork the executor starts every worker at the first task, so
        # --jobs 40 on a 2-task grid forked 38 idle copies of the parent; the spy
        # records the count asked for and starts at most 2
        asked = []

        class Spy(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                asked.append(max_workers)
                super().__init__(min(max_workers, 2), **kwargs)

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", Spy)
        spec = SweepSpec(widths=(4,), lambdas=(0.5,), seeds=(0,), epochs_list=(1,),
                         attack=AttackSpec(eps=0.05, alpha=0.02, k=1), batch_size=20)
        rows = run_sweep(spec, blob_dataset(1, 40, 20, 4, 2, 0.15), jobs=40)
        assert asked == [2] and len(rows) == 2

    def test_no_symbol_one_warning_and_no_cap(self, monkeypatch, caplog):
        monkeypatch.setattr(sweep, "openblas_threads", lambda: None)
        data = blob_dataset(1, 40, 20, 4, 2, 0.15)
        spec = SweepSpec(widths=(4,), lambdas=(0.5,), seeds=(0,), epochs_list=(1,),
                         attack=AttackSpec(eps=0.05, alpha=0.02, k=1), batch_size=20)
        with caplog.at_level(logging.WARNING, logger="advlab.sweep"):
            rows = run_sweep(spec, data, jobs=2)
        assert len(rows) == 2
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "OpenBLAS" in caplog.records[0].getMessage()


class TestOneTrajectoryPerCell:
    """run_sweep trains each (width, lambda, seed) once, to the largest
    budget, and reads the shorter budgets off that run.  That is only
    right while a run of b epochs is a prefix of a longer run, so every
    budget's rows must equal a separate train() run of b epochs."""

    DATA = blob_dataset(2, 48, 24, 4, 3, 0.25)
    ATTACK = AttackSpec(eps=0.05, alpha=0.02, k=2, random_start=True)
    SCHEDULE = LoatSchedule(variant="LORE", e1=2, e2=20)
    # unsorted; 12 and 27 record every 25th epoch plus the last
    SPEC = SweepSpec(widths=(5,), lambdas=(0.6,), seeds=(3, 1), epochs_list=(12, 3, 27),
                     attack=ATTACK, schedule=SCHEDULE, batch_size=16)

    @classmethod
    def separate_runs(cls):
        """The rows of one train() run per (width, lambda, seed, budget)."""
        rows = []
        for lam in (0.0, 0.6):
            for seed in cls.SPEC.seeds:
                for budget in cls.SPEC.epochs_list:
                    cfg = TrainConfig(
                        model=MlpConfig([4, 5, 3], seed=seed),
                        objective=ObjectiveSpec(kind="mixture", lam=lam),
                        attack=cls.ATTACK, schedule=cls.SCHEDULE, epochs=budget,
                        batch_size=16, seed=seed, metrics_every=1 if budget <= 10 else 25,
                        eval_attacks=(("fgsm", AttackSpec(eps=0.05, alpha=0.05, k=1)),
                                      ("pgd", AttackSpec(eps=0.05, alpha=0.02, k=2))))
                    _, history = train(cfg, cls.DATA)
                    rows += [record_row(rec, f"w5_l{lam:g}_s{seed}_e{budget}",
                                        5, lam, seed, budget) for rec in history]
        attach_gaps(rows)
        return rows

    @pytest.fixture(scope="class")
    def expected(self):
        return strip_timing(self.separate_runs())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_budgets_equal_separate_runs(self, expected, jobs):
        got = strip_timing(run_sweep(self.SPEC, self.DATA, jobs=jobs))
        assert [r["epoch"] for r in got if r["run_id"] == "w5_l0.6_s3_e27"] == [25, 27]
        assert [r["epoch"] for r in got if r["run_id"] == "w5_l0.6_s3_e12"] == [12]
        assert got == expected


class TestAttachGaps:
    def _row(self, width, lam, seed, budget, epoch, loss):
        r = {c: None for c in CSV_COLUMNS}
        r.update(run_id=f"w{width}_l{lam:g}_s{seed}_e{budget}", width=width,
                 **{"lambda": lam}, seed=seed, epoch_budget=budget, epoch=epoch,
                 clean_test_loss=loss)
        return r

    def test_min_over_seeds(self):
        rows = [self._row(4, 0.0, 0, 2, 2, 0.50),
                self._row(4, 0.0, 1, 2, 2, 0.40),
                self._row(4, 0.5, 0, 2, 2, 0.70),
                self._row(4, 0.5, 1, 2, 2, 0.65)]
        attach_gaps(rows)
        assert rows[2]["gap_ce"] == pytest.approx(0.65 - 0.40)
        assert rows[3]["gap_ce"] == pytest.approx(0.65 - 0.40)
        assert rows[0]["gap_ce"] is None

    def test_only_final_epoch_rows_updated(self):
        rows = [self._row(4, 0.0, 0, 2, 2, 0.50),
                self._row(4, 0.5, 0, 2, 1, 0.90),
                self._row(4, 0.5, 0, 2, 2, 0.70)]
        attach_gaps(rows)
        assert rows[1]["gap_ce"] is None
        assert rows[2]["gap_ce"] == pytest.approx(0.20)

    def test_missing_baseline_family_leaves_none(self):
        rows = [self._row(4, 0.5, 0, 2, 2, 0.70)]
        attach_gaps(rows)
        assert rows[0]["gap_ce"] is None


class TestCsvRoundTrip:
    def test_columns_pinned(self):
        assert CSV_COLUMNS == [
            "run_id", "width", "lambda", "seed", "epoch_budget", "epoch",
            "clean_train_loss", "clean_train_acc", "clean_test_loss",
            "clean_test_acc", "fgsm_acc", "pgd_acc", "gamma_hat",
            "gamma_hat_c", "gamma_hat_m", "gamma_ce", "bound_lower",
            "bound_upper", "gap_ce", "epoch_wall_ms",
        ]

    def test_roundtrip(self, sweep_rows, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(sweep_rows, path)
        loaded = read_csv(path)
        assert len(loaded) == len(sweep_rows)
        for orig, back in zip(sweep_rows, loaded):
            assert back["run_id"] == orig["run_id"]
            assert back["width"] == orig["width"]
            for k in ("clean_test_loss", "gamma_hat", "gap_ce", "gamma_ce"):
                if orig[k] is None:
                    assert back[k] is None
                else:
                    assert back[k] == pytest.approx(orig[k], rel=1e-12)

    @pytest.mark.parametrize("column", ["width", "seed", "epoch_budget", "epoch"])
    def test_non_integral_integer_column_rejected(self, column, tmp_path):
        # a non-integral value is an error, not truncated; an integral float still reads
        rows = [{c: None for c in CSV_COLUMNS} for _ in range(2)]
        for i, row in enumerate(rows):
            row.update(run_id=f"r{i}", width=4, seed=0, epoch_budget=2, epoch=2,
                       **{"lambda": 0.5})
        rows[1][column] = 2.7
        path = tmp_path / "bad.csv"
        write_csv(rows, path)
        with pytest.raises(ParameterError, match=f"row 2: {column} '2.7' is not an integer"):
            read_csv(path)
        rows[1][column] = 2.0
        write_csv(rows, path)
        assert read_csv(path)[1][column] == 2

    @staticmethod
    def csv_with_cell(tmp_path, column, value):
        """A two-row CSV whose row 2 holds the text `value` in `column`."""
        rows = [{c: None for c in CSV_COLUMNS} for _ in range(2)]
        for i, row in enumerate(rows):
            row.update(run_id=f"r{i}", width=4, seed=0, epoch_budget=2, epoch=2, gap_ce=0.5,
                       **{"lambda": 0.5})
        path = tmp_path / "bad.csv"
        write_csv(rows, path)
        text = path.read_text().splitlines()
        header = text[0].split(",")
        cells = text[2].split(",")
        cells[header.index(column)] = value
        path.write_text("\n".join([*text[:2], ",".join(cells)]) + "\n")
        return path

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["gap_ce", "gamma_hat_c", "lambda", "width"])
    def test_non_finite_value_rejected(self, column, value, tmp_path):
        path = self.csv_with_cell(tmp_path, column, value)
        with pytest.raises(ParameterError, match=f"^CSV row 2: {column} must be a finite real"):
            read_csv(path)

    @pytest.mark.parametrize("column", ["clean_train_loss", "lambda", "epoch"])
    def test_non_number_cell_rejected(self, column, tmp_path):
        # float's own "could not convert string to float: 'abc'" named no row or column
        path = self.csv_with_cell(tmp_path, column, "abc")
        with pytest.raises(ParameterError, match=f"^CSV row 2: {column} 'abc' is not a number$"):
            read_csv(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("run_id,width\nx,4\n")
        with pytest.raises(ParameterError):
            read_csv(path)


@st.composite
def paired_samples(draw):
    """(x, y) of n in [3, 200] entries each, neither constant: each column rounded to
    0..17 decimals (so low ones tie) and scaled by a power of ten in [1e-200, 1e200]."""
    n = draw(st.integers(3, 200))

    def column():
        digits = draw(st.integers(0, 17))
        scale = 10.0 ** draw(st.integers(-200, 200))
        unit = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
        return np.array([round(v, digits) * scale for v in unit])

    x, y = column(), column()
    assume(np.ptp(x) > 0.0 and np.ptp(y) > 0.0)
    return x, y


class TestCorrelate:
    def _row(self, run_id, budget, epoch, g, gap):
        r = {c: None for c in CSV_COLUMNS}
        r.update(run_id=run_id, epoch_budget=budget, epoch=epoch,
                 gamma_ce=g, gap_ce=gap)
        return r

    def test_exact_positive_correlation(self):
        rows = [self._row(f"r{i}", 5, 5, float(i), 2.0 * i + 1.0)
                for i in range(4)]
        rep = correlate(rows, "early")
        assert rep.pearson_r == pytest.approx(1.0, abs=1e-12)
        assert rep.spearman_rho == pytest.approx(1.0, abs=1e-12)
        assert rep.n_points == 4

    def test_exact_negative_correlation(self):
        rows = [self._row(f"r{i}", 5, 5, float(i), -float(i) ** 3)
                for i in range(5)]
        rep = correlate(rows, "late")
        assert rep.pearson_r < -0.9
        assert rep.spearman_rho == pytest.approx(-1.0, abs=1e-12)

    def test_regime_selects_budget(self):
        rows = ([self._row(f"a{i}", 2, 2, float(i), float(i)) for i in range(3)]
                + [self._row(f"b{i}", 9, 9, float(i), -float(i)) for i in range(3)])
        early = correlate(rows, "early")
        late = correlate(rows, "late")
        assert early.pearson_r == pytest.approx(1.0, abs=1e-12)
        assert late.pearson_r == pytest.approx(-1.0, abs=1e-12)

    def test_undefined_rows_counted_excluded(self):
        rows = [self._row(f"r{i}", 5, 5, float(i), float(i)) for i in range(3)]
        rows.append(self._row("r9", 5, 5, None, 1.0))
        rep = correlate(rows, "early")
        assert rep.n_points == 3 and rep.n_excluded == 1

    def test_too_few_points(self):
        rows = [self._row("r0", 5, 5, 1.0, 1.0), self._row("r1", 5, 5, 2.0, 2.0)]
        with pytest.raises(InsufficientDataError):
            correlate(rows, "early")

    def test_zero_variance(self):
        rows = [self._row(f"r{i}", 5, 5, 1.0, float(i)) for i in range(4)]
        with pytest.raises(InsufficientDataError):
            correlate(rows, "early")

    def test_bad_regime(self):
        with pytest.raises(ParameterError):
            correlate([], "middle")

    @settings(deadline=None, database=None, max_examples=200)
    @given(paired_samples())
    def test_bit_identical_to_scipy(self, xy):
        x, y = xy
        rep = correlate([self._row(f"r{i}", 5, 5, float(g), float(gap))
                         for i, (g, gap) in enumerate(zip(x, y))], "early")
        assert rep.pearson_r == stats.pearsonr(x, y).statistic
        assert rep.spearman_rho == stats.spearmanr(x, y).statistic


class TestSlopes:
    @staticmethod
    def _row(width, lam, c, m):
        r = {col: None for col in CSV_COLUMNS}
        r.update(width=width, **{"lambda": lam}, gamma_hat_c=c, gamma_hat_m=m)
        return r

    def test_slopes_by_exact_line(self):
        rows = [self._row(4, 0.5, x, y) for x, y in zip([0.0, 1.0, 2.0, 3.0],
                                                          [1.0, 1.6, 2.2, 2.8])]
        assert slopes_by(rows, "width")[4] == pytest.approx(0.6, abs=1e-12)

    def test_slopes_by_group(self):
        rows = [self._row(4, 0.5, 0.0, 1.0), self._row(4, 0.5, 1.0, 3.0),
                self._row(8, 0.5, 0.0, 0.0), self._row(8, 0.5, 2.0, 1.0),
                self._row(4, 0.0, 0.0, 99.0)]  # standard family must be ignored
        by_w = slopes_by(rows, "width")
        assert by_w[4] == pytest.approx(2.0, abs=1e-12)
        assert by_w[8] == pytest.approx(0.5, abs=1e-12)
        by_l = slopes_by(rows, "lambda")
        assert set(by_l) == {0.5}

    def test_slopes_by_undefined_is_none(self):
        # one point, or points without spread in gamma_hat_c, leave the slope undefined
        rows = [self._row(4, 0.5, 1.0, 2.0), self._row(4, 0.5, None, 3.0),
                self._row(8, 0.5, 1.0, 2.0), self._row(8, 0.5, 1.0, 5.0),
                self._row(16, 0.5, 0.0, 0.0), self._row(16, 0.5, 1.0, 3.0)]
        assert slopes_by(rows, "width") == {4: None, 8: None, 16: pytest.approx(3.0)}


def figure_rows():
    """Runs with two recorded epochs each, as a sweep writes them: gap_ce on final rows
    only.  Run w4_l0.5_s1 lacks gamma_ce at its final epoch, width 16 has one radius
    point (its first epoch has no misclassified rows), and the lambda=0 run and the
    first epochs carry values that would move every mean they entered."""
    def row(run_id, width, lam, budget, epoch, c, m, g, gap=None):
        r = {col: None for col in CSV_COLUMNS}
        r.update(run_id=run_id, width=width, seed=0, epoch_budget=budget, epoch=epoch,
                 gamma_hat_c=c, gamma_hat_m=m, gamma_ce=g, gap_ce=gap, **{"lambda": lam})
        return r

    return [
        row("w4_l0.5_s0_e2", 4, 0.5, 2, 1, 1.0, 2.0, 0.5),
        row("w4_l0.5_s0_e2", 4, 0.5, 2, 2, 2.0, 3.5, 0.75, 0.5),
        row("w4_l0.5_s1_e2", 4, 0.5, 2, 1, 1.5, 2.0, 0.25),
        row("w4_l0.5_s1_e2", 4, 0.5, 2, 2, 3.0, 1.0, None, 0.25),
        row("w4_l1_s0_e2", 4, 1.0, 2, 1, 0.5, 0.5, 0.125),
        row("w4_l1_s0_e2", 4, 1.0, 2, 2, 1.0, 0.75, 0.25, 0.375),
        row("w16_l0.5_s0_e2", 16, 0.5, 2, 1, 1.0, None, 1.0),
        row("w16_l0.5_s0_e2", 16, 0.5, 2, 2, 2.0, 4.0, 2.0, 0.0),
        # a longer budget's rows come after its first epochs in the file, as in a sweep
        row("w4_l1_s0_e4", 4, 1.0, 4, 4, 1.5, 1.25, 1.5, 0.5),
        row("w4_l1_s0_e4", 4, 1.0, 4, 3, 0.75, 1.0, 0.5),
        row("w4_l0_s0_e2", 4, 0.0, 2, 1, 9.0, 9.0, 9.0),
        row("w4_l0_s0_e2", 4, 0.0, 2, 2, 9.0, 9.0, 9.0),
    ]


class TestFigureData:
    def test_fig2_slopes_are_slopes_by(self):
        rows = figure_rows()
        data = figure_data(rows, "fig2")
        assert data["figure"] == "fig2"
        assert {s["width"]: s["slope"] for s in data["series"]} == slopes_by(rows, "width")

    def test_fig2_points_and_line(self):
        rows = figure_rows()
        wide, narrow = figure_data(rows, "fig2")["series"][::-1]
        assert [p[0] for p in narrow["points"]] == [1.0, 2.0, 1.5, 3.0, 0.5, 1.0, 1.5, 0.75]
        c, m = np.array(narrow["points"]).T
        slope, intercept = np.polyfit(c, m, 1)
        assert [x for x, _ in narrow["line"]] == [0.5, 3.0]
        assert [y for _, y in narrow["line"]] == pytest.approx(
            [slope * 0.5 + intercept, slope * 3.0 + intercept], abs=1e-12)
        # width 16 has one point: it is kept, without a slope or a line
        assert wide == {"width": 16, "points": [[2.0, 4.0]], "slope": None, "line": None}

    @pytest.mark.parametrize("figure, x, expected", [
        ("fig3", "lambda", [
            {"epoch_budget": 2, "lambda": [0.5, 1.0],
             "gamma_ce": [(0.75 + 2.0) / 2, 0.25], "gap_ce": [(0.5 + 0.25 + 0.0) / 3, 0.375]},
            {"epoch_budget": 4, "lambda": [1.0], "gamma_ce": [1.5], "gap_ce": [0.5]}]),
        ("fig4", "width", [
            {"epoch_budget": 2, "width": [4, 16],
             "gamma_ce": [(0.75 + 0.25) / 2, 2.0], "gap_ce": [(0.5 + 0.25 + 0.375) / 3, 0.0]},
            {"epoch_budget": 4, "width": [4], "gamma_ce": [1.5], "gap_ce": [0.5]}]),
    ])
    def test_final_row_means(self, figure, x, expected):
        # hand oracle: each run's epoch-2 (epoch-4) row, lambda > 0, each mean over the
        # rows that have the field
        assert figure_data(figure_rows(), figure) == {"figure": figure, "x": x,
                                                      "series": expected}

    def test_means_read_the_final_rows_chosen_by_final_rows(self):
        rows = figure_rows()
        for r in rows:
            if r not in sweep._final_rows(rows):
                r["gamma_ce"] = r["gap_ce"] = 1e9
        assert figure_data(rows, "fig4") == figure_data(figure_rows(), "fig4")

    @pytest.mark.parametrize("figure", ["fig2", "fig3", "fig4"])
    def test_nothing_to_plot(self, figure):
        rows = [r for r in figure_rows() if r["lambda"] == 0.0]
        with pytest.raises(InsufficientDataError, match=f"no usable rows for {figure}"):
            figure_data(rows, figure)
