import logging
import os

import pytest

from advlab import sweep
from advlab.attacks import AttackSpec
from advlab.core import ParameterError
from advlab.data import blob_dataset
from advlab.loat import LoatSchedule
from advlab.mlp import MlpConfig
from advlab.objectives import ObjectiveSpec
from advlab.sweep import (CSV_COLUMNS, InsufficientDataError, SweepSpec,
                          attach_gaps, correlate, least_squares_slope,
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

    def test_duplicates_warn_and_dedupe(self):
        with pytest.warns(UserWarning):
            spec = SweepSpec(widths=(4, 4, 8), lambdas=(0.5,), seeds=(0,),
                             epochs_list=(1,))
        assert spec.widths == (4, 8)

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

    def test_heaviest_cells_first_rows_in_grid_order(self, monkeypatch):
        # a task trains the seeds of one (width, lambda) in lockstep; tasks with
        # an attack run first, widest first, so the pool's tail holds the light
        # tasks; rows still come out in grid order
        started = []
        run_cell = sweep._run_cell

        def recording(args):
            started.append((args[1], args[2], args[3]))
            return run_cell(args)

        monkeypatch.setattr(sweep, "_run_cell", recording)
        data = blob_dataset(2, 40, 20, 4, 2, 0.15)
        spec = SweepSpec(widths=(3, 6), lambdas=(0.5, 1.0), seeds=(0, 1),
                         epochs_list=(1,),
                         attack=AttackSpec(eps=0.05, alpha=0.02, k=1),
                         batch_size=20)
        rows = run_sweep(spec, data, jobs=1)
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


def _blas_threads(_):
    """A pool task: the OpenBLAS thread count of the worker that runs it."""
    return sweep.openblas_threads()[0]()


class TestPoolBlasThreads:
    def test_workers_report_the_capped_count(self):
        blas = sweep.openblas_threads()
        if blas is None:
            pytest.skip("numpy's bundled libraries export no known OpenBLAS thread-count symbol")
        before = blas[0]()
        with sweep._pool(None, 2) as pool:
            counts = set(pool.map(_blas_threads, range(8), timeout=120))
        assert counts == {max(1, len(os.sched_getaffinity(0)) // 2)}
        assert blas[0]() == before  # the parent keeps its thread count

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
            row.update(run_id=f"r{i}", width=4, seed=0, epoch_budget=2, epoch=2)
        rows[1][column] = 2.7
        path = tmp_path / "bad.csv"
        write_csv(rows, path)
        with pytest.raises(ParameterError, match=f"row 2: {column} '2.7' is not an integer"):
            read_csv(path)
        rows[1][column] = 2.0
        write_csv(rows, path)
        assert read_csv(path)[1][column] == 2

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("run_id,width\nx,4\n")
        with pytest.raises(ParameterError):
            read_csv(path)


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


class TestSlopes:
    def test_least_squares_exact_line(self):
        x = [0.0, 1.0, 2.0, 3.0]
        y = [1.0, 1.6, 2.2, 2.8]
        assert least_squares_slope(x, y) == pytest.approx(0.6, abs=1e-12)

    def test_least_squares_needs_variation(self):
        with pytest.raises(InsufficientDataError):
            least_squares_slope([1.0, 1.0], [0.0, 1.0])
        with pytest.raises(InsufficientDataError):
            least_squares_slope([1.0], [2.0])

    def test_slopes_by_group(self):
        def row(width, lam, c, m):
            r = {col: None for col in CSV_COLUMNS}
            r.update(width=width, **{"lambda": lam}, gamma_hat_c=c, gamma_hat_m=m)
            return r

        rows = [row(4, 0.5, 0.0, 1.0), row(4, 0.5, 1.0, 3.0),
                row(8, 0.5, 0.0, 0.0), row(8, 0.5, 2.0, 1.0),
                row(4, 0.0, 0.0, 99.0)]  # standard family must be ignored
        by_w = slopes_by(rows, "width")
        assert by_w[4] == pytest.approx(2.0, abs=1e-12)
        assert by_w[8] == pytest.approx(0.5, abs=1e-12)
        by_l = slopes_by(rows, "lambda")
        assert set(by_l) == {0.5}
