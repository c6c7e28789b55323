"""The benchmark's workloads: parameters, set-up, timed operation, checks.

Every workload draws its inputs from the workload seed alone; advlab gets
only the generated data and configs.  All data are synthetic Gaussian
blobs (`blob_dataset`).  The spreads keep accuracy away from both chance
and 1.0, so the correct and misclassified subsets are both non-empty and
gamma_ce is defined.

A workload's operation is the unit that `op_s` times:
  pgd_train, clean_train  one `trainer.train` call
  eval_analysis           one `trainer.evaluate` with the FGSM and PGD-10
                          eval attacks, then the analysis path
  sweep_grid              `advlab sweep` plus `advlab correlate` for the
                          early and the late regime, through `cli.main`
Each advlab call inside an operation counts as one attempted operation
for `failed`/`attempted`; it fails if it raises, exits non-zero, or its
output fails a check.  Checks run outside the timed region.

Every call goes through a module attribute (`lab.trainer.train`, ...),
so a tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import checks

CSV_V1 = ["run_id", "width", "lambda", "seed", "epoch_budget", "epoch",
          "clean_train_loss", "clean_train_acc", "clean_test_loss", "clean_test_acc",
          "fgsm_acc", "pgd_acc", "gamma_hat", "gamma_hat_c", "gamma_hat_m",
          "gamma_ce", "bound_lower", "bound_upper", "gap_ce", "epoch_wall_ms"]

REFERENCE_DATA = dict(n_train=4000, n_test=2000, d=784, K=10, spread=2.0)
SMALL_DATA = dict(n_train=256, n_test=128, d=784, K=10, spread=2.0)
EPS, ALPHA = 8 / 255, 2 / 255


class Call:
    """One advlab call inside an operation: its output, or the error it raised."""

    def __init__(self, name, fn, *args, **kwargs):
        self.name = name
        try:
            self.out, self.error = fn(*args, **kwargs), None
        except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
            self.out, self.error = None, f"{type(exc).__name__}: {exc}"


class Workload:
    name = ""

    def params(self, small: bool) -> dict:
        raise NotImplementedError

    def setup(self, lab, p: dict, seed: int, work: Path) -> dict:
        raise NotImplementedError

    def op(self, lab, p: dict, state: dict, index) -> list:
        """Run one operation; returns its Calls."""
        raise NotImplementedError

    def finish(self, calls: list, state: dict, index) -> None:
        """After an operation, outside the timed region: digest each output."""
        for c in calls:
            if c.error is None:
                c.digest = checks.digest(_plain(c.out))

    def check(self, lab, p: dict, state: dict, ops: list) -> list:
        """Problems found in the outputs, as (op index, call name, message)."""
        raise NotImplementedError

    def golden(self, lab, work: Path, jobs: int) -> dict:
        """Digests of a small pinned-seed run, compared with reference.json."""
        raise NotImplementedError


def _dataset(lab, seed, d):
    return lab.data.blob_dataset(seed, d["n_train"], d["n_test"], d["d"], d["K"], d["spread"])


def _failures(ops, check_one):
    """Run check_one on the first complete op; later ops must repeat its outputs.

    An op whose outputs equal the checked ones shares their problems.
    """
    problems = []
    first = found = None
    for i, calls in enumerate(ops):
        problems += [(i, c.name, c.error) for c in calls if c.error]
        if any(c.error for c in calls):
            continue
        d = [c.digest for c in calls]
        if first is None:
            first = d
            try:
                found = check_one(calls)
            except Exception as exc:  # noqa: BLE001 - malformed output fails its check
                found = [(calls[0].name, f"check raised {type(exc).__name__}: {exc}")]
        elif d != first:
            problems += [(i, c.name, "output differs from the first operation")
                         for c, a, b in zip(calls, d, first) if a != b]
            continue
        problems += [(i, name, msg) for name, msg in found]
    return problems


# -- training ---------------------------------------------------------------

class _Training(Workload):
    def train_config(self, lab, p, seed):
        attack = {"attack": lab.attacks.AttackSpec(**p["attack"])} if "attack" in p else {}
        return lab.trainer.TrainConfig(
            model=lab.mlp.MlpConfig(p["widths"], seed=seed),
            objective=lab.objectives.ObjectiveSpec(kind=p["objective"], lam=p["lam"]),
            schedule=lab.loat.LoatSchedule(**p["schedule"]),
            epochs=p["epochs"], batch_size=p["batch_size"], lr=p["lr"], seed=seed,
            metrics_every=p["epochs"], **attack)

    def setup(self, lab, p, seed, work):
        return {"data": _dataset(lab, seed, p["data"]),
                "cfg": self.train_config(lab, p, seed)}

    def op(self, lab, p, state, index):
        return [Call("train", lab.trainer.train, state["cfg"], state["data"])]

    def finish(self, calls, state, index):
        for c in calls:
            if c.error is None:
                c.digest = checks.run_digest(*c.out)

    def check(self, lab, p, state, ops):
        return _failures(ops, lambda calls: self._check_train(p, state, calls[0].out))

    def _check_train(self, p, state, out):
        weights, history = out
        data, cfg = state["data"], state["cfg"]
        bad = []
        widths = [w.shape[1] for w in weights[:1]] + [w.shape[0] for w in weights]
        if widths != p["widths"] or not all(np.isfinite(w).all() for w in weights):
            bad.append(("train", f"weights have widths {widths} or non-finite entries"))
            return bad
        if [r.epoch for r in history] != [cfg.epochs]:
            bad.append(("train", f"history epochs {[r.epoch for r in history]}"))
            return bad
        rec = history[-1]
        tr_loss, tr_acc, z = checks.risk(weights, data.train.inputs, data.train.labels)
        te_loss, te_acc, _ = checks.risk(weights, data.test.inputs, data.test.labels)
        g, gc, gm, nc, nw = checks.radius(z, data.train.labels)
        expected = dict(clean_train_loss=tr_loss, clean_train_acc=tr_acc,
                        clean_test_loss=te_loss, clean_test_acc=te_acc,
                        gamma_hat=g, gamma_hat_c=gc, gamma_hat_m=gm)
        for field, want in expected.items():
            if not checks.close(getattr(rec, field), want):
                bad.append(("train", f"{field} {getattr(rec, field)} != recomputed {want}"))
        if rec.adv_test_acc != {}:
            bad.append(("train", f"unexpected eval attacks {rec.adv_test_acc}"))
        if not 1.0 / p["data"]["K"] < tr_acc < 1.0:
            bad.append(("train", f"train accuracy {tr_acc} is chance or perfect"))
        return bad

    def golden(self, lab, work, jobs):
        p = self.params(small=True)
        data = _dataset(lab, 0, p["data"])
        weights, history = lab.trainer.train(self.train_config(lab, p, 0), data)
        return checks.run_digest(weights, history)


class PgdTrain(_Training):
    name = "pgd_train"

    def params(self, small):
        return dict(data=SMALL_DATA if small else REFERENCE_DATA, widths=[784, 256, 10],
                    objective="mixture", lam=1.0, attack=dict(p="inf", eps=EPS, alpha=ALPHA, k=10),
                    schedule=dict(variant="LORE", e1=1, e2=100), epochs=1, batch_size=128,
                    lr=0.1)


class CleanTrain(_Training):
    name = "clean_train"

    def params(self, small):
        return dict(data=SMALL_DATA if small else REFERENCE_DATA, widths=[784, 256, 10],
                    objective="mixture", lam=0.0, schedule=dict(variant="SLORE", e1=5, e2=100),
                    epochs=5, batch_size=128, lr=0.1)


# -- evaluation and analysis --------------------------------------------------

class EvalAnalysis(Workload):
    name = "eval_analysis"

    def params(self, small):
        return dict(data=SMALL_DATA if small else REFERENCE_DATA, widths=[784, 256, 10],
                    checkpoint=dict(objective="standard", epochs=3, batch_size=128, lr=0.1),
                    eval_attacks=dict(fgsm=dict(p="inf", eps=EPS, alpha=EPS, k=1),
                                      pgd=dict(p="inf", eps=EPS, alpha=ALPHA, k=10)),
                    snapshot_scales=[0.5, 1.0, 1.5, 2.0],
                    mc_draws=1000 if small else 20000, exhaustive_n=10 if small else 16)

    def setup(self, lab, p, seed, work):
        data = _dataset(lab, seed, p["data"])
        ck = p["checkpoint"]
        cfg = lab.trainer.TrainConfig(
            model=lab.mlp.MlpConfig(p["widths"], seed=seed),
            objective=lab.objectives.ObjectiveSpec(kind=ck["objective"]),
            epochs=ck["epochs"], batch_size=ck["batch_size"], lr=ck["lr"], seed=seed,
            metrics_every=ck["epochs"])
        trained, _ = lab.trainer.train(cfg, data)
        path = work / "checkpoint.amlp"
        lab.mlp.save_checkpoint(trained, path)
        weights = lab.mlp.load_checkpoint(path)
        return {"data": data, "weights": weights,
                "attacks": tuple((n, lab.attacks.AttackSpec(**a))
                                 for n, a in p["eval_attacks"].items()),
                "table": self._loss_table(lab, weights, data.train, p["snapshot_scales"]),
                "seed": seed}

    @staticmethod
    def _loss_table(lab, weights, batch, scales):
        """Per-sample CE of the checkpoint with its last layer scaled, one row per scale."""
        rows = []
        for s in scales:
            snap = weights[:-1] + [s * weights[-1]]
            per_sample, _ = lab.objectives.ce_loss(lab.mlp.forward(snap, batch.inputs).logits,
                                                   batch.labels)
            rows.append(per_sample)
        return np.array(rows)

    def op(self, lab, p, state, index):
        w, data, table = state["weights"], state["data"], state["table"]
        fr = lab.fisher_rao
        calls = [Call("evaluate", lab.trainer.evaluate, w, data, state["attacks"]),
                 Call("fr_norm_ce", fr.fr_norm_ce, w, data.train),
                 Call("radius_estimates", fr.radius_estimates, w, data.train)]
        est = calls[-1].out
        calls.append(Call("complexity_bounds", self._bounds, lab, est, data.train.num_classes))
        calls.append(Call("empirical_rademacher", fr.empirical_rademacher, table,
                          lab.core.make_rng(state["seed"]), p["mc_draws"]))
        calls.append(Call("exhaustive_rademacher", fr.exhaustive_rademacher,
                          table[:, :p["exhaustive_n"]]))
        return calls

    @staticmethod
    def _bounds(lab, est, k):
        fr = lab.fisher_rao
        g = fr.gamma_ce(est)
        return g, fr.complexity_bounds(fr.BoundInputs(
            n=est.n, n_correct=est.n_correct, n_wrong=est.n_wrong, num_classes=k,
            gamma_hat_m=est.gamma_hat_m, gamma_ce=g))

    def check(self, lab, p, state, ops):
        return _failures(ops, lambda calls: self._check_first(lab, p, state, calls))

    def _check_first(self, lab, p, state, calls):
        out = {c.name: c.out for c in calls}
        w, data, table = state["weights"], state["data"], state["table"]
        bad = []
        rec = out["evaluate"]
        tr_loss, tr_acc, z = checks.risk(w, data.train.inputs, data.train.labels)
        te_loss, te_acc, _ = checks.risk(w, data.test.inputs, data.test.labels)
        g, gc, gm, nc, nw = checks.radius(z, data.train.labels)
        gamma = (gc - gm) / gm
        lo, hi = checks.bounds(nc + nw, nc, nw, data.train.num_classes, gm, gamma)
        expected = dict(clean_train_loss=tr_loss, clean_train_acc=tr_acc,
                        clean_test_loss=te_loss, clean_test_acc=te_acc, gamma_hat=g,
                        gamma_hat_c=gc, gamma_hat_m=gm, gamma_ce=gamma,
                        bound_lower=lo, bound_upper=hi)
        for field, want in expected.items():
            if not checks.close(getattr(rec, field), want):
                bad.append(("evaluate", f"{field} {getattr(rec, field)} != recomputed {want}"))
        bad += [("evaluate", m) for m in self._check_attacks(lab, state, rec)]

        est = out["radius_estimates"]
        got = (est.gamma_hat, est.gamma_hat_c, est.gamma_hat_m, est.n_correct, est.n_wrong)
        if not all(checks.close(a, b) for a, b in zip(got, (g, gc, gm, nc, nw))):
            bad.append(("radius_estimates", f"{got} != recomputed {(g, gc, gm, nc, nw)}"))
        g_out, (lo_out, hi_out) = out["complexity_bounds"]
        if not all(checks.close(a, b) for a, b in ((g_out, gamma), (lo_out, lo), (hi_out, hi))):
            bad.append(("complexity_bounds", f"{(g_out, lo_out, hi_out)} != {(gamma, lo, hi)}"))

        probs = np.exp(z - z.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        u = (probs * z).sum(axis=1) - z[np.arange(len(z)), data.train.labels]
        want = (len(w) * float(np.sqrt(np.mean(u ** 2))), float(np.mean(np.abs(u))))
        if not all(checks.close(a, b) for a, b in zip(out["fr_norm_ce"], want)):
            bad.append(("fr_norm_ce", f"{out['fr_norm_ce']} != recomputed {want}"))

        est_mc, se = out["empirical_rademacher"]
        ref, ref_se = checks.mc_rademacher(table, np.random.default_rng(state["seed"] + 1),
                                           max(1000, p["mc_draws"] // 5))
        if not (se > 0 and abs(est_mc - ref) <= 5 * np.hypot(se, ref_se)):
            bad.append(("empirical_rademacher",
                        f"{est_mc} +- {se} disagrees with an independent {ref} +- {ref_se}"))
        exact = checks.exhaustive_rademacher(table[:, :p["exhaustive_n"]])
        if not checks.close(out["exhaustive_rademacher"], exact):
            bad.append(("exhaustive_rademacher", f"{out['exhaustive_rademacher']} != {exact}"))
        return bad

    @staticmethod
    def _check_attacks(lab, state, rec):
        """Replay each eval attack as evaluate() runs it and check its output."""
        w, test = state["weights"], state["data"].test
        clean = checks.ce_per_sample(checks.logits(w, test.inputs), test.labels)
        bad = []
        for name, spec in state["attacks"]:
            adv = lab.attacks.pgd(w, test, spec, lab.core.make_rng(12345))
            z = checks.logits(w, adv)
            if np.abs(adv - test.inputs).max() > spec.eps + 1e-12:
                bad.append(f"{name}: output leaves the eps-ball")
            if adv.min() < 0.0 or adv.max() > 1.0:
                bad.append(f"{name}: output leaves [0, 1]")
            if np.any(checks.ce_per_sample(z, test.labels) < clean - 1e-12):
                bad.append(f"{name}: CE(adv) < CE(clean) on some sample")
            acc = float((z.argmax(axis=1) == test.labels).mean())
            if rec.adv_test_acc.get(name) != acc:
                bad.append(f"{name}: accuracy {rec.adv_test_acc.get(name)} != replayed {acc}")
        return bad

    def golden(self, lab, work, jobs):
        p = self.params(small=True)
        p["checkpoint"]["epochs"] = 1
        state = self.setup(lab, p, 0, work)
        calls = self.op(lab, p, state, "golden")
        self.finish(calls, state, "golden")
        return {c.name: getattr(c, "digest", c.error) for c in calls}


def _plain(value):
    """JSON-able form of an output; a MetricsRecord loses its wall-clock field."""
    if hasattr(value, "epoch_wall_ms"):
        return checks.record_fields(value)
    if hasattr(value, "__dataclass_fields__"):
        return {k: _plain(v) for k, v in vars(value).items()}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


# -- sweep --------------------------------------------------------------------

class SweepGrid(Workload):
    name = "sweep_grid"

    def params(self, small):
        if small:
            grid = dict(widths=[8, 16], lambdas=[1.0], seeds=[0, 1], epochs_list=[2, 3])
        else:
            grid = dict(widths=[16, 64], lambdas=[0.5, 1.0], seeds=[0, 1, 2, 3, 4, 5],
                        epochs_list=[3, 8])
        return dict(data=dict(n_train=600, n_test=300, d=32, K=4, spread=1.0), grid=grid,
                    attack=dict(epsilon=0.0314, alpha=0.0078, k=10),
                    schedule=dict(variant="LORE", E1=2, E2=8), train=dict(batch_size=64))

    @staticmethod
    def cells(p) -> int:
        g = p["grid"]
        lambdas = set(g["lambdas"]) | {0.0}
        return len(g["widths"]) * len(lambdas) * len(g["seeds"]) * len(g["epochs_list"])

    def setup(self, lab, p, seed, work):
        config = {"dataset": {"kind": "synthetic", "seed": seed, **p["data"]},
                  "grid": p["grid"], "attack": p["attack"], "schedule": p["schedule"],
                  "train": p["train"]}
        path = work / "sweep.json"
        path.write_text(json.dumps(config))
        return {"config": path, "work": work, "jobs": p.get("jobs", 1)}

    def op(self, lab, p, state, index):
        out = state["work"] / f"sweep-{index}"
        calls = [Call("sweep", lab.cli.main, ["sweep", "--config", str(state["config"]),
                                              "--out", str(out), "--jobs", str(state["jobs"])])]
        for regime in ("early", "late"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                c = Call(f"correlate_{regime}", lab.cli.main,
                         ["correlate", str(out / "sweep.csv"), "--regime", regime])
            c.stdout = buf.getvalue()
            calls.append(c)
        return calls

    def finish(self, calls, state, index):
        out_dir = state["work"] / f"sweep-{index}"
        for c in calls:
            if c.error is None and c.out != 0:
                c.error = f"exit code {c.out}"
        sweep, *corr = calls
        if sweep.error is None:
            sweep.text = (out_dir / "sweep.csv").read_text()
            sweep.manifest = json.loads((out_dir / "manifest.json").read_text())
            sweep.digest = checks.csv_digest(sweep.text)
        for c in corr:
            if c.error is None:
                c.report = json.loads(c.stdout)
                c.digest = checks.digest(c.report)

    def check(self, lab, p, state, ops):
        return _failures(ops, lambda calls: self._check_first(p, calls))

    def _check_first(self, p, calls):
        sweep, early, late = calls
        bad = []
        lines = sweep.text.splitlines()
        if lines[0].split(",") != CSV_V1 or sweep.manifest.get("schema_version") != "v1":
            return [("sweep", f"CSV header {lines[0]!r} is not schema v1")]
        rows = [dict(zip(CSV_V1, line.split(","))) for line in lines[1:]]
        n_cells = self.cells(p)
        want_rows = n_cells // len(p["grid"]["epochs_list"]) * sum(
            sum(1 for e in range(1, b + 1) if e % (1 if b <= 10 else 25) == 0 or e == b)
            for b in p["grid"]["epochs_list"])
        if len(rows) != want_rows or len({r["run_id"] for r in rows}) != n_cells:
            bad.append(("sweep", f"{len(rows)} rows / {len({r['run_id'] for r in rows})} runs, "
                                 f"expected {want_rows} / {n_cells}"))
        finals = {}
        for r in rows:
            if r["run_id"] not in finals or int(r["epoch"]) > int(finals[r["run_id"]]["epoch"]):
                finals[r["run_id"]] = r
        families = {}
        for r in finals.values():
            families.setdefault((r["width"], float(r["lambda"]), r["epoch_budget"]), []).append(r)
        for (width, lam, budget), members in families.items():
            if lam == 0.0:
                continue
            std = families[(width, 0.0, budget)]
            gap = (min(float(m["clean_test_loss"]) for m in members)
                   - min(float(m["clean_test_loss"]) for m in std))
            if any(not checks.close(float(m["gap_ce"]), gap) for m in members):
                bad.append(("sweep", f"gap_ce of family {(width, lam, budget)} != {gap}"))
        budgets = sorted({int(r["epoch_budget"]) for r in rows})
        for c, budget in ((early, budgets[0]), (late, budgets[-1])):
            pts = [r for r in finals.values() if int(r["epoch_budget"]) == budget]
            use = [r for r in pts if r["gamma_ce"] != "" and r["gap_ce"] != ""]
            x = np.array([float(r["gamma_ce"]) for r in use])
            y = np.array([float(r["gap_ce"]) for r in use])
            want = dict(pearson_r=float(np.corrcoef(x, y)[0, 1]), n_points=len(use),
                        n_excluded=len(pts) - len(use))
            got = {k: c.report.get(k) for k in want}
            if not (got["n_points"] == want["n_points"] and got["n_excluded"] == want["n_excluded"]
                    and checks.close(got["pearson_r"], want["pearson_r"], rel=1e-7)):
                bad.append((c.name, f"report {got} != recomputed {want}"))
        return bad

    def golden(self, lab, work, jobs):
        p = self.params(small=True)
        p["grid"] = dict(widths=[16], lambdas=[1.0], seeds=[0], epochs_list=[2])
        state = self.setup(lab, p, 0, work)
        calls = [Call("sweep", lab.cli.main, ["sweep", "--config", str(state["config"]),
                                              "--out", str(work / "sweep-golden"),
                                              "--jobs", str(jobs)])]
        self.finish(calls, state, "golden")
        return {"sweep": getattr(calls[0], "digest", calls[0].error)}


WORKLOADS = {w.name: w for w in (PgdTrain(), CleanTrain(), EvalAnalysis(), SweepGrid())}
