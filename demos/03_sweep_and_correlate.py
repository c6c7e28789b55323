"""Run a miniature width/lambda sweep and correlate the radius gap with
the cross-family generalization gap.

A full-scale sweep is what the `advlab sweep` CLI subcommand does; this
script runs a desk-sized grid in-process so the whole pipeline (grid ->
CSV rows -> gap attachment -> correlation -> slopes) is visible in one
place.
"""

import tempfile
from pathlib import Path

from advlab.attacks import AttackSpec
from advlab.data import blob_dataset
from advlab.sweep import (InsufficientDataError, SweepSpec, correlate,
                          read_csv, run_sweep, slopes_by_lambda,
                          slopes_by_width, write_csv)

data = blob_dataset(seed=7, n_train=300, n_test=150, d=8, K=3, spread=0.2)

spec = SweepSpec(
    widths=(8, 32),
    lambdas=(0.5, 1.0),
    seeds=(0, 1, 2),
    epochs_list=(3, 15),
    attack=AttackSpec(eps=0.05, alpha=0.02, k=3),
    batch_size=50,
)
rows = run_sweep(spec, data)
print(f"sweep produced {len(rows)} rows "
      f"(lambda=0 baseline family added automatically)")

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "sweep.csv"
    write_csv(rows, out)
    rows = read_csv(out)  # same rows back through the pinned schema
    print(f"wrote and re-read {out}")

for regime in ("early", "late"):
    try:
        rep = correlate(rows, regime)
        print(f"{regime:5s}: pearson {rep.pearson_r:+.3f}  "
              f"spearman {rep.spearman_rho:+.3f}  "
              f"({rep.n_points} points, {rep.n_excluded} excluded)")
    except InsufficientDataError as exc:
        print(f"{regime:5s}: not enough usable points ({exc})")

print()
print("least-squares slopes of gamma_hat_m against gamma_hat_c:")
for width, slope in slopes_by_width(rows).items():
    print(f"  width {width:3d}: {slope:.3f}")
for lam, slope in slopes_by_lambda(rows).items():
    print(f"  lambda {lam:.2f}: {slope:.3f}")
