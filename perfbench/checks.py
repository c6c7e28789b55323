"""Reference computations and digests for checking advlab's outputs.

Written against plain numpy, independently of advlab's own code paths,
so that a wrong result from the program shows as a mismatch here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np


def logits(weights, inputs) -> np.ndarray:
    h = np.asarray(inputs, dtype=np.float64)
    for w in weights[:-1]:
        h = np.maximum(h @ w.T, 0.0)
    return h @ weights[-1].T


def ce_per_sample(z, labels) -> np.ndarray:
    top = z.max(axis=1, keepdims=True)
    lse = top[:, 0] + np.log(np.exp(z - top).sum(axis=1))
    return lse - z[np.arange(len(labels)), labels]


def risk(weights, inputs, labels):
    """(mean CE, accuracy, logits)."""
    z = logits(weights, inputs)
    return float(ce_per_sample(z, labels).mean()), float((z.argmax(axis=1) == labels).mean()), z


def radius(z, labels):
    """(gamma_hat, gamma_hat_c, gamma_hat_m, n_correct, n_wrong) from logits."""
    idx = np.arange(len(labels))
    gaps = np.abs(z - z[idx, labels][:, None])
    gaps[idx, labels] = -np.inf
    gaps = gaps.max(axis=1)
    ok = z.argmax(axis=1) == labels
    c = float(gaps[ok].mean()) if ok.any() else None
    m = float(gaps[~ok].mean()) if (~ok).any() else None
    return float(gaps.mean()), c, m, int(ok.sum()), int((~ok).sum())


def bounds(n, n_correct, n_wrong, k, gamma_m, gamma):
    """Closed-form complexity bounds, written out from the formula."""
    c_c, c_m = n / n_correct, n / n_wrong
    centre = (math.sqrt(n_wrong) + math.sqrt(n_correct)) / n * math.log(k)
    common = gamma_m * (gamma / c_c + 1.0) / math.sqrt(n)
    return centre - common / math.sqrt(c_c), centre + common / math.sqrt(c_m)


def exhaustive_rademacher(table) -> float:
    n = table.shape[1]
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    signs = bits * 2.0 - 1.0
    return float((signs @ table.T).max(axis=1).mean() / n)


def mc_rademacher(table, rng, draws):
    """(estimate, standard error) with signs from `rng`."""
    n = table.shape[1]
    values = np.empty(draws)
    for start in range(0, draws, 1000):
        xi = rng.choice((-1.0, 1.0), size=(min(1000, draws - start), n))
        values[start:start + len(xi)] = (xi @ table.T).max(axis=1) / n
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(draws))


def close(a, b, rel=1e-9, abs_=1e-12) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def digest(*parts) -> str:
    """sha256 over arrays (dtype, shape, bytes) and JSON-able values."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def record_fields(rec) -> dict:
    """A MetricsRecord as a dict, without its wall-clock field."""
    fields = dataclasses.asdict(rec)
    fields.pop("epoch_wall_ms")
    return fields


def run_digest(weights, history) -> dict:
    return {"weights": digest(*weights),
            "history": digest([record_fields(r) for r in history])}


def csv_digest(text: str, drop: str = "epoch_wall_ms") -> str:
    """Digest of a CSV with one column removed."""
    lines = text.splitlines()
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header) if name != drop]
    rows = [",".join(line.split(",")[i] for i in keep) for line in lines]
    return digest(rows)
