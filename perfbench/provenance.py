"""Where a result came from: interpreter, libraries, BLAS, threads, commit, inputs."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "OPENBLAS_CORETYPE")


def openblas() -> dict:
    """Version, build config, core type and thread count of numpy's OpenBLAS."""
    info = {"version": None, "config": None, "corename": None, "threads": None}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["version"] = blas.get("version")
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")) + sorted(libs.glob("libopenblas*.so")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            try:
                fns = {k: getattr(lib, f"{prefix}_get_{k}{suffix}")
                       for k in ("config", "corename", "num_threads")}
            except AttributeError:
                continue
            fns["config"].restype = fns["corename"].restype = ctypes.c_char_p
            fns["num_threads"].restype = ctypes.c_int
            info.update(config=fns["config"]().decode(), corename=fns["corename"]().decode(),
                        threads=fns["num_threads"]())
            return info
    return info


def git_commit(root: Path):
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def collect(root: Path, args, params: dict) -> dict:
    blas = openblas()
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "params": params,
        # Digests of pinned-seed runs depend on the BLAS kernels and thread
        # count and on numpy, so reference.json keys them by all three.
        "reference_key": f"{blas['corename']}/threads-{blas['threads']}/numpy-{np.__version__}",
    }
