"""The platform a run measured on, recorded with every result."""

from __future__ import annotations

import os
import platform


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "simd": config["SIMD Extensions"]["found"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loraq_threads": os.environ.get("LORAQ_THREADS", "unset (one worker)"),
    }


def fingerprint_platform(env: dict) -> dict:
    """The part of the environment that bundle bytes may depend on."""
    return {key: env[key] for key in ("cpu", "simd", "numpy", "blas", "blas_threads")}
