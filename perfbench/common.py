"""Paths, statistics and checks shared by the benchmark's processes."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

import numpy as np

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (inputs, snapshot directories, run records).
WORK = ROOT / ".perfbench-work"

#: Seed of the program's own generator.  The workload seed only shapes the
#: generated inputs; the program never sees it.
PIPELINE_RNG = 0


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src`` or exit with code 2.

    Without the program's source there is nothing to measure; the benchmark
    must fail rather than pick up some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit("perfbench: no program source at %s" % SRC)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit("perfbench: imported repro from %s, not %s" % (repro.__file__, SRC))


def environment() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def median(values) -> float:
    return percentile(values, 50)


def label_digest(labels) -> str:
    return hashlib.sha256(np.asarray(labels, dtype=np.int64).tobytes()).hexdigest()


def adjusted_rand_index(predicted, truth) -> float:
    """Hubert-Arabie ARI, computed here so the check does not trust the program."""
    _, p = np.unique(np.asarray(predicted), return_inverse=True)
    _, t = np.unique(np.asarray(truth), return_inverse=True)
    table = np.zeros((p.max() + 1, t.max() + 1), dtype=np.int64)
    np.add.at(table, (p, t), 1)

    def pairs(counts):
        counts = counts.astype(float)
        return float(np.sum(counts * (counts - 1) / 2))

    index = pairs(table)
    rows, cols = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    total = pairs(np.array([len(p)]))
    expected = rows * cols / total if total else 0.0
    maximum = (rows + cols) / 2
    if maximum == expected:
        return 1.0
    return (index - expected) / (maximum - expected)


def labels_valid(labels, n_points: int, n_clusters: int) -> bool:
    labels = np.asarray(labels)
    return (
        len(labels) == n_points
        and n_clusters >= 1
        and bool(np.all((labels >= -1) & (labels < n_clusters)))
    )
