"""The three batch workloads: input generation and the measuring child process.

``run.py`` generates the inputs (that is the timed set-up), then starts this
file as a child process that regenerates or reads the same inputs, calls the
pipeline again and again until its time is up, and prints one JSON object.
A child per mode keeps peak memory per process: the untraced child's peak
is ``peak_rss_mb``, and the traced child starts just as fresh, so the memory
a layer adds to the peak shows in its first traced run.

    python3 perfbench/batch.py <workload> <seed> <seconds> <trace 0|1> <input dir>
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    PIPELINE_RNG,
    adjusted_rand_index,
    label_digest,
    labels_valid,
    use_checkout_source,
)

INSTACART_50K = {"generator": "instacart", "n_transactions": 50_000, "params": {}}

#: Workload parameters.  ``ari_floor`` is the lowest adjusted Rand index
#: against the generator's segments that still counts as a correct run.
WORKLOADS = {
    "batch-instacart-50k": {
        "inputs": INSTACART_50K,
        "pipeline": {"n_clusters": 8, "theta": 0.4, "sample_size": 3200, "min_cluster_size": 2},
        "mode": "run",
        # run() collapses the segments into one cluster on some seeds (ARI
        # 0.00 to 0.76 on seeds 1-20): the floor only rejects worse than chance.
        "ari_floor": -0.05,
    },
    "cluster-baskets-4k": {
        # params: repro.bench.engine_bench.WORKLOAD, filled in by parameters().
        "inputs": {"generator": "market-basket", "n_transactions": 4_000, "params": None},
        "pipeline": {"n_clusters": 8, "theta": 0.5},
        "mode": "run",
        # 0.970 to 0.981 on 39 of seeds 1-40; 0.850 on seed 12.
        "ari_floor": 0.8,
    },
    "sharded-file-50k": {
        "inputs": INSTACART_50K,
        "pipeline": {"n_clusters": 8, "theta": 0.4, "sample_size": 3200, "min_cluster_size": 2},
        "mode": "sharded",
        "sharded": {
            "n_shards": 4,
            "shard_workers": 2,
            "shard_executor": "thread",
            "batch_size": 4096,
        },
        # 0.854 to 0.996 on seeds 1-20.
        "ari_floor": 0.7,
    },
}

TRANSACTIONS_FILE = "transactions.txt"
TRUTH_FILE = "truth.json"


def parameters(name: str) -> dict:
    """The workload's full parameters, for the run record."""
    from repro.bench.engine_bench import WORKLOAD

    spec = json.loads(json.dumps(WORKLOADS[name]))
    if spec["inputs"]["params"] is None:
        spec["inputs"]["params"] = dict(WORKLOAD)
    spec["pipeline"]["rng"] = PIPELINE_RNG
    return spec


def generate(name: str, seed: int):
    """The workload's baskets and ground-truth segments for ``seed``."""
    spec = WORKLOADS[name]["inputs"]
    if spec["generator"] == "instacart":
        from repro.datasets.market_basket import generate_instacart_baskets

        return generate_instacart_baskets(
            rng=seed, n_transactions=spec["n_transactions"], **spec["params"]
        )
    from repro.datasets.market_basket import generate_market_baskets

    params = parameters(name)["inputs"]["params"]
    return generate_market_baskets(n_transactions=spec["n_transactions"], rng=seed, **params)


def set_up(name: str, seed: int, input_dir: Path) -> None:
    """The timed set-up: generate, and for the file workload write the file."""
    dataset = generate(name, seed)
    if WORKLOADS[name]["mode"] == "sharded":
        from repro.data.io import write_transactions

        input_dir.mkdir(parents=True, exist_ok=True)
        write_transactions(dataset, input_dir / TRANSACTIONS_FILE)
        (input_dir / TRUTH_FILE).write_text(json.dumps(list(dataset.labels)))


def _measure(name: str, seed: int, seconds: float, trace: bool, input_dir: Path) -> dict:
    from repro.core.pipeline import RockPipeline

    from tracer import Patcher, Tracer, install_pipeline_wrappers, maxrss_mb, pipeline_layer_metrics

    spec = WORKLOADS[name]
    if spec["mode"] == "sharded":
        source = str(input_dir / TRANSACTIONS_FILE)
        truth = json.loads((input_dir / TRUTH_FILE).read_text())

        def execute():
            pipeline = RockPipeline(rng=PIPELINE_RNG, **spec["pipeline"])
            return pipeline.run_sharded(source, **spec["sharded"])

    else:
        dataset = generate(name, seed)
        transactions, truth = dataset.transactions, list(dataset.labels)

        def execute():
            return RockPipeline(rng=PIPELINE_RNG, **spec["pipeline"]).run(transactions)

    tracer = patcher = None
    if trace:
        tracer, patcher = Tracer(), Patcher()
        install_pipeline_wrappers(tracer, patcher)

    runs = []
    deadline = time.perf_counter() + seconds
    try:
        while True:
            if tracer is not None:
                tracer.clear()
                start = time.perf_counter()
                with tracer.span("pipeline"):
                    result = execute()
            else:
                start = time.perf_counter()
                result = execute()
            wall = time.perf_counter() - start
            run = {
                "wall_s": wall,
                "digest": label_digest(result.labels),
                "n_clusters": result.n_clusters,
                "valid": labels_valid(result.labels, len(truth), result.n_clusters),
                "ari": adjusted_rand_index(result.labels, truth),
            }
            if tracer is not None:
                run["layers"] = pipeline_layer_metrics(tracer)
                run["spans"] = tracer.totals()
            runs.append(run)
            del result
            if time.perf_counter() >= deadline:
                break
    finally:
        if patcher is not None:
            patcher.restore()
    return {"runs": runs, "n_points": len(truth), "peak_rss_mb": maxrss_mb()}


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, input_dir = argv
    use_checkout_source()
    result = _measure(name, int(seed), float(seconds), trace == "1", Path(input_dir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
