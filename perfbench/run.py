"""End-to-end, layer-attributed benchmark of the ROCK pipeline and server.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Workloads, metrics, units and bounds are
declared in ``BENCHMARK.json``; parameters and metric definitions are in
``perfbench/NOTES.md``.  With ``--trace 0`` the last line of standard output
is a JSON object with every end-to-end metric; with ``--trace 1`` it holds
every per-layer metric, from a traced run whose labels must match an
untraced run's bit for bit.  Layers a workload does not exercise read 0.
A full record of each run (parameters, environment, raw samples, server
stderr) is written to ``.perfbench-work/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, WORK, environment, median, percentile, use_checkout_source  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.  A served set-up
#: spawns and bootstraps a server (~3.5 s), so it is repeated fewer times.
SETUP_REPEATS = 5
SERVE_SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0


def _child(name: str, seed: int, seconds: float, trace: int, input_dir: Path) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve().parent / "batch.py"),
        name, str(seed), repr(seconds), str(trace), str(input_dir),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError("%s child (trace %d) exited with %d" % (name, trace, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_batch(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import batch

    setup_s = []
    for _ in range(1 if trace else SETUP_REPEATS):
        start = time.perf_counter()
        batch.set_up(name, seed, workdir)
        setup_s.append(time.perf_counter() - start)
    share = seconds / 2 if trace else seconds
    untraced = _child(name, seed, share, 0, workdir)
    traced = _child(name, seed, share, 1, workdir) if trace else None

    runs = untraced["runs"] + (traced["runs"] if traced else [])
    floor = batch.WORKLOADS[name]["ari_floor"]
    reference = runs[0]["digest"]
    failed = sum(
        1 for run in runs if not run["valid"] or run["ari"] < floor or run["digest"] != reference
    )
    wall = [run["wall_s"] for run in untraced["runs"]]
    # Every label of a batch run is returned when the run returns, so each
    # label's (and the whole input's ingest) latency is the run's wall time.
    metrics = {
        "wall_s": median(wall),
        "peak_rss_mb": untraced["peak_rss_mb"],
        "setup_s": median(setup_s),
        "label_p50_ms": median(wall) * 1e3,
        "label_p99_ms": percentile(wall, 99) * 1e3,
        "ingest_p50_ms": median(wall) * 1e3,
        "ingest_pts_per_s": untraced["n_points"] / median(wall),
    }
    if traced:
        layers = {}
        for key in traced["runs"][0]["layers"]:
            values = [run["layers"][key] for run in traced["runs"]]
            # The process peak only grows in the first traced run.
            layers[key] = max(values) if key.endswith("maxrss_growth_mb") else median(values)
        layers["trace.overhead_s"] = median([run["wall_s"] for run in traced["runs"]]) - median(wall)
        layers["ari"] = traced["runs"][0]["ari"]
        metrics = layers
    return {
        "parameters": batch.parameters(name),
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
        "setup_s": setup_s,
        "untraced": untraced,
        "traced": traced,
    }


def run_serve(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import serve

    record = serve.run(seed, seconds, trace, workdir, 1 if trace else SERVE_SETUP_REPEATS)
    check = record["check"]
    sys.stderr.write("---- server stderr ----\n%s---- end server stderr ----\n" % record["server_stderr"])
    if trace:
        metrics = serve.per_layer(record)
    else:
        metrics = {**serve.end_to_end(record), "setup_s": median(record["setup_s"])}
    return {
        "parameters": serve.PARAMETERS,
        "correct": (
            check["failed"] == 0
            and check["ari"] >= serve.ARI_FLOOR
            and check["shutdown_ok"]
            and record["exited_cleanly"]
        ),
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": metrics,
        **record,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_source()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {entry["name"]: entry for entry in declared["workloads"]}
    if args.workload not in workloads:
        parser.error("unknown workload %r; expected one of %s" % (args.workload, ", ".join(workloads)))
    section = declared["per_layer" if args.trace else "end_to_end"]

    workdir = WORK / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        if args.workload == "serve-mixed":
            outcome = run_serve(args.seed, args.seconds, bool(args.trace), workdir)
        else:
            outcome = run_batch(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = outcome["attempted"]
    measured = dict(outcome["metrics"])
    if args.trace:
        measured["failed_frac"] = outcome["failed"] / attempted
    names = {entry["name"] for entry in section}
    if set(measured) - names or (not args.trace and names - set(measured)):
        raise RuntimeError("metrics do not match BENCHMARK.json: %s" % sorted(set(measured) ^ names))
    metrics = {
        entry["name"]: {"value": float(measured.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in section
    }
    record = {
        "workload": args.workload,
        "why": workloads[args.workload]["why"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        **outcome,
        "metrics": metrics,
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (records / name).write_text(json.dumps(record, indent=1, default=str))
    for key, metric in metrics.items():
        sys.stderr.write("%-32s %14.6g %s\n" % (key, metric["value"], metric["unit"]))
    print(
        json.dumps(
            {
                "correct": bool(outcome["correct"]),
                "attempted": int(attempted),
                "failed": int(outcome["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
