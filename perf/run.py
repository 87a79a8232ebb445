"""The one command of the pipeline benchmark.

``python perf/run.py [--seed N] [--repeat R]`` runs every workload of
``BENCHMARK.json``, each in a fresh subprocess (untraced run, then the
traced replay), prints every metric by name with its unit and writes
``perf/out/result.json`` plus one ``perf/out/trace_<workload>.json``.
Exit status is non-zero when any operation failed.

``python perf/run.py --workload W --seed N --seconds S --trace 0|1``
runs one workload in this process and ends its standard output with
one JSON object: the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def _set_import_path() -> None:
    """``perf`` and ``repro`` importable; the script directory not.

    Left on the path, ``perf/trace.py`` would shadow the standard
    library's ``trace``.
    """
    sys.path[:] = [ROOT, os.path.join(ROOT, "src")] + [
        entry for entry in sys.path
        if os.path.abspath(entry or os.getcwd()) != HERE]


def load_spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _print_metrics(title: str, spec_rows: List[dict],
                   values: Dict[str, float], note: str = "") -> None:
    missing = {row["name"] for row in spec_rows} ^ set(values)
    if missing:
        raise SystemExit(
            f"BENCHMARK.json and the harness disagree on {title} "
            f"metrics: {sorted(missing)}")
    print(f"  -- {title}{note}")
    for row in spec_rows:
        print(f"  {row['name']:38s} {values[row['name']]:>16.4f} "
              f"{row['unit']}")


def run_one(args) -> int:
    """One workload, in this process."""
    from perf.harness import WORKLOADS, run_workload

    spec = load_spec()
    record = run_workload(WORKLOADS[args.workload], args.seed,
                          args.seconds, trace=bool(args.trace),
                          quick=args.quick)
    record["python_hash_seed"] = os.environ.get("PYTHONHASHSEED",
                                                "random")
    record["nproc"] = os.cpu_count()
    nodes = record.pop("trace_nodes", None)
    os.makedirs(OUT, exist_ok=True)
    if nodes is not None:
        with open(os.path.join(OUT, f"trace_{args.workload}.json"),
                  "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "nodes": nodes}, fh)
    with open(os.path.join(OUT, f"{args.workload}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    failed, attempted = record["failed"], record["attempted"]
    print(f"{args.workload}: seed {args.seed}, "
          f"{record['publications']} publications "
          f"+ {record['writes']} writes timed, "
          f"{record['sampled_deliveries']} deliveries decrypted, "
          f"failed_share {failed / attempted:.6f} "
          f"({failed} of {attempted})")
    _print_metrics("end to end", spec["end_to_end"],
                   record["end_to_end"],
                   f" (percentiles over {record['latency_samples']} "
                   f"samples)")
    shown = record["end_to_end"]
    if args.trace:
        _print_metrics("per layer, traced replay", spec["per_layer"],
                       record["per_layer"],
                       f" (p99_ms over {record['latency_samples']} "
                       f"samples)")
        shown = record["per_layer"]
    units = {row["name"]: row["unit"]
             for row in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in shown.items()}}))
    return 1 if failed else 0


def run_all(args) -> int:
    """Every workload, each in its own process; ``result.json``."""
    from repro.bench.export import bench_metadata

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    status = 0
    runs: List[Dict[str, object]] = []
    for _ in range(args.repeat):
        run: Dict[str, object] = {}
        for workload in spec["workloads"]:
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", workload["name"],
                       "--seed", str(args.seed),
                       "--seconds", str(seconds), "--trace", "1"] \
                + (["--quick"] if args.quick else [])
            status |= subprocess.run(command, cwd=ROOT).returncode
            path = os.path.join(OUT, f"{workload['name']}.json")
            if os.path.exists(path):
                with open(path) as fh:
                    run[workload["name"]] = json.load(fh)
        runs.append(run)
    result = {"meta": bench_metadata(ROOT), "nproc": os.cpu_count(),
              "seed": args.seed, "seconds": seconds,
              "quick": args.quick, "runs": runs}
    path = args.out or os.path.join(OUT, "result.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"wrote {os.path.relpath(path)}")
    return 1 if status else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload, "
                        "in this process")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float,
                        help="how long one run measures "
                        "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="quarter-size worlds, one set-up: a smoke "
                        "run, not a measurement")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run all workloads this many times: one "
                        "result set for perf/compare.py")
    parser.add_argument("--out", help="where the all-workloads run "
                        "writes its result (default perf/out/result.json)")
    args = parser.parse_args(argv)
    _set_import_path()
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
