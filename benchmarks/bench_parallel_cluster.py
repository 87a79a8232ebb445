"""Perf trajectory: serial vs process cluster backends (wall-clock).

Unlike the figure benchmarks (simulated microseconds from the cost
model), this one measures real wall-clock throughput — the quantity
the ``backend="process"`` data plane exists to improve. It runs the
same workload through both backends, cross-checks that match sets and
simulated latencies are byte-identical, and records the trajectory as
``BENCH_<name>.json`` via ``repro.bench.export.record_bench``.

Two entry points:

* ``pytest benchmarks/bench_parallel_cluster.py --benchmark-only`` —
  the usual harness, emits a result table under benchmarks/results/.
* ``python benchmarks/bench_parallel_cluster.py [--reduced] [--record]
  [--require-speedup X]`` — standalone runner for CI's parallel-smoke job;
  ``--require-speedup`` exits non-zero when the process backend does
  not reach the given multiple of serial throughput *and* at least two
  cores are available (with one core there is no parallelism to gain,
  so the gate reduces to the correctness cross-check).
"""

import argparse
import sys

import pytest

from repro.bench.export import record_bench
from repro.bench.parallel import ParallelBenchResult, run_parallel_bench
from repro.bench.report import format_table

DEFAULTS = dict(workload="e80a1", n_subscriptions=2000, n_events=600,
                n_slices=4, batch_size=50)
REDUCED = dict(workload="e80a1", n_subscriptions=600, n_events=200,
               n_slices=2, batch_size=25)


def _render(result: ParallelBenchResult) -> str:
    rows = [[run.backend, run.n_events, run.throughput_eps,
             run.p50_wall_us, run.p99_wall_us, run.simulated_mean_us]
            for run in result.runs]
    table = format_table(
        ["backend", "events", "events/s", "p50 us", "p99 us", "sim us"],
        rows,
        title=f"cluster backends — {result.workload}, "
              f"{result.n_subscriptions} subs, {result.n_slices} "
              f"slices, {result.cpu_cores} cores")
    return (f"{table}\n"
            f"speedup (process/serial): {result.speedup}x\n"
            f"match sets identical: {result.match_sets_identical}   "
            f"simulated latencies identical: "
            f"{result.simulated_latencies_identical}")


@pytest.mark.benchmark(group="extensions")
def test_parallel_cluster_trajectory(benchmark):
    from conftest import emit
    holder = {}

    def run():
        holder["result"] = run_parallel_bench(**DEFAULTS)

    benchmark.pedantic(run, rounds=1, iterations=1)
    result = holder["result"]
    emit("parallel_cluster", _render(result))
    assert result.match_sets_identical
    assert result.simulated_latencies_identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="serial vs process cluster wall-clock trajectory")
    parser.add_argument("--name", default="parallel_cluster")
    parser.add_argument("--reduced", action="store_true",
                        help="small config for CI smoke runs")
    parser.add_argument("--record", action="store_true",
                        help="write BENCH_<name>.json")
    parser.add_argument("--out", default=".", metavar="DIR")
    parser.add_argument("--require-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless process >= X * serial "
                             "throughput (enforced only with >=2 "
                             "cores available)")
    args = parser.parse_args(argv)

    config = dict(REDUCED if args.reduced else DEFAULTS)
    result = run_parallel_bench(name=args.name, **config)
    print(_render(result))
    if args.record:
        path = record_bench(result.name, result, directory=args.out)
        print(f"wrote {path}")

    if not (result.match_sets_identical
            and result.simulated_latencies_identical):
        print("FAIL: backends disagree on match sets or simulated "
              "latencies", file=sys.stderr)
        return 1
    if args.require_speedup is not None:
        if result.cpu_cores < 2:
            print(f"speedup gate skipped: only {result.cpu_cores} core "
                  f"available (need >=2 for parallel gain)")
        elif result.speedup < args.require_speedup:
            print(f"FAIL: speedup {result.speedup}x < required "
                  f"{args.require_speedup}x on {result.cpu_cores} "
                  f"cores", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
