"""Smoke: the one command runs every workload and names every metric."""

import json
import os
import re
import subprocess
import sys
import time

from perf.compare import spread, verdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_keeps_the_contract():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perf"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [row["name"] for key in ("workloads", "end_to_end",
                                     "per_layer") for row in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in spec["end_to_end"])


def test_quick_pass_prints_every_metric_with_its_unit(tmp_path):
    spec = _spec()
    out = tmp_path / "result.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perf", "run.py"), "--quick",
         "--seconds", "1", "--seed", "11", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 30

    blocks = re.split(r"^(?=\w+: seed )", done.stdout, flags=re.M)[1:]
    assert [b.split(":")[0] for b in blocks] \
        == [w["name"] for w in spec["workloads"]]
    for block in blocks:
        assert "failed_share 0.000000" in block
        printed = dict(re.findall(
            r"^  (\S+)\s+-?[0-9.]+(?:e[+-]?\d+)? (\S+)$", block,
            flags=re.M))
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert printed.get(metric["name"]) == metric["unit"], \
                metric["name"]
        last = json.loads([line for line in block.splitlines()
                           if line.startswith("{")][-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0
        assert last["attempted"] >= 1

    result = json.loads(out.read_text())
    assert {"python", "cpu_count", "git_sha"} <= set(result["meta"])
    assert result["seed"] == 11 and result["nproc"]
    (run,) = result["runs"]
    for record in run.values():
        assert record["python_hash_seed"]
        assert record["chunk_times_s"] or record["workload"] \
            == "fanout_open"
        assert record["latency_samples"] > 0
        assert "gen.lag_ms_p99" in record["per_layer"]
        assert all(value > 0 for value in record["end_to_end"].values())


def test_compare_verdicts():
    steady_a = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert spread([5.0]) == 0.0
    assert spread(steady_a) < 0.02
    same = [v * 1.03 for v in steady_a]
    worse = [v * 0.85 for v in steady_a]
    assert verdict(steady_a, same, "higher", 0.08) == "same"
    assert verdict(steady_a, worse, "higher", 0.08) == "worse"
    assert verdict(steady_a, worse, "lower", 0.08) == "better"
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
    assert verdict(noisy, steady_a, "higher", 0.08) == "unresolved"
    # spread past the bound, but every run of B beats every run of A
    assert verdict(noisy, [v * 2 for v in noisy], "higher", 0.08) \
        == "better"
