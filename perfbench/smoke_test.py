#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke_test.py

Run from the repository root. For every workload of BENCHMARK.json it
runs the benchmark untraced and traced with --tiny 1 and asserts that
the run exits 0, that the correctness check passed, and that the last line carries exactly the
end-to-end (untraced) or per-layer (traced) metrics of BENCHMARK.json,
each with its unit. Tiny runs use other sizes than the benchmark, so
their figures mean nothing.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", "3", "--seconds", "1", "--trace",
               str(trace), "--tiny", "1"]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
    assert done.returncode == 0, (
        f"{workload} trace={trace}: exit {done.returncode}")
    return done.stdout.strip().splitlines()


def check(workload, trace, expected):
    lines = run(workload, trace)
    result = json.loads(lines[-1])
    keys = ["attempted", "correct", "failed", "metrics"]
    assert sorted(result) == keys, result
    assert result["correct"] is True, f"{workload}: correctness check failed"
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(expected), (
        f"{workload} trace={trace}: metrics differ: "
        f"missing {sorted(set(expected) - set(metrics))}, "
        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, (workload, name, metrics[name])
        assert isinstance(metrics[name]["value"], (int, float)), (name,)
    if trace == 0:
        for name in ("p50_ms", "throughput_rps", "setup_s", "ok_frac"):
            assert metrics[name]["value"] > 0, (workload, name)
    spec = json.loads(lines[0])
    assert spec["spec"]["workload"] == workload, spec
    assert spec["achieved"]["requests_sent"] == result["attempted"], spec
    if workload == "ingest" and trace == 0:
        table = "\n".join(lines)
        assert "freshness_p50_ms" in table and "freshness_p95_ms" in table


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in [w["name"] for w in bench["workloads"]]:
        check(workload, 0, end_to_end)
        check(workload, 1, per_layer)
        print(f"ok  {workload}")
    print("perfbench smoke test passed")


if __name__ == "__main__":
    main()
