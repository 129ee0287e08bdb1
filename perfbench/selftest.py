"""The benchmark's own tests.

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

Run from the root of a checkout.  Rounds here are smaller than the
benchmark's (fewer operations), which keeps the suite near a minute;
the properties tested do not depend on the size.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

if not run.load_library():
    raise SystemExit("no library: run from the root of a checkout")

from tracing import LAYERS  # noqa: E402

SMALL = {
    "ycsb-a-tls": {"ops": 1500},
    "gdpr-fast-rights": {"mix": (("get", 490), ("put", 490),
                                 ("access", 10), ("erase", 10))},
    "openloop-zipf-4core": {"ops_per_rate": 1000},
}
CLOSED_LOOP = ("ycsb-a-tls", "gdpr-fast-rights")

_traced = {}


def traced_round(name):
    if name not in _traced:
        _traced[name] = run.run_round(name, 3, True, **SMALL[name])
    return _traced[name]


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as source:
        return json.load(source)


def test_closed_loop_layer_sim_times_sum_to_elapsed():
    for name in CLOSED_LOOP:
        tracer = traced_round(name).tracer
        billed = sum(tracer.sim_self.get(layer, 0.0) for layer in LAYERS)
        assert abs(billed - tracer.sim_elapsed) <= 0.01 * tracer.sim_elapsed, \
            (name, billed, tracer.sim_elapsed, tracer.sim_self)


def test_aof_has_the_largest_simulated_share_on_gdpr():
    tracer = traced_round("gdpr-fast-rights").tracer
    shares = {layer: tracer.sim_self.get(layer, 0.0) / tracer.sim_elapsed
              for layer in LAYERS}
    assert max(shares, key=shares.get) == "aof", shares
    assert shares["aof"] > 0.5, shares


def test_printed_metric_names_are_in_benchmark_json():
    spec = benchmark_json()
    gated = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert gated == {name: run.UNITS[name] for name in run.GATED}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == \
        list(run.WORKLOAD_NAMES)
    for name in run.WORKLOAD_NAMES:
        one = traced_round(name)
        printed = set(run.layer_metrics(one.tracer, one.outcome))
        printed.add("tracing.overhead_ratio")
        assert printed == set(per_layer), name


def test_same_seed_repeats_simulated_metrics_and_another_seed_runs_clean():
    for name in run.WORKLOAD_NAMES:
        first = run.run_round(name, 11, False, **SMALL[name])
        again = run.run_round(name, 11, False, **SMALL[name])
        assert run.check_rounds(name, [first, again]) == []
        assert first.outcome.failures == [], first.outcome.failures
        other = run.run_round(name, 12, False, **SMALL[name])
        assert other.outcome.failures == [], other.outcome.failures
        # Tracing observes the simulation without changing it.
        assert traced_round(name).outcome.sim == \
            run.run_round(name, 3, False, **SMALL[name]).outcome.sim


def test_refuses_to_run_without_the_library():
    bare = os.path.join(run.OUT, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ycsb-a-tls",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


if __name__ == "__main__":
    failed = 0
    for test_name, test in list(globals().items()):
        if test_name.startswith("test_") and callable(test):
            try:
                test()
                print(f"ok      {test_name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAILED  {test_name}: {exc}")
    sys.exit(1 if failed else 0)
