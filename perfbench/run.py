#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gdpr-fast-rights --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from its
``src/`` directory.  A run repeats the workload in rounds, each built
and loaded from scratch with the same seed, until ``--seconds`` have
passed (at least two rounds).  Every round must reproduce the first
round's simulated metrics exactly: that is the determinism guard.

``--trace 0`` reports the end-to-end metrics: the simulated ones from
the first round, the host-time ones as medians over the rounds.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the first traced round, plus the tracing overhead
(untraced over traced ``ops_per_cpu_s``); its spans are written to
``perfbench/out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when any check failed, 2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("ycsb-a-tls", "gdpr-fast-rights", "openloop-zipf-4core")

# Every end-to-end metric, with its unit.  GATED are the ones every
# workload reports and the last line carries (BENCHMARK.json's
# end_to_end); the others are printed above it.
UNITS = {
    "sim_ops_per_s": "ops/s",
    "sim_p50_us": "us",
    "sim_p99_us": "us",
    "knee_ops_per_s": "ops/s",
    "erase_p50_ms": "ms",
    "erase_p90_ms": "ms",
    "audit_at_risk_max": "records",
    "aof_unsynced_max_kb": "KiB",
    "write_amp": "ratio",
    "error_frac": "ratio",
    "ops_per_cpu_s": "ops/cpu-s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
GATED = ("sim_ops_per_s", "ops_per_cpu_s", "setup_s", "peak_rss_mb")

PER_LAYER_UNITS = {
    "ycsb.calls": "count", "ycsb.cpu_self_s": "s",
    "crypto.calls": "count", "crypto.bytes": "bytes",
    "crypto.cpu_self_s": "s", "crypto.cache_hit_ratio": "ratio",
    "resp.calls": "count", "resp.bytes": "bytes", "resp.cpu_self_s": "s",
    "net.messages": "count", "net.bytes": "bytes", "net.sim_s": "s",
    "net.cpu_self_s": "s",
    "kvstore.commands": "count", "kvstore.cpu_self_s": "s",
    "kvstore.sim_self_s": "s",
    "aof.records": "count", "aof.bytes": "bytes", "aof.fsyncs": "count",
    "aof.sim_s": "s",
    "audit.records": "count", "audit.blocks": "count",
    "audit.fsyncs": "count", "audit.sim_s": "s",
    "gdpr.calls": "count", "gdpr.cpu_self_s": "s", "gdpr.sim_self_s": "s",
    "gdpr.erase_cpu_s": "s", "gdpr.aof_bytes_rescanned": "bytes",
    "device.writes": "count", "device.bytes": "bytes",
    "device.fsyncs": "count", "device.sim_s": "s",
    "cluster.dispatches": "count", "cluster.batch_mean": "commands",
    "cluster.queue_delay_p99_us": "us",
    "cluster.core_busy_max_over_mean": "ratio",
    "cluster.rebalances": "count", "cluster.route_memo_hit_ratio": "ratio",
    "clock.events": "count", "clock.cpu_self_s": "s",
    "tracing.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_library() -> bool:
    """Put the checkout's ``src/`` on the path; False if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return False
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


class Round:
    """One completed round."""

    def __init__(self, outcome, phases, tracer) -> None:
        self.outcome = outcome
        self.traced = tracer is not None
        self.setup_s = phases.setup_s
        self.cpu_s = phases.cpu_s
        self.tracer = tracer
        self.peak_rss_mb = peak_rss_mb()

    @property
    def ops_per_cpu_s(self) -> float:
        return self.outcome.ops / self.cpu_s


def peak_rss_mb() -> float:
    """The process's peak resident memory so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_round(name: str, seed: int, traced: bool, **sizes) -> Round:
    """Build, load, time and check one round of a workload."""
    from repro.crypto.cipher import seeded_entropy
    from tracing import Tracer
    from workloads import WORKLOADS, Phases

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        # Nonces and keys come from the seed, so ciphertext -- and every
        # size and simulated time derived from it -- repeats exactly.
        with seeded_entropy(seed):
            phases = Phases(tracer)
            outcome = WORKLOADS[name](seed, phases, **sizes)
    finally:
        if tracer is not None:
            tracer.remove()
    # The stacks hold reference cycles: free this round's before the next
    # one builds, so peak memory does not grow with the number of rounds.
    gc.collect()
    return Round(outcome, phases, tracer)


def run_rounds(name: str, seed: int, seconds: float, trace: bool):
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < 2 or time.perf_counter() < deadline:
        traced = trace and len(rounds) % 2 == 1
        one = run_round(name, seed, traced)
        rounds.append(one)
        if traced and any(r.traced for r in rounds[:-1]):
            one.tracer = None       # keep the first trace only
    return rounds


def layer_metrics(tracer, outcome) -> dict:
    """The per-layer metrics of one traced round."""
    points = tracer.points

    def cpu(layer):
        return tracer.cpu_self_ns.get(layer, 0) / 1e9

    def sim(layer):
        return tracer.sim_self.get(layer, 0.0)

    def calls(layer):
        return tracer.calls.get(layer, 0)

    lookups = points["KeyStore.cipher_for"].total_calls()
    misses = points["KeyStore.get_key"].total_calls("crypto")
    flushes, block_writes = points["AppendLog.flush"], \
        points["SimulatedBlockDevice.write"]
    metrics = {
        "ycsb.calls": calls("ycsb"),
        "ycsb.cpu_self_s": cpu("ycsb"),
        "crypto.calls": calls("crypto"),
        "crypto.bytes": tracer.bytes.get("crypto", 0),
        "crypto.cpu_self_s": cpu("crypto"),
        "crypto.cache_hit_ratio":
            (lookups - misses) / lookups if lookups else 0.0,
        "resp.calls": calls("resp"),
        "resp.bytes": tracer.bytes.get("resp", 0),
        "resp.cpu_self_s": cpu("resp"),
        "net.messages": points["Channel.transmit"].total_calls(),
        "net.bytes": points["Channel.transmit"].total_amount(),
        "net.sim_s": sim("net") + tracer.wire_s,
        "net.cpu_self_s": cpu("net"),
        "kvstore.commands": points["KeyValueStore.execute"].total_calls(),
        "kvstore.cpu_self_s": cpu("kvstore"),
        "kvstore.sim_self_s": sim("kvstore"),
        "aof.records": points["AppendLog.append"].total_calls("aof"),
        "aof.bytes": points["AppendLog.append"].total_amount("aof"),
        "aof.fsyncs": points["AppendLog.fsync"].total_calls("aof"),
        "aof.sim_s": sim("aof"),
        "audit.records": points["AuditLog.append"].total_calls(),
        "audit.blocks": points["AuditLog.seal_block"].total_amount(),
        "audit.fsyncs": points["AppendLog.fsync"].total_calls("audit"),
        "audit.sim_s": sim("audit"),
        "gdpr.calls": calls("gdpr"),
        "gdpr.cpu_self_s": cpu("gdpr"),
        "gdpr.sim_self_s": sim("gdpr"),
        "gdpr.erase_cpu_s": points["right_to_erasure"].span_ns / 1e9,
        "gdpr.aof_bytes_rescanned": points["contains_key"].total_amount(),
        "device.writes": flushes.total_nonzero()
        + block_writes.total_calls(),
        "device.bytes": flushes.total_amount()
        + block_writes.total_amount(),
        "device.fsyncs": points["AppendLog.fsync"].total_calls()
        + points["SimulatedBlockDevice.flush"].total_calls(),
        "device.sim_s": sim("device"),
        "clock.events": tracer.events,
        "clock.cpu_self_s": cpu("clock"),
    }
    for name in PER_LAYER_UNITS:
        if name.startswith("cluster."):
            metrics[name] = outcome.layers.get(name, 0)
    return metrics


def check_rounds(name: str, rounds) -> list:
    """The determinism guard: every round repeats the first round's
    simulated metrics exactly."""
    first = rounds[0].outcome.sim
    failures = []
    for index, later in enumerate(rounds[1:], start=2):
        if later.outcome.sim != first:
            failures.append(f"round {index} of {name} changed simulated "
                            f"metrics: {later.outcome.sim} != {first}")
    return failures


def spread(values) -> str:
    return (f"min {min(values):.4g}  median {statistics.median(values):.4g}"
            f"  max {max(values):.4g}  (n={len(values)})")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not load_library():
        print(f"error: no library at {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    rounds = run_rounds(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    failures = check_rounds(args.workload, rounds)
    for one in rounds:
        failures += one.outcome.failures
    attempted = sum(one.outcome.ops for one in rounds)
    plain = [one for one in rounds if not one.traced]
    traced = [one for one in rounds if one.traced]
    ops_per_cpu = [one.ops_per_cpu_s for one in plain]
    setups = [one.setup_s for one in plain]
    e2e = dict(rounds[0].outcome.sim)
    e2e["error_frac"] = len(failures) / attempted
    e2e["ops_per_cpu_s"] = statistics.median(ops_per_cpu)
    e2e["setup_s"] = statistics.median(setups)
    e2e["peak_rss_mb"] = peak_rss_mb()

    print(f"workload {args.workload}  seed {args.seed}  rounds "
          f"{len(rounds)} ({len(traced)} traced)")
    for metric, unit in UNITS.items():
        value = e2e.get(metric)
        shown = "-  (not measured on this workload)" if value is None \
            else f"{value:.6g} {unit}"
        print(f"  {metric:<22} {shown}")
    print(f"  spread ops_per_cpu_s   {spread(ops_per_cpu)}")
    print(f"  spread setup_s         {spread(setups)}")
    print(f"  peak_rss_mb by round   "
          f"{' '.join(f'{one.peak_rss_mb:.1f}' for one in rounds)}")
    for failure in failures[:20]:
        print(f"  FAILED: {failure}")

    if args.trace:
        first = next(one for one in rounds if one.tracer is not None)
        metrics = layer_metrics(first.tracer, first.outcome)
        metrics["tracing.overhead_ratio"] = statistics.median(ops_per_cpu) \
            / statistics.median([one.ops_per_cpu_s for one in traced])
        path = os.path.join(OUT, f"spans-{args.workload}-"
                                 f"seed{args.seed}.tsv.gz")
        first.tracer.spans.write(path)
        print(f"  tracing.overhead_ratio "
              f"{metrics['tracing.overhead_ratio']:.4g}; "
              f"{len(first.tracer.spans)} spans written to "
              f"{os.path.relpath(path, ROOT)}")
        units = PER_LAYER_UNITS
    else:
        metrics = {name: e2e[name] for name in GATED}
        units = UNITS
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
