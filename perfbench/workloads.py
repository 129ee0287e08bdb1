"""The benchmark's three workloads.

Each workload is one round: build the stack and load it (set-up), run a
fixed, seed-determined amount of work (the timed phase), then check the
outputs.  A round returns its simulated metrics, which depend only on
the seed, plus the operations it attempted and every check that failed.

The workloads drive the library through public entry points only:

* ``ycsb-a-tls``          -- ``bench.calibration.make_luks_tls`` and
  ``ycsb.WorkloadRunner`` (the paper's Figure 1 "LUKS+TLS" system);
* ``gdpr-fast-rights``    -- ``gdpr.GDPRStore`` in the fast-GDPR
  configuration of the ``backends`` scenario, and ``gdpr.rights``;
* ``openloop-zipf-4core`` -- ``ycsb.openloop.OpenLoopRunner`` over
  ``cluster.build_cluster``.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.bench.backends import FAST_AUDIT_BLOCK_SIZE, RETENTION_TTL
from repro.bench.calibration import (
    AOF_RECORD_BASE_COST,
    AOF_RECORD_PER_BYTE,
    BASE_COMMAND_CPU,
    RAW_ONE_WAY_LATENCY,
    make_luks_tls,
)
from repro.bench.scaling import KNEE_P99_CEILING
from repro.cluster import build_cluster
from repro.common.clock import SimClock
from repro.common.errors import KeyErasedError
from repro.common.histogram import LatencyHistogram
from repro.device.append_log import AppendLog
from repro.device.latency import INTEL_750_SSD
from repro.gdpr import rights
from repro.gdpr.audit import AuditDurability, AuditLog
from repro.gdpr.metadata import GDPRMetadata
from repro.gdpr.store import GDPRConfig, GDPRStore
from repro.kvstore.store import KeyValueStore, StoreConfig
from repro.ycsb.adapters import StorageAdapter
from repro.ycsb.distributions import ScrambledZipfianGenerator
from repro.ycsb.openloop import OpenLoopRunner
from repro.ycsb.runner import WorkloadRunner
from repro.ycsb.workloads import WORKLOAD_A, WORKLOAD_B

RECORDS = 1000

# ycsb-a-tls: a LUKS save point every SNAPSHOT_EVERY run-phase operations
# (the stand-in for Redis save points); the snapshot's simulated time is
# part of the elapsed time and of the operation it follows.
TLS_OPS = 6000
SNAPSHOT_EVERY = 1000
# The snapshot is ~1.1 MB.  The factory's default 64 MiB volume costs the
# same simulated time, but each flush copies the whole image in host
# memory, which would make the host metrics measure memcpy.
LUKS_VOLUME_MB = 8

# gdpr-fast-rights: exact op counts, shuffled, so every run makes the
# same number of Art. 17 erasures (>= 100, enough for a p90 with ten
# samples beyond it).
GDPR_SUBJECTS = 1000
GDPR_RECORDS_PER_SUBJECT = 4
GDPR_MIX = (("get", 4900), ("put", 4900), ("access", 100),
            ("erase", 100))
GDPR_VALUE_BYTES = (768, 1280)
PURPOSE = "service"

# openloop-zipf-4core: one shard, four simulated cores.
OPENLOOP_RATES = (80_000.0, 100_000.0, 120_000.0, 140_000.0, 160_000.0)
OPENLOOP_OPS_PER_RATE = 10_000
OPENLOOP_CLIENTS = 32
OPENLOOP_CORES = 4
LATENCY_RATE = 120_000.0        # where sim_p50_us / sim_p99_us are read
CAPACITY_RATE = 160_000.0       # where sim_ops_per_s is read
# A rate "keeps up" (its backlog is not growing) when completions per
# simulated second reach this share of the offered rate.
KEEP_UP = 0.98


class Phases:
    """Times a round's set-up (wall seconds) and timed phase (process CPU
    seconds), and starts and stops the tracer, if any, with the timed
    phase.  The workload enters ``setup()`` and ``timed(clock)`` around
    the matching code."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.setup_s = 0.0
        self.cpu_s = 0.0

    @contextmanager
    def setup(self):
        began = time.perf_counter()
        try:
            yield
        finally:
            self.setup_s += time.perf_counter() - began

    @contextmanager
    def timed(self, sim_clock):
        if self.tracer is not None:
            self.tracer.start(sim_clock)
        began = time.process_time()
        try:
            yield
        finally:
            self.cpu_s += time.process_time() - began
            if self.tracer is not None:
                self.tracer.stop()


@dataclass
class Outcome:
    """What one round measured and checked."""

    sim: Dict[str, float]          # simulated metrics (seed-determined)
    ops: int                       # operations attempted (timed phase)
    failures: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)  # cluster.*


def percentile(samples: List[float], pct: float) -> float:
    """Nearest-rank percentile of raw samples."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


# -- ycsb-a-tls --------------------------------------------------------------


class CheckedAdapter(StorageAdapter):
    """Wraps the YCSB adapter: keeps a reference copy of every record,
    checks each read against it, times each operation on the simulated
    clock, and takes the LUKS save point every ``SNAPSHOT_EVERY``
    run-phase operations."""

    def __init__(self, inner: StorageAdapter, clock: SimClock,
                 snapshot: Callable[[], int]) -> None:
        self.inner = inner
        self.clock = clock
        self.snapshot = snapshot
        self.reference: Dict[str, Dict[str, bytes]] = {}
        self.latencies: List[float] = []
        self.failures: List[str] = []
        self.timing = False
        self._ops = 0

    def flush(self) -> None:
        self.inner.flush()

    def insert(self, key, values):
        self.inner.insert(key, values)
        self.reference[key] = dict(values)

    def read(self, key, fields=None):
        began = self.clock.now()
        got = self.inner.read(key, fields)
        self._after(began)
        self.check_read(key, fields, got)
        return got

    def update(self, key, values):
        began = self.clock.now()
        self.inner.update(key, values)
        self._after(began)
        self.reference[key].update(values)

    def check_read(self, key, fields, got) -> None:
        expected = self.reference.get(key, {})
        if fields:
            expected = {name: expected[name] for name in fields
                        if name in expected}
        if got != expected:
            self.failures.append(f"read {key}: stale or wrong value")

    def _after(self, began: float) -> None:
        if not self.timing:
            return
        self._ops += 1
        if self._ops % SNAPSHOT_EVERY == 0:
            self.save_point()
        self.latencies.append(self.clock.now() - began)

    def save_point(self) -> None:
        if not self.snapshot():
            self.failures.append("snapshot did not fit the LUKS volume")


def run_ycsb_a_tls(seed: int, phases: Phases,
                   ops: int = TLS_OPS) -> Outcome:
    with phases.setup():
        sut = make_luks_tls(volume_mb=LUKS_VOLUME_MB, seed=seed)
        # YCSB-A never scans, so (as in Figure 1's A-D group) no index.
        sut.adapter.maintain_scan_index = False
        adapter = CheckedAdapter(sut.adapter, sut.clock,
                                 sut.maybe_snapshot_to_luks)
        spec = WORKLOAD_A.scaled(record_count=RECORDS, operation_count=ops)
        runner = WorkloadRunner(adapter, spec, sut.clock, seed=seed)
        runner.load()
        adapter.save_point()
    adapter.timing = True
    with phases.timed(sut.clock):
        report = runner.run(ops)
    failures = list(adapter.failures)
    if report.failures:
        failures.append(f"{report.failures} operations raised KeyError")
    if len(adapter.latencies) != ops:
        failures.append(f"{len(adapter.latencies)} of {ops} ops timed")
    return Outcome(
        sim={"sim_ops_per_s": report.throughput,
             "sim_p50_us": percentile(adapter.latencies, 50) * 1e6,
             "sim_p99_us": percentile(adapter.latencies, 99) * 1e6},
        ops=ops, failures=failures)


# -- gdpr-fast-rights --------------------------------------------------------


def fast_gdpr_store() -> GDPRStore:
    """The ``backends`` scenario's fast-GDPR stack on the redislike
    engine: AOF everysec with reads logged on an SSD-latency log, a
    block audit chain (64 records, 1 s group commit) on its own SSD
    log, write-behind indexing, per-subject encryption, and no AOF
    compaction on erasure."""
    clock = SimClock()
    engine = KeyValueStore(
        StoreConfig(command_cpu_cost=BASE_COMMAND_CPU, appendonly=True,
                    appendfsync="everysec", aof_log_reads=True,
                    aof_record_base_cost=AOF_RECORD_BASE_COST,
                    aof_record_per_byte_cost=AOF_RECORD_PER_BYTE, seed=0),
        clock=clock, aof_log=AppendLog(clock=clock, latency=INTEL_750_SSD))
    audit = AuditLog(log=AppendLog(clock=clock, latency=INTEL_750_SSD),
                     clock=clock, durability=AuditDurability.BATCH,
                     batch_interval=1.0, record_cpu_cost=5e-6,
                     chain_mode="block", block_size=FAST_AUDIT_BLOCK_SIZE)
    return GDPRStore(
        kv=engine,
        config=GDPRConfig(encrypt_at_rest=True,
                          audit_durability=AuditDurability.BATCH,
                          compact_on_erasure=False, fast_gdpr=True,
                          audit_block_size=FAST_AUDIT_BLOCK_SIZE),
        audit=audit)


@dataclass
class GdprRequests:
    """The request stream, generated from the seed before timing."""

    ops: List[tuple]               # (kind, subject slot, record, value)
    onboard: List[bytes]           # values for subjects onboarded later


def gdpr_requests(seed: int, mix=GDPR_MIX) -> GdprRequests:
    rng = random.Random(seed)
    kinds = [kind for kind, count in mix for _ in range(count)]
    rng.shuffle(kinds)
    chooser = ScrambledZipfianGenerator(
        0, GDPR_SUBJECTS - 1, rng=random.Random(rng.randrange(1 << 30)))
    ops = []
    erasures = 0
    for kind in kinds:
        value = b""
        if kind == "put":
            value = rng.randbytes(rng.randint(*GDPR_VALUE_BYTES))
        erasures += kind == "erase"
        ops.append((kind, chooser.next_value(),
                    rng.randrange(GDPR_RECORDS_PER_SUBJECT), value))
    onboard = [rng.randbytes(rng.randint(*GDPR_VALUE_BYTES))
               for _ in range(GDPR_RECORDS_PER_SUBJECT
                              * (GDPR_SUBJECTS + erasures))]
    return GdprRequests(ops=ops, onboard=onboard)


class Population:
    """The live subjects: slot -> current subject, plus the reference
    copy of every live record."""

    def __init__(self, store: GDPRStore, values: List[bytes]) -> None:
        self.store = store
        self.values = iter(values)
        self.generation = [0] * GDPR_SUBJECTS
        self.metadata: Dict[str, GDPRMetadata] = {}
        self.reference: Dict[str, bytes] = {}
        self.bytes_accepted = 0

    def subject(self, slot: int) -> str:
        return f"subject-{slot}-g{self.generation[slot]}"

    @staticmethod
    def key(subject: str, record: int) -> str:
        return f"{subject}/rec{record}"

    def keys_of(self, subject: str) -> List[str]:
        return [self.key(subject, record)
                for record in range(GDPR_RECORDS_PER_SUBJECT)]

    def put(self, subject: str, record: int, value: bytes) -> None:
        key = self.key(subject, record)
        self.store.put(key, value, self.metadata[subject], purpose=PURPOSE)
        self.reference[key] = value
        self.bytes_accepted += len(value)

    def onboard(self, slot: int) -> None:
        subject = self.subject(slot)
        self.metadata[subject] = GDPRMetadata(
            owner=subject, purposes=frozenset({PURPOSE}), ttl=RETENTION_TTL)
        for record in range(GDPR_RECORDS_PER_SUBJECT):
            self.put(subject, record, next(self.values))

    def retire(self, slot: int) -> List[str]:
        subject = self.subject(slot)
        keys = self.keys_of(subject)
        for key in keys:
            del self.reference[key]
        self.generation[slot] += 1
        return keys


def run_gdpr_fast_rights(seed: int, phases: Phases,
                         mix=GDPR_MIX) -> Outcome:
    with phases.setup():
        requests = gdpr_requests(seed, mix)
        store = fast_gdpr_store()
        clock = store.clock
        people = Population(store, requests.onboard)
        for slot in range(GDPR_SUBJECTS):
            people.onboard(slot)
        # The loaded population starts durable, so the everysec exposure
        # measured below is the steady state's, not the load's backlog.
        store.flush_compliance()
        store.kv.aof_log.flush_and_fsync()
    failures: List[str] = []
    latencies: List[float] = []
    erase_latencies: List[float] = []
    erased: List[tuple] = []       # (subject, keys)
    at_risk_max = 0
    unsynced_max = 0
    aof_log, audit_log = store.kv.aof_log, store.audit.log
    logged_before = aof_log.total_length + audit_log.total_length
    accepted_before = people.bytes_accepted
    with phases.timed(clock):
        started = clock.now()
        for kind, slot, record, value in requests.ops:
            subject = people.subject(slot)
            began = clock.now()
            if kind == "get":
                key = people.key(subject, record)
                got = store.get(key, purpose=PURPOSE).value
                latencies.append(clock.now() - began)
                if got != people.reference[key]:
                    failures.append(f"get {key}: stale or wrong value")
            elif kind == "put":
                people.put(subject, record, value)
                latencies.append(clock.now() - began)
            elif kind == "access":
                listed = {row["key"] for row in
                          rights.right_of_access(store, subject).records}
                if listed != set(people.keys_of(subject)):
                    failures.append(f"access report of {subject} lists "
                                    f"{sorted(listed)}")
            else:
                receipt = rights.right_to_erasure(store, subject)
                erase_latencies.append(clock.now() - began)
                keys = people.retire(slot)
                if set(receipt.keys_erased) != set(keys) \
                        or not receipt.crypto_erased:
                    failures.append(f"erasure receipt of {subject} is "
                                    "incomplete")
                erased.append((subject, keys))
                people.onboard(slot)
            at_risk_max = max(at_risk_max, store.audit.at_risk_records())
            unsynced_max = max(unsynced_max, store.kv.aof.unsynced_bytes())
        store.flush_compliance()
        elapsed = clock.now() - started
    failures += _check_erased(store, erased)
    durable = store.audit.verify_durable()
    if durable != store.audit.record_count:
        failures.append(f"audit log: {durable} of "
                        f"{store.audit.record_count} records durable")
    logged = aof_log.total_length + audit_log.total_length - logged_before
    accepted = people.bytes_accepted - accepted_before
    return Outcome(
        sim={"sim_ops_per_s": len(requests.ops) / elapsed,
             "sim_p50_us": percentile(latencies, 50) * 1e6,
             "sim_p99_us": percentile(latencies, 99) * 1e6,
             "erase_p50_ms": percentile(erase_latencies, 50) * 1e3,
             "erase_p90_ms": percentile(erase_latencies, 90) * 1e3,
             "audit_at_risk_max": float(at_risk_max),
             "aof_unsynced_max_kb": unsynced_max / 1024,
             "write_amp": logged / accepted},
        ops=len(requests.ops), failures=failures)


def _check_erased(store: GDPRStore, erased) -> List[str]:
    """Every erased subject's keys are gone from the engine and its data
    key is destroyed (its ciphertexts are unreadable anywhere)."""
    failures = []
    for subject, keys in erased:
        if any(store.kv.execute("GET", key) is not None for key in keys):
            failures.append(f"{subject}: erased key still readable")
        try:
            store.keystore.cipher_for(subject, create=False)
            failures.append(f"{subject}: data key survived erasure")
        except KeyErasedError:
            pass
    return failures


# -- openloop-zipf-4core -----------------------------------------------------


def _shard_store(index: int, clock) -> KeyValueStore:
    return KeyValueStore(
        StoreConfig(command_cpu_cost=BASE_COMMAND_CPU, seed=index),
        clock=clock)


def run_openloop(seed: int, phases: Phases,
                 ops_per_rate: int = OPENLOOP_OPS_PER_RATE) -> Outcome:
    spec = WORKLOAD_B.scaled(record_count=RECORDS,
                             operation_count=ops_per_rate)
    failures: List[str] = []
    reports = {}
    pool_rows = {}
    for rate in OPENLOOP_RATES:
        with phases.setup():
            cluster = build_cluster(
                1, store_factory=_shard_store, latency=RAW_ONE_WAY_LATENCY,
                event_driven=True, workers=OPENLOOP_CORES,
                adaptive_batch=True, placement=True)
            runner = OpenLoopRunner(cluster, spec, clients=OPENLOOP_CLIENTS,
                                    arrival_rate=rate, seed=seed)
            runner.preload()
        with phases.timed(cluster.clock):
            report = runner.run(ops_per_rate)
        reports[rate] = report
        pool = cluster.nodes[0].pool
        pool_rows[rate] = (pool.worker_rows(), pool.route_memo.hits,
                           pool.route_memo.misses, len(pool.rebalances),
                           pool.merged_queue_delay())
        if not (report.admitted == ops_per_rate
                and report.completed == report.admitted):
            failures.append(f"{int(rate)}/s: {report.completed} of "
                            f"{report.admitted} admitted ops completed")
        if report.failures or report.throttled:
            failures.append(f"{int(rate)}/s: {report.failures} error "
                            f"replies, {report.throttled} throttled")
        if cluster.nodes[0].store.execute("DBSIZE") != RECORDS:
            failures.append(f"{int(rate)}/s: records lost")
    knee = max([rate for rate, report in reports.items()
                if report.latency.percentile(99) <= KNEE_P99_CEILING
                and report.throughput >= KEEP_UP * rate], default=0.0)
    at = reports[LATENCY_RATE]
    return Outcome(
        sim={"sim_ops_per_s": reports[CAPACITY_RATE].throughput,
             "sim_p50_us": at.latency.percentile(50) * 1e6,
             "sim_p99_us": at.latency.percentile(99) * 1e6,
             "knee_ops_per_s": knee},
        ops=sum(report.admitted for report in reports.values()),
        failures=failures, layers=cluster_layer(pool_rows))


def cluster_layer(pool_rows) -> Dict[str, float]:
    """The cluster layer's counters, read from the worker pools: summed
    over every rate, except the queue-delay p99 (at ``LATENCY_RATE``)."""
    dispatches = commands = hits = misses = rebalances = 0
    busy: Dict[int, float] = {}
    for rows, memo_hits, memo_misses, fired, _ in pool_rows.values():
        for row in rows:
            dispatches += row["dispatches"]
            commands += row["commands"]
            busy[row["worker"]] = busy.get(row["worker"], 0.0) \
                + row["busy_seconds"]
        hits += memo_hits
        misses += memo_misses
        rebalances += fired
    queue_delay: LatencyHistogram = pool_rows[LATENCY_RATE][4]
    mean_busy = sum(busy.values()) / len(busy)
    return {
        "cluster.dispatches": dispatches,
        "cluster.batch_mean": commands / dispatches,
        "cluster.queue_delay_p99_us": queue_delay.percentile(99) * 1e6,
        "cluster.core_busy_max_over_mean": max(busy.values()) / mean_busy,
        "cluster.rebalances": rebalances,
        "cluster.route_memo_hit_ratio": hits / (hits + misses),
    }


WORKLOADS: Dict[str, Callable[[int, Phases], Outcome]] = {
    "ycsb-a-tls": run_ycsb_a_tls,
    "gdpr-fast-rights": run_gdpr_fast_rights,
    "openloop-zipf-4core": run_openloop,
}

# Simulated metrics each workload reports; all must repeat exactly for
# a given seed.
SIMULATED = {
    "ycsb-a-tls": ("sim_ops_per_s", "sim_p50_us", "sim_p99_us"),
    "gdpr-fast-rights": ("sim_ops_per_s", "sim_p50_us", "sim_p99_us",
                         "erase_p50_ms", "erase_p90_ms",
                         "audit_at_risk_max", "aof_unsynced_max_kb",
                         "write_amp"),
    "openloop-zipf-4core": ("sim_ops_per_s", "sim_p50_us", "sim_p99_us",
                            "knee_ops_per_s"),
}
