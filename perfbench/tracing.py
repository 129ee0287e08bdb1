"""Layer spans recorded from outside the program.

The traced run wraps public functions of each layer (a module of
``repro``) for the length of one round and restores them afterwards, so
the program itself is never edited.  A call opens a span only when it
crosses a layer boundary: a call into layer L made while the innermost
open span already belongs to L is work inside L, and only its counters
move.  That keeps the span count proportional to the requests, not to
the inner loops (the AOF rescan of an Art. 17 erasure decodes thousands
of records per call).

Each span records (id, parent id, request id, layer, name, start, end)
on the host's monotonic clock, plus the simulated clock at both ends.
A span's self time is its duration minus its children's durations
(spans nest strictly: the simulator is single-threaded).

Simulated time is attributed where it is charged: every ``advance`` on
a simulated clock bills its seconds to the layer of the innermost open
span.  On a closed loop the bills therefore sum to the simulated elapsed
time of the timed phase, which the benchmark's own tests check.

Request ids: a span opened with no span open starts a new request.  A
callback scheduled on the simulated clock (or registered as a channel
receiver) runs under the request id that was current when it was
scheduled (or, if none was, the one current when it fires), except the
open-loop generator's ``arrival`` events, each of which admits a new
request.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

# Longest prefix first: aof and audit are modules inside packages that
# otherwise map to kvstore and gdpr.
_LAYER_PREFIXES = (
    ("repro.kvstore.aof", "aof"),
    ("repro.gdpr.audit", "audit"),
    ("repro.common.resp", "resp"),
    ("repro.common.clock", "clock"),
    ("repro.ycsb", "ycsb"),
    ("repro.crypto", "crypto"),
    ("repro.net", "net"),
    ("repro.kvstore", "kvstore"),
    ("repro.engine", "kvstore"),
    ("repro.gdpr", "gdpr"),
    ("repro.device", "device"),
    ("repro.cluster", "cluster"),
)

LAYERS = ("ycsb", "crypto", "resp", "net", "kvstore", "aof", "audit",
          "gdpr", "device", "cluster", "clock")

# Code outside every layer: the benchmark's own loops and checks.
OUTSIDE = "bench"


def layer_of(module: Optional[str]) -> str:
    for prefix, layer in _LAYER_PREFIXES:
        if module == prefix or (module or "").startswith(prefix + "."):
            return layer
    return OUTSIDE


def _len_arg(index: int) -> Callable:
    return lambda args, result: len(args[index])


def _len_result(args, result) -> int:
    return len(result)


def _flushed(args, result) -> int:
    return result or 0


def _sealed(args, result) -> int:
    return 0 if result is None else 1


@dataclass(frozen=True)
class Point:
    """One wrapped public function: ``Class.method`` or ``function``.

    ``amount`` maps (args, result) to the bytes (or items) the call
    handled; ``layer`` overrides the module's layer.
    """

    module: str
    qualname: str
    amount: Optional[Callable] = None
    layer: Optional[str] = None


POINTS: Tuple[Point, ...] = (
    # ycsb: the YCSB client (runner phases, adapter, open-loop generator)
    Point("repro.ycsb.runner", "WorkloadRunner.load"),
    Point("repro.ycsb.runner", "WorkloadRunner.run"),
    Point("repro.ycsb.adapters", "ClientAdapter.insert"),
    Point("repro.ycsb.adapters", "ClientAdapter.read"),
    Point("repro.ycsb.adapters", "ClientAdapter.update"),
    Point("repro.ycsb.openloop", "OpenLoopRunner.preload"),
    Point("repro.ycsb.openloop", "OpenLoopRunner.run"),
    # the benchmark's own checking adapter, so calls through it into
    # the YCSB adapter count as crossings into ycsb
    Point("workloads", "CheckedAdapter.read", layer=OUTSIDE),
    Point("workloads", "CheckedAdapter.update", layer=OUTSIDE),
    # crypto: envelope and sector ciphers, the per-subject key cache
    Point("repro.crypto.cipher", "AuthenticatedCipher.seal", _len_arg(1)),
    Point("repro.crypto.cipher", "AuthenticatedCipher.open", _len_arg(1)),
    Point("repro.crypto.cipher", "SectorCipher.encrypt_sector",
          _len_arg(2)),
    Point("repro.crypto.cipher", "SectorCipher.decrypt_sector",
          _len_arg(2)),
    Point("repro.crypto.keystore", "KeyStore.cipher_for"),
    Point("repro.crypto.keystore", "KeyStore.get_key"),
    Point("repro.crypto.keystore", "KeyStore.erase_key"),
    # resp: wire framing, including the decode of an AOF byte stream
    Point("repro.common.resp", "encode", _len_result),
    Point("repro.common.resp", "encode_command", _len_result),
    Point("repro.common.resp", "RespDecoder.feed", _len_arg(1)),
    Point("repro.common.resp", "RespDecoder.next_value"),
    Point("repro.common.resp", "RespDecoder.drain"),
    Point("repro.kvstore.aof", "replay_commands", _len_arg(0),
          layer="resp"),
    # net: TLS record layer, channels, endpoints
    Point("repro.net.tls", "TlsSession.send"),
    Point("repro.net.tls", "TlsSession.recv_all"),
    Point("repro.net.channel", "Channel.transmit", _len_arg(2)),
    Point("repro.net.channel", "Endpoint.recv"),
    # kvstore: engine commands and the RESP server/client glue
    Point("repro.kvstore.store", "KeyValueStore.execute"),
    Point("repro.kvstore.store", "KeyValueStore.save_snapshot"),
    Point("repro.kvstore.server", "StoreClient.call"),
    Point("repro.kvstore.server", "StoreServer.pump"),
    Point("repro.kvstore.server", "EventLoopMixin.on_readable"),
    Point("repro.kvstore.server", "EventConnection.send_command"),
    # aof: the append-only-file writer and its residual-key scan
    Point("repro.kvstore.aof", "AofWriter.feed_command"),
    Point("repro.kvstore.aof", "AofWriter.post_command"),
    Point("repro.kvstore.aof", "AofWriter.tick"),
    Point("repro.kvstore.aof", "contains_key", _len_arg(0)),
    # audit: the hash-chained audit trail
    Point("repro.gdpr.audit", "AuditLog.append"),
    Point("repro.gdpr.audit", "AuditLog.seal_block", _sealed),
    Point("repro.gdpr.audit", "AuditLog.tick"),
    Point("repro.gdpr.audit", "AuditLog.sync"),
    # gdpr: the compliance facade and the subject rights
    Point("repro.gdpr.store", "GDPRStore.put"),
    Point("repro.gdpr.store", "GDPRStore.get"),
    Point("repro.gdpr.store", "GDPRStore.keys_of_subject"),
    Point("repro.gdpr.store", "GDPRStore.flush_compliance"),
    Point("repro.gdpr.indexing", "WriteBehindIndexer.flush"),
    Point("repro.gdpr.rights", "right_of_access"),
    Point("repro.gdpr.rights", "right_to_erasure"),
    # device: append logs, block devices, the LUKS volume
    Point("repro.device.append_log", "AppendLog.append", _len_arg(1)),
    Point("repro.device.append_log", "AppendLog.flush", _flushed),
    Point("repro.device.append_log", "AppendLog.fsync"),
    Point("repro.device.append_log", "AppendLog.read_all"),
    Point("repro.device.block_device", "SimulatedBlockDevice.write",
          _len_arg(2)),
    Point("repro.device.block_device", "SimulatedBlockDevice.read"),
    Point("repro.device.block_device", "SimulatedBlockDevice.flush"),
    Point("repro.device.luks", "LuksVolume.write"),
    Point("repro.device.luks", "LuksVolume.flush"),
    # clock: the discrete-event scheduler's public entry points
    Point("repro.common.clock", "SimClock.run_until_idle"),
    Point("repro.common.clock", "SimClock.run_next"),
)


class PointStats:
    """Counters of one wrapped function, keyed by the calling layer."""

    __slots__ = ("calls", "amount", "nonzero", "span_ns")

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.amount: Dict[str, float] = {}
        self.nonzero: Dict[str, int] = {}
        self.span_ns = 0        # inclusive time of its boundary spans

    def total_calls(self, caller: Optional[str] = None) -> int:
        if caller is not None:
            return self.calls.get(caller, 0)
        return sum(self.calls.values())

    def total_amount(self, caller: Optional[str] = None) -> float:
        if caller is not None:
            return self.amount.get(caller, 0)
        return sum(self.amount.values())

    def total_nonzero(self) -> int:
        return sum(self.nonzero.values())


class SpanLog:
    """Closed spans, kept in memory column by column (a few bytes per
    field instead of a tuple of boxed numbers per span)."""

    COLUMNS = (("span", "q"), ("parent", "q"), ("request", "q"),
               ("label", "l"), ("start_ns", "q"), ("end_ns", "q"),
               ("sim_start_s", "d"), ("sim_end_s", "d"))

    def __init__(self) -> None:
        self.columns = [array(code) for _, code in self.COLUMNS]
        self.labels: List[Tuple[str, str]] = []     # (layer, name)
        self._label_index: Dict[Tuple[str, str], int] = {}

    def __len__(self) -> int:
        return len(self.columns[0])

    def add(self, *fields) -> None:
        for column, value in zip(self.columns, fields):
            column.append(value)

    def label(self, layer: str, name: str) -> int:
        key = (layer, name)
        index = self._label_index.get(key)
        if index is None:
            index = self._label_index[key] = len(self.labels)
            self.labels.append(key)
        return index

    def write(self, path: str) -> None:
        """Write every span once, as gzip-compressed tab-separated lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1,
                       encoding="utf-8") as out:
            out.write("span\tparent\trequest\tlayer\tname\tstart_ns\t"
                      "end_ns\tsim_start_s\tsim_end_s\n")
            ids, parents, requests, labels, starts, ends, sim_starts, \
                sim_ends = self.columns
            for row in range(len(ids)):
                layer, name = self.labels[labels[row]]
                out.write(f"{ids[row]}\t{parents[row]}\t{requests[row]}\t"
                          f"{layer}\t{name}\t{starts[row]}\t{ends[row]}\t"
                          f"{sim_starts[row]!r}\t{sim_ends[row]!r}\n")


# Frame slots (a list per open span, for speed).
_LAYER, _NAME, _START, _SIM, _CHILD, _ID, _PARENT, _RID = range(8)


class Tracer:
    """Spans and per-layer counters for one traced round."""

    def __init__(self) -> None:
        self.active = False
        self.sim_clock = None
        self.stack: List[list] = []
        self.spans = SpanLog()
        self.points: Dict[str, PointStats] = {
            p.qualname: PointStats() for p in POINTS}
        self.calls: Dict[str, int] = {}
        self.bytes: Dict[str, float] = {}
        self.cpu_self_ns: Dict[str, int] = {}
        self.sim_self: Dict[str, float] = {}
        self.events = 0
        self.wire_s = 0.0
        self.sim_start = 0.0
        self.sim_elapsed = 0.0
        self._next_span = 0
        self._next_rid = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- install / remove -----------------------------------------------

    def install(self) -> None:
        """Wrap every trace point (and the clocks and schedulers)."""
        for point in POINTS:
            module = importlib.import_module(point.module)
            layer = point.layer or layer_of(point.module)
            if "." in point.qualname:
                cls_name, attr = point.qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(original, layer, point))
            else:
                original = getattr(module, point.qualname)
                wrapper = self._wrap(original, layer, point)
                # Modules that imported the function by name hold their
                # own reference: patch every one of them.
                for name, loaded in list(sys.modules.items()):
                    if (name == "repro" or name.startswith("repro.")) \
                            and getattr(loaded, point.qualname,
                                        None) is original:
                        self._patch(loaded, point.qualname, wrapper)
        clock = importlib.import_module("repro.common.clock")
        channel = importlib.import_module("repro.net.channel")
        self._patch(clock.SimClock, "advance",
                    self._charging(clock.SimClock.__dict__["advance"]))
        self._patch(clock.WorkerClock, "advance",
                    self._charging(clock.WorkerClock.__dict__["advance"]))
        self._patch(clock.SimClock, "schedule_at",
                    self._scheduling(clock.SimClock.__dict__["schedule_at"]))
        self._patch(channel.Endpoint, "set_receiver",
                    self._receiving(channel.Endpoint.__dict__["set_receiver"]))
        self._patch(channel.Channel, "transmit",
                    self._wiring(channel.Channel.__dict__["transmit"]))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)
                              if not isinstance(owner, type)
                              else owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- the timed phase ------------------------------------------------

    def start(self, sim_clock) -> None:
        self.sim_clock = sim_clock
        self.sim_start = sim_clock.now()
        self.active = True

    def stop(self) -> None:
        self.active = False
        self.sim_elapsed += self.sim_clock.now() - self.sim_start

    def _sim_now(self) -> float:
        return self.sim_clock.now() if self.sim_clock is not None else 0.0

    # -- spans ----------------------------------------------------------

    def _open(self, layer: str, name: str, rid: Optional[int]) -> list:
        stack = self.stack
        parent = stack[-1] if stack else None
        if rid is None:
            if parent is not None:
                rid = parent[_RID]
            else:
                self._next_rid += 1
                rid = self._next_rid
        self._next_span += 1
        frame = [layer, name, 0, self._sim_now(), 0, self._next_span,
                 parent[_ID] if parent is not None else 0, rid]
        stack.append(frame)
        frame[_START] = time.perf_counter_ns()
        return frame

    def _close(self, frame: list) -> int:
        end = time.perf_counter_ns()
        self.stack.pop()
        duration = end - frame[_START]
        layer = frame[_LAYER]
        self.cpu_self_ns[layer] = (self.cpu_self_ns.get(layer, 0)
                                   + duration - frame[_CHILD])
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if self.stack:
            self.stack[-1][_CHILD] += duration
        self.spans.add(frame[_ID], frame[_PARENT], frame[_RID],
                       self.spans.label(layer, frame[_NAME]), frame[_START],
                       end, frame[_SIM], self._sim_now())
        return duration

    def _caller(self) -> str:
        return self.stack[-1][_LAYER] if self.stack else OUTSIDE

    def _wrap(self, original, layer: str, point: Point):
        tracer = self
        stats = self.points[point.qualname]
        name = point.qualname
        amount = point.amount

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            caller = tracer._caller()
            stats.calls[caller] = stats.calls.get(caller, 0) + 1
            if caller == layer:
                result = original(*args, **kwargs)
            else:
                frame = tracer._open(layer, name, None)
                try:
                    result = original(*args, **kwargs)
                finally:
                    stats.span_ns += tracer._close(frame)
            if amount is not None:
                moved = amount(args, result)
                stats.amount[caller] = stats.amount.get(caller, 0) + moved
                if moved:
                    stats.nonzero[caller] = \
                        stats.nonzero.get(caller, 0) + 1
                if caller != layer:
                    tracer.bytes[layer] = tracer.bytes.get(layer, 0) + moved
            return result

        return traced

    def _callback(self, callback, label: str):
        """A scheduled or registered callback, run as a span of the layer
        that defined it, under the request id current at scheduling."""
        tracer = self
        layer = layer_of(getattr(callback, "__module__", None))
        name = "event:" + (label or getattr(callback, "__qualname__", "?"))
        rid = self.stack[-1][_RID] if self.active and self.stack else None
        new_request = label == "arrival"

        def fire(*args, **kwargs):
            if not tracer.active:
                return callback(*args, **kwargs)
            tracer.events += 1
            request = rid
            if new_request:
                tracer._next_rid += 1
                request = tracer._next_rid
            frame = tracer._open(layer, name, request)
            try:
                return callback(*args, **kwargs)
            finally:
                tracer._close(frame)

        return fire

    def _scheduling(self, original):
        tracer = self

        @functools.wraps(original)
        def schedule_at(clock, when, callback, label="", daemon=False):
            return original(clock, when, tracer._callback(callback, label),
                            label=label, daemon=daemon)

        return schedule_at

    def _receiving(self, original):
        tracer = self

        @functools.wraps(original)
        def set_receiver(endpoint, callback):
            if callback is not None:
                callback = tracer._callback(callback, "receive")
            return original(endpoint, callback)

        return set_receiver

    def _charging(self, original):
        tracer = self

        @functools.wraps(original)
        def advance(clock, seconds):
            if tracer.active:
                layer = tracer._caller()
                tracer.sim_self[layer] = \
                    tracer.sim_self.get(layer, 0.0) + seconds
            return original(clock, seconds)

        return advance

    def _wiring(self, traced_transmit):
        """Event-mode channels charge no clock: the link time of each
        message is added to the net layer's simulated time here."""
        tracer = self

        @functools.wraps(traced_transmit)
        def transmit(channel, from_side, data):
            if tracer.active and channel.event_driven:
                tracer.wire_s += channel.transfer_time(len(data))
            return traced_transmit(channel, from_side, data)

        return transmit
