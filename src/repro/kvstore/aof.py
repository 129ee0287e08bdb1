"""Append-only-file persistence, including the paper's audit extension.

Redis' AOF records every command that *modifies* the dataset, encoded as
RESP command arrays, and replays them at startup.  The paper's key change
(section 4.1) is ``log_reads=True``: GDPR Art. 30 requires an audit trail
of *all* interactions with personal data, so reads are appended too --
which is what "turns every read operation into a read followed by a write".

Fsync policy (``appendfsync``) reproduces Redis' three settings:

* ``always``  -- flush + fsync after every command (the paper's strict
  real-time compliance: throughput falls to ~5% of baseline);
* ``everysec``-- flush after every command, fsync at most once per second
  (eventual compliance with a 1-second exposure window: ~30% of baseline,
  the 6x recovery the paper reports);
* ``no``      -- flush only; the OS decides when data reaches media.
"""

from __future__ import annotations

import enum
import weakref
from array import array
from typing import Dict, Iterable, List, Optional, Sequence

from ..common.clock import Clock
from ..common.errors import PersistenceError, ProtocolError
from ..common.resp import RespDecoder, encode_command
from ..device.append_log import AppendLog


class FsyncPolicy(enum.Enum):
    ALWAYS = "always"
    EVERYSEC = "everysec"
    NO = "no"

    @classmethod
    def parse(cls, text: str) -> "FsyncPolicy":
        try:
            return cls(text.lower())
        except ValueError:
            raise PersistenceError(
                f"unknown appendfsync policy {text!r}; "
                "choose always, everysec, or no")


class AofWriter:
    """Feeds executed commands into an :class:`AppendLog`.

    ``record_cost`` is the per-record CPU+syscall cost charged to the clock
    (see ``repro.bench.calibration`` for the derivation); the fsync cost is
    charged by the underlying log's latency model.
    """

    def __init__(self, log: AppendLog, clock: Clock,
                 policy: FsyncPolicy = FsyncPolicy.EVERYSEC,
                 log_reads: bool = False,
                 record_base_cost: float = 0.0,
                 record_per_byte_cost: float = 0.0) -> None:
        self.log = log
        self.clock = clock
        self.policy = policy
        self.log_reads = log_reads
        self.record_base_cost = record_base_cost
        self.record_per_byte_cost = record_per_byte_cost
        self._selected_db = 0
        self._last_fsync = clock.now()
        self.records_written = 0
        self.reads_logged = 0

    # -- the write path -------------------------------------------------------

    def feed_command(self, db_index: int, args: Sequence[bytes],
                     is_write: bool) -> None:
        """Append one executed command (called after successful execution)."""
        if not is_write and not self.log_reads:
            return
        if db_index != self._selected_db:
            select = encode_command(b"SELECT", str(db_index).encode())
            self.log.append(select)
            self._selected_db = db_index
        record = encode_command(*args)
        if self.record_base_cost or self.record_per_byte_cost:
            self.clock.advance(self.record_base_cost
                               + len(record) * self.record_per_byte_cost)
        self.log.append(record)
        self.records_written += 1
        if not is_write:
            self.reads_logged += 1

    def post_command(self) -> None:
        """Flush the application buffer; fsync if policy is ALWAYS.

        Mirrors Redis' flushAppendOnlyFile call at the end of each event
        loop iteration.
        """
        moved = self.log.flush()
        if self.policy is FsyncPolicy.ALWAYS and moved:
            self.log.fsync()
            self._last_fsync = self.clock.now()

    def tick(self, now: float) -> None:
        """Background fsync for the EVERYSEC policy."""
        if self.policy is FsyncPolicy.EVERYSEC and now - self._last_fsync >= 1.0:
            self.log.flush()
            self.log.fsync()
            self._last_fsync = now

    # -- exposure accounting ------------------------------------------------------

    def unsynced_bytes(self) -> int:
        """Bytes that a power loss right now would lose -- the 'one second
        worth of logs' exposure the paper describes for everysec."""
        return (self.log.total_length - self.log.durable_length)


def _next_record(decoder: RespDecoder) -> Optional[List[bytes]]:
    """Pop the next complete command array; ``None`` if more bytes are
    needed.  Bytes that are structurally invalid raise
    :class:`PersistenceError`."""
    try:
        found, value = decoder.next_value()
    except Exception as exc:
        raise PersistenceError(f"corrupt AOF stream: {exc}") from exc
    if not found:
        return None
    if (not isinstance(value, list) or not value
            or not all(isinstance(a, bytes) for a in value)):
        raise PersistenceError(
            f"AOF record is not a command array: {value!r}")
    return value


def replay_commands(data: bytes,
                    tolerate_truncated_tail: bool = True) -> List[List[bytes]]:
    """Decode an AOF byte stream into a list of command argument vectors.

    A clean prefix followed by an incomplete final record is the normal
    crash shape; with ``tolerate_truncated_tail`` (Redis'
    ``aof-load-truncated yes``) the complete prefix is returned.  Bytes
    that are structurally invalid raise :class:`PersistenceError`.
    """
    decoder = RespDecoder()
    decoder.feed(data)
    commands: List[List[bytes]] = []
    while True:
        record = _next_record(decoder)
        if record is None:
            break
        commands.append(record)
    if decoder.buffered and not tolerate_truncated_tail:
        raise PersistenceError(
            f"AOF has {decoder.buffered} bytes of truncated tail")
    return commands


def contains_key(data: bytes, key: bytes) -> bool:
    """Does any record in the AOF stream mention ``key``?

    This is the section 4.3 check: after DEL, the key still *persists in
    the AOF* until a rewrite compacts it away -- the paper calls this out
    as antithetical to GDPR erasure.
    """
    for args in replay_commands(data):
        if key in args[1:]:
            return True
    return False


class _MentionIndex:
    """What :func:`aof_mentions` knows about one log at one ``epoch``.

    ``first`` maps ``hash(arg)`` to the number of the first record whose
    ``args[1:]`` holds an argument with that hash; record ``n`` spans
    bytes ``bounds[n]:bounds[n + 1]`` of the log.  Only ints are kept,
    never the argument bytes.
    """

    __slots__ = ("epoch", "fed", "decoder", "first", "bounds", "error")

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        self.fed = 0                    # log bytes handed to the decoder
        self.decoder = RespDecoder()
        self.first: Dict[int, int] = {}
        self.bounds = array("q", [0])
        self.error: Optional[str] = None

    def catch_up(self, log: AppendLog) -> None:
        """Decode the bytes appended since the last call.  A structural
        error is kept and raised again on every later call, as a full
        rescan of the same bytes would."""
        if self.error is None and log.total_length > self.fed:
            chunk = log.read_from(self.fed)
            self.fed += len(chunk)
            decoder = self.decoder
            decoder.feed(chunk)
            first, bounds = self.first, self.bounds
            try:
                while True:
                    record = _next_record(decoder)
                    if record is None:
                        break
                    number = len(bounds) - 1
                    bounds.append(self.fed - decoder.buffered)
                    for arg in record[1:]:
                        first.setdefault(hash(arg), number)
            except PersistenceError as exc:
                self.error = str(exc)
        if self.error is not None:
            raise PersistenceError(self.error)

    def mentions(self, log: AppendLog, key: bytes) -> bool:
        number = self.first.get(hash(key))
        if number is None:
            return False
        # Confirm on the one record; a hash collision (or a record that
        # does not decode) falls back to the full rescan.
        start, end = self.bounds[number], self.bounds[number + 1]
        decoder = RespDecoder()
        decoder.feed(log.read_from(start, end - start))
        try:
            found, record = decoder.next_value()
        except (ProtocolError, ValueError):
            found = False
        if found and isinstance(record, list) and key in record[1:]:
            return True
        return contains_key(log.read_all(), key)


_MENTION_INDEXES: "weakref.WeakKeyDictionary[AppendLog, _MentionIndex]" = \
    weakref.WeakKeyDictionary()


def aof_mentions(log: AppendLog, keys: Iterable[bytes]) -> bool:
    """``any(contains_key(log.read_all(), k) for k in keys)``, exactly --
    the same answer and the same :class:`PersistenceError` -- at the
    cost of decoding only the bytes appended since the last call.

    One index per log lives beside it (weakly keyed, so engines need no
    plumbing).  It is rebuilt from the start when ``log.epoch`` moves
    (a rewrite, crash or torn write changed bytes already indexed) or
    when the log is shorter than what the index has read.
    """
    index = None
    for key in keys:
        if index is None:
            index = _MENTION_INDEXES.get(log)
            if (index is None or index.epoch != log.epoch
                    or log.total_length < index.fed):
                index = _MENTION_INDEXES[log] = _MentionIndex(log.epoch)
            index.catch_up(log)
        if index.mentions(log, key):
            return True
    return False


class AofRewriter:
    """Generate a compacted AOF from live store state (BGREWRITEAOF).

    The output recreates exactly the current dataset: one write command per
    key plus a PEXPIREAT for volatile keys.  Deleted data -- and any trace
    of erased subjects -- is gone after :meth:`rewrite_into`.
    """

    def __init__(self, store) -> None:
        self._store = store

    def dump_commands(self) -> List[bytes]:
        from .datatypes import type_name  # local import avoids a cycle
        chunks: List[bytes] = []
        for db in self._store.databases:
            if len(db) == 0:
                continue
            chunks.append(encode_command(b"SELECT",
                                         str(db.index).encode()))
            for key in db.keys():
                value = db.get_value(key)
                kind = type_name(value)
                if kind == "string":
                    chunks.append(encode_command(b"SET", key, value))
                elif kind == "hash":
                    flat: List[bytes] = []
                    for field, fval in value.items():
                        flat.extend((field, fval))
                    chunks.append(encode_command(b"HSET", key, *flat))
                elif kind == "list":
                    chunks.append(encode_command(b"RPUSH", key, *value))
                elif kind == "set":
                    chunks.append(encode_command(b"SADD", key,
                                                 *sorted(value)))
                elif kind == "zset":
                    flat = []
                    for member, score in value.items():
                        flat.extend((repr(score).encode("ascii"), member))
                    chunks.append(encode_command(b"ZADD", key, *flat))
                expire_at = db.get_expiry(key)
                if expire_at is not None:
                    millis = str(int(expire_at * 1000)).encode()
                    chunks.append(encode_command(b"PEXPIREAT", key, millis))
        return chunks

    def rewrite_into(self, log: AppendLog) -> int:
        """Replace ``log`` contents with the compacted stream; returns its
        size in bytes."""
        data = b"".join(self.dump_commands())
        log.replace(data)
        return len(data)
