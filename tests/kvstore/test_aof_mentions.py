"""``aof_mentions`` (the incremental Art. 17 residual check) against the
full rescan it replaces: ``any(contains_key(log.read_all(), k))``.

The index must give the same bool, or raise the same
:class:`PersistenceError`, at every point of any command sequence --
across db switches, values equal to other keys' names, rewrites,
crashes and torn writes -- while decoding only appended bytes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import SimClock
from repro.common.errors import PersistenceError
from repro.common.resp import encode_command
from repro.crypto.keystore import KeyStore
from repro.device.append_log import AppendLog
from repro.gdpr.metadata import GDPRMetadata
from repro.gdpr.rights import right_to_erasure
from repro.gdpr.store import GDPRConfig, GDPRStore
from repro.kvstore import aof
from repro.kvstore.aof import aof_mentions, contains_key
from repro.kvstore.store import KeyValueStore, StoreConfig
from repro.sqlstore import RelationalStore, SqlConfig
from repro.tiering import TieredEngine, TieringConfig

# "2" doubles as the argument of ``SELECT 2``; "user:1" is also stored
# as a value, so a record can name a key it does not write.
KEYS = (b"user:0", b"user:1", b"user:2", b"2", b"field")


def oracle(log, keys):
    """The full rescan: ``(bool, None)`` or ``(None, error message)``."""
    try:
        return any(contains_key(log.read_all(), k) for k in keys), None
    except PersistenceError as exc:
        return None, str(exc)


def indexed(log, keys):
    try:
        return aof_mentions(log, keys), None
    except PersistenceError as exc:
        return None, str(exc)


def make_store(**config):
    clock = SimClock()
    defaults = dict(appendonly=True, appendfsync="everysec",
                    aof_log_reads=True)
    defaults.update(config)
    return KeyValueStore(StoreConfig(**defaults), clock=clock)


key_index = st.integers(min_value=0, max_value=len(KEYS) - 1)
value = st.one_of(st.sampled_from(KEYS), st.binary(max_size=12))
operation = st.one_of(
    st.tuples(st.just("set"), key_index, value),
    st.tuples(st.just("get"), key_index),
    st.tuples(st.just("hset"), key_index, value),
    st.tuples(st.just("del"), key_index),
    st.tuples(st.just("select"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("fsync")),
    st.tuples(st.just("rewrite")),
    st.tuples(st.just("crash"), st.booleans()),
    st.tuples(st.just("corrupt"), st.integers(min_value=1, max_value=40)),
    st.tuples(st.just("split"), key_index, value,
              st.integers(min_value=1, max_value=30)),
    st.tuples(st.just("garbage"), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("query"),
              st.lists(st.sampled_from(KEYS + (b"absent",)), max_size=4)),
)


def apply(store, session, op):
    kind = op[0]
    log = store.aof_log
    if kind == "set":
        store.execute("SET", KEYS[op[1]], op[2], session=session)
    elif kind == "get":
        store.execute("GET", KEYS[op[1]], session=session)
    elif kind == "hset":
        # A key holding a string answers WRONGTYPE and logs nothing.
        store.execute("HSET", KEYS[op[1]] + b":h", b"field", op[2],
                      session=session)
    elif kind == "del":
        store.execute("DEL", KEYS[op[1]], session=session)
    elif kind == "select":
        store.execute("SELECT", op[1], session=session)
    elif kind == "fsync":
        log.flush_and_fsync()
    elif kind == "rewrite":
        store.rewrite_aof()
    elif kind == "crash":
        log.crash(power_loss=op[1])
    elif kind == "corrupt":
        if op[1] <= log.total_length:
            log.corrupt_tail(op[1])
    elif kind == "split":
        # One record appended in two writes, with a query in between:
        # the index must carry the half-record across calls.
        record = encode_command(b"SET", KEYS[op[1]], op[2])
        cut = min(op[3], len(record) - 1)
        log.append(record[:cut])
        assert indexed(log, KEYS) == oracle(log, KEYS)
        log.append(record[cut:])
    elif kind == "garbage":
        log.append(op[1])


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(operation, max_size=30))
def test_matches_full_rescan_at_every_point(ops):
    store = make_store()
    session = store.session()
    log = store.aof_log
    for op in ops:
        apply(store, session, op)
        keys = op[1] if op[0] == "query" else KEYS
        assert indexed(log, keys) == oracle(log, keys), op
    for key in KEYS:
        assert indexed(log, [key]) == oracle(log, [key])


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(operation, max_size=20))
def test_matches_full_rescan_with_sparse_queries(ops):
    # Queries only where the sequence asks for them, so many commands,
    # rewrites and crashes pass between two catch-ups.
    store = make_store()
    session = store.session()
    log = store.aof_log
    for op in ops:
        if op[0] == "query":
            assert indexed(log, op[1]) == oracle(log, op[1])
        elif op[0] != "split":
            apply(store, session, op)
    assert indexed(log, KEYS) == oracle(log, KEYS)


def test_empty_key_list_neither_decodes_nor_raises():
    log = AppendLog()
    log.append(b"!garbage\r\n")
    assert aof_mentions(log, []) is False
    assert any(contains_key(log.read_all(), k) for k in []) is False


def test_structural_error_is_raised_again_until_a_rewrite():
    store = make_store()
    store.execute("SET", "k", "v")
    log = store.aof_log
    log.append(b"*1\r\n:5\r\n")          # an integer is not a command arg
    first = indexed(log, [b"k"])
    assert first == oracle(log, [b"k"])
    assert first[1] is not None
    store.execute("SET", "k2", "v2")
    assert indexed(log, [b"k2"]) == oracle(log, [b"k2"]) == (None, first[1])
    store.rewrite_aof()
    assert indexed(log, [b"k2"]) == (True, None)


def test_only_appended_bytes_are_decoded(monkeypatch):
    store = make_store()
    for n in range(20):
        store.execute("SET", f"user:{n}", f"value-{n}")
    log = store.aof_log
    assert aof_mentions(log, [b"user:3"])
    # No full rescan: neither a whole-log copy nor contains_key.
    monkeypatch.setattr(log, "read_all", None)
    monkeypatch.setattr(aof, "contains_key", None)
    fed = []
    real_read_from = log.read_from
    monkeypatch.setattr(log, "read_from",
                        lambda offset, size=-1: fed.append(offset)
                        or real_read_from(offset, size))
    assert not aof_mentions(log, [b"user:99"])
    assert fed == []                    # nothing new, nothing read
    before = log.total_length
    store.execute("SET", "user:99", "x")
    assert aof_mentions(log, [b"user:99"])
    assert fed[0] == before             # the catch-up read starts there


def _plant(log, key, number):
    aof._MENTION_INDEXES[log].first[hash(key)] = number


def test_collision_falls_back_to_the_full_rescan(monkeypatch):
    store = make_store()
    store.execute("SET", "alice", "a")
    store.execute("SET", "bob", "b")
    store.execute("SET", "carol", "c")
    log = store.aof_log
    assert aof_mentions(log, [b"alice"])
    rescans = []
    real = aof.contains_key
    monkeypatch.setattr(aof, "contains_key",
                        lambda data, key: rescans.append(key)
                        or real(data, key))
    # A wrong record for a present key: the confirm decode misses, the
    # rescan finds it.
    _plant(log, b"carol", 0)
    assert aof_mentions(log, [b"carol"]) is True
    # An absent key whose hash "collides" with a record: still absent.
    _plant(log, b"mallory", 1)
    assert aof_mentions(log, [b"mallory"]) is False
    assert rescans == [b"carol", b"mallory"]
    # An honest hit needs no rescan.
    assert aof_mentions(log, [b"alice"]) is True
    assert rescans == [b"carol", b"mallory"]


def test_epoch_counts_rewrites_crashes_and_torn_writes():
    log = AppendLog()
    log.append(b"abc")
    assert log.epoch == 0
    log.flush()
    log.fsync()
    assert log.epoch == 0
    log.replace(b"xyz")
    log.crash(power_loss=False)
    log.corrupt_tail(1)
    assert log.epoch == 3
    assert log.read_from(1) == log.read_all()[1:]
    assert log.read_from(0, 2) == b"xy"


def _relational(clock):
    return RelationalStore(SqlConfig(wal_enabled=True, wal_log_reads=True),
                           clock=clock, wal_log=AppendLog(clock=clock))


def _tiered_relational(clock):
    return TieredEngine(_relational(clock),
                        tiering=TieringConfig(demote_idle_after=4,
                                              demote_interval=1,
                                              segment_max_records=4))


def test_relational_wal_through_right_to_erasure():
    for factory in (_relational, _tiered_relational):
        clock = SimClock()
        store = GDPRStore(kv=factory(clock), config=GDPRConfig(),
                          keystore=KeyStore())
        meta = {owner: GDPRMetadata(owner=owner,
                                    purposes=frozenset({"service"}))
                for owner in ("alice", "bob", "carol")}
        for number in range(9):
            owner = ("alice", "bob", "carol")[number % 3]
            store.put(f"user:{number}", b"user:%d" % ((number + 1) % 9),
                      meta[owner])
        wal = store.kv.aof_log
        keys = [k.encode() for k in store.keys_of_subject("alice")]
        # Without compaction the DELs themselves name the keys.
        receipt = right_to_erasure(store, "alice", compact_log=False)
        assert receipt.residual_in_aof is True
        assert oracle(wal, keys) == (True, None)
        # With compaction (a rewrite: the epoch moves) nothing lingers.
        keys = [k.encode() for k in store.keys_of_subject("bob")]
        receipt = right_to_erasure(store, "bob", compact_log=True)
        assert receipt.residual_in_aof is False
        assert oracle(wal, keys) == (False, None)
        keys = [k.encode() for k in store.keys_of_subject("carol")]
        receipt = right_to_erasure(store, "carol", compact_log=False)
        assert receipt.residual_in_aof is True
        assert oracle(wal, keys) == (True, None)
