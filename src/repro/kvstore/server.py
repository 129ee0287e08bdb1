"""RESP servers and clients over simulated transports.

This is the deployment surface the paper's encryption experiment measures:
YCSB (the client) talks RESP to Redis (the server) over the network, either
directly or through stunnel TLS proxies.  Two execution models coexist:

* **Closed-loop / call-stack** -- :class:`StoreServer` +
  :class:`StoreClient`: each :meth:`StoreClient.call` performs a full
  simulated round trip (request transmit -> server execute -> reply
  transmit) inline, so the simulated clock sees exactly the latency a
  closed-loop client would.
* **Event-driven** -- :class:`EventLoopServer`: the Redis architecture
  proper.  One event loop multiplexes N connections on a scheduler clock
  (:class:`~repro.common.clock.SimClock` events): bytes arrive as
  delivery events, each loop iteration executes **one** command from one
  connection (round-robin, so no connection can starve the others),
  replies depart as scheduled transmissions at service completion, and
  background work (expiry cron, fsync) runs from daemon timer events.
  This is the intra-shard concurrency seam: many simulated clients share
  one shard and their queueing is explicit.

MONITOR is implemented as in Redis: a client that issues MONITOR is
switched to a feed of every subsequent command, streamed over its own
transport (hence over TLS when the deployment is proxied -- the cost the
paper notes when rejecting MONITOR for audit logging).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from ..common.clock import SimClock
from ..common.errors import StoreError
from ..common.resp import RespDecoder, RespError, encode, encode_command
from ..net.channel import Channel, Endpoint
from ..net.tls import TlsSession
from .commands import Session
from .store import KeyValueStore


class RawTransport:
    """Plaintext transport over a channel endpoint."""

    def __init__(self, endpoint: Endpoint) -> None:
        self._endpoint = endpoint

    def send(self, data: bytes) -> None:
        self._endpoint.send(data)

    def recv_available(self) -> bytes:
        return self._endpoint.recv()


class TlsTransport:
    """Encrypted transport over a TLS session."""

    def __init__(self, session: TlsSession) -> None:
        self._session = session

    def send(self, data: bytes) -> None:
        self._session.send(data)

    def recv_available(self) -> bytes:
        return self._session.recv_all()


class BufferedTransport:
    """Coalesces sends into one underlying transmit per :meth:`flush`.

    The server writes one reply per request; wrapping its transport in
    this buffer turns a batch's replies into a single message, the same
    coalescing TCP gives a real pipelined connection.  The event-loop
    server also uses it to hold a reply until the command's service time
    has elapsed.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        # Sends since the last flush; while empty, flush is a no-op.
        self.unsent: List[bytes] = []

    def send(self, data: bytes) -> None:
        self.unsent.append(data)

    def flush(self) -> None:
        if self.unsent:
            self._inner.send(b"".join(self.unsent))
            self.unsent.clear()

    def recv_available(self) -> bytes:
        return self._inner.recv_available()


def resp_error_from_store_error(exc: StoreError) -> RespError:
    """Map a store exception to its wire form, prefixing ``ERR`` unless
    the message already leads with an error code (WRONGTYPE, BUSYKEY,
    ...).  One mapping for every serving path -- the RESP servers and
    the cluster client's direct replica reads must format identically."""
    message = str(exc)
    if not message.split(" ", 1)[0].isupper():
        message = "ERR " + message
    return RespError(message)


class ServerConnection:
    """Server-side state for one client connection."""

    def __init__(self, transport, session: Session) -> None:
        self.transport = transport
        self.session = session
        self.decoder = RespDecoder()
        self.pending: Deque[Any] = deque()   # parsed-but-unserved requests
        self._monitor_sink = None


class StoreServer:
    """Serves a :class:`KeyValueStore` to any number of connections."""

    def __init__(self, store: KeyValueStore) -> None:
        self.store = store
        self.connections: List[ServerConnection] = []

    def accept(self, transport) -> ServerConnection:
        conn = ServerConnection(transport, self.store.session())
        self.connections.append(conn)
        return conn

    def pump(self) -> int:
        """Process every complete pending request; returns requests served.

        Iterates over a snapshot of the connection list: a handler or
        MONITOR feed that accepts or drops a connection mid-pump must not
        mutate the sequence being iterated (a connection accepted during a
        pump is served from the next pump on).
        """
        served = 0
        for conn in list(self.connections):
            conn.decoder.feed(conn.transport.recv_available())
            while True:
                found, value = conn.decoder.next_value()
                if not found:
                    break
                served += 1
                self._serve(conn, value)
        return served

    def _serve(self, conn: ServerConnection, request: Any) -> None:
        if (not isinstance(request, list) or not request
                or not all(isinstance(a, bytes) for a in request)):
            conn.transport.send(encode(RespError(
                "ERR protocol error: expected a command array")))
            return
        name = request[0].upper()
        if name == b"MONITOR":
            self._start_monitor(conn)
            return
        conn.transport.send(encode(self._execute(conn, request)))

    def _execute(self, conn: ServerConnection, request: List[bytes]) -> Any:
        """Run one command against the store, mapping store exceptions to
        RESP errors.  Subclasses (the cluster's slot-aware server) wrap
        this to inject redirects and reply filters."""
        try:
            return self.store.execute(*request, session=conn.session)
        except RespError as exc:
            return exc
        except StoreError as exc:
            return resp_error_from_store_error(exc)

    def _start_monitor(self, conn: ServerConnection) -> None:
        conn.session.monitoring = True
        sink = conn.transport.send
        conn._monitor_sink = sink
        self.store.monitor.attach(sink)
        conn.transport.send(b"+OK\r\n")

    def stop_monitor(self, conn: ServerConnection) -> None:
        if conn._monitor_sink is not None:
            self.store.monitor.detach(conn._monitor_sink)
            conn._monitor_sink = None
            conn.session.monitoring = False


class EventLoopMixin:
    """Event-driven execution for a :class:`StoreServer` (or subclass).

    The mixin owns the loop; the concrete server keeps owning command
    semantics (``_serve`` and friends), so the cluster's slot-aware server
    gains the same event loop by composition.

    Two clocks are involved and may be the same object:

    * the **scheduler** -- the cluster-wide event timeline bytes travel
      on (delivery events, loop ticks, cron);
    * the **store clock** -- the shard's service-time meter.  Executing a
      command advances it by the command's CPU/AOF/device cost; the loop
      uses the advance to know when the shard is free again.

    With separate clocks, N shards on one scheduler overlap in simulated
    time (each schedules its own completions; the heap interleaves them),
    which is where cluster parallelism now comes from.  With one shared
    clock the inline advance fires intervening events itself, so a
    single-shard deployment needs no second clock.

    Loop discipline, as in Redis: each iteration takes **one** parsed
    request from one connection, chosen round-robin over connections with
    pending input, executes it to completion, and only then schedules the
    next iteration -- a connection that pipelines 100 commands cannot
    starve its neighbours.
    """

    def _init_event_loop(self, scheduler: SimClock) -> None:
        if not hasattr(scheduler, "schedule_at"):
            raise ValueError(
                "the event loop needs a scheduling clock (SimClock)")
        self.scheduler = scheduler
        self._tick_handle = None
        self._busy_until = scheduler.now()
        self._in_tick = False
        self._cron_handle = None
        self._rr_cursor = 0
        self.loop_iterations = 0
        self._pool = None           # multi-core dispatch, when attached

    # -- multi-core dispatch (repro.cluster.workers) -------------------------

    def attach_workers(self, pool) -> None:
        """Hand the dispatch path to a worker pool: commands still queue
        per connection here, but the pool picks which simulated core runs
        each one (and when replies flush).  The server keeps owning
        command semantics (``_serve`` and friends).  With no pool
        attached the classic one-command-per-tick loop below runs
        unchanged."""
        self._pool = pool
        pool.bind(self)

    # -- connection intake -------------------------------------------------

    def accept_endpoint(self, endpoint: Endpoint) -> ServerConnection:
        """Accept an event-driven connection: the endpoint's deliveries
        feed this connection's read queue and wake the loop."""
        conn = self.accept(BufferedTransport(RawTransport(endpoint)))
        endpoint.set_receiver(lambda: self.on_readable(conn))
        return conn

    def on_readable(self, conn: ServerConnection) -> None:
        """Bytes arrived on ``conn``: parse complete requests into its
        pending queue and make sure a loop tick is scheduled."""
        conn.decoder.feed(conn.transport.recv_available())
        arrived = conn.decoder.drain()
        conn.pending.extend(arrived)
        if self._pool is not None and arrived:
            self._pool.note_arrivals(conn, len(arrived))
        if conn.pending:
            self._wake()

    # -- the loop ----------------------------------------------------------

    def _wake(self) -> None:
        if self._pool is not None:
            self._pool.wake()
            return
        if self._tick_handle is not None and self._tick_handle.active:
            return
        when = max(self.scheduler.now(), self._busy_until)
        self._tick_handle = self.scheduler.schedule_at(
            when, self._tick, label="server-tick")

    def _tick(self) -> None:
        self._tick_handle = None
        now = self.scheduler.now()
        if self._in_tick or now < self._busy_until:
            # Woken while the previous command is still executing (with a
            # shared clock, its inline advance delivers new requests *and*
            # fires their wake-ups mid-service).  One command at a time:
            # drop this tick -- the in-flight command's server-reply event
            # re-wakes the loop if requests are still pending.
            return
        conn = self._next_ready_connection()
        if conn is None:
            return
        meter = self.store.clock
        meter.sleep_until(now)
        self.loop_iterations += 1
        self._in_tick = True
        try:
            self._serve(conn, conn.pending.popleft())
        finally:
            self._in_tick = False
        finish = meter.now()
        self._busy_until = max(finish, now)
        # The reply (and any MONITOR feed it produced) leaves the NIC when
        # the service time has elapsed, not at the instant the tick began.
        self.scheduler.schedule_at(self._busy_until, self._finish_command,
                                   label="server-reply")

    def _next_ready_connection(self) -> Optional[ServerConnection]:
        conns = self.connections
        if not conns:
            return None
        for offset in range(len(conns)):
            index = (self._rr_cursor + offset) % len(conns)
            if conns[index].pending:
                self._rr_cursor = (index + 1) % len(conns)
                return conns[index]
        return None

    def _finish_command(self) -> None:
        for conn in self.connections:
            flush = getattr(conn.transport, "flush", None)
            if flush is not None:
                flush()
        if any(conn.pending for conn in self.connections):
            self._wake()

    # -- background work as timer events -----------------------------------

    def start_cron(self, interval: Optional[float] = None) -> None:
        """Run the store's serverCron from recurring daemon timer events
        (expiry cycles, everysec fsync, AOF auto-rewrite).  Daemon events
        never keep :meth:`SimClock.run_until_idle` alive by themselves."""
        if self._cron_handle is not None and self._cron_handle.active:
            return
        if interval is None:
            interval = 1.0 / self.store.config.hz

        def fire() -> None:
            if self._pool is not None:
                # Multi-core shard: bill the cron's cost (everysec
                # fsync) to the worker that wrote, not the whole shard.
                self._pool.cron_tick()
            else:
                self.store.clock.sleep_until(self.scheduler.now())
                self.store.tick()
            self._cron_handle = self.scheduler.schedule_after(
                interval, fire, label="server-cron", daemon=True)

        self._cron_handle = self.scheduler.schedule_after(
            interval, fire, label="server-cron", daemon=True)

    def stop_cron(self) -> None:
        if self._cron_handle is not None:
            self._cron_handle.cancel()
            self._cron_handle = None


class EventLoopServer(EventLoopMixin, StoreServer):
    """A single-shard event-loop server (Redis's architecture proper)."""

    def __init__(self, store: KeyValueStore,
                 scheduler: Optional[SimClock] = None) -> None:
        super().__init__(store)
        if scheduler is None:
            if not hasattr(store.clock, "schedule_at"):
                raise ValueError(
                    "store clock cannot schedule events; pass a scheduler")
            scheduler = store.clock
        self._init_event_loop(scheduler)


class EventConnection:
    """Client side of one event-driven connection.

    Replies surface through :attr:`on_reply` (push, for the open-loop
    generator) or queue in :attr:`replies` (pull).  :meth:`call` is the
    closed-loop convenience: send, then drive the scheduler until the
    reply arrives.
    """

    def __init__(self, server: EventLoopMixin,
                 channel: Optional[Channel] = None,
                 bandwidth_bps: Optional[float] = None,
                 latency: Optional[float] = None) -> None:
        self._scheduler = server.scheduler
        if channel is None:
            from ..net.channel import LAN_LATENCY, RAW_BANDWIDTH_BPS
            channel = Channel(
                clock=self._scheduler,
                bandwidth_bps=(bandwidth_bps if bandwidth_bps is not None
                               else RAW_BANDWIDTH_BPS),
                latency=latency if latency is not None else LAN_LATENCY,
                event_driven=True)
        if not channel.event_driven:
            raise ValueError("EventConnection needs an event-driven channel")
        if channel.clock is not self._scheduler:
            raise ValueError(
                "the connection's channel must deliver on the server's "
                "scheduler (deliveries on a foreign clock never reach "
                "the event loop)")
        self.channel = channel
        client_end, server_end = channel.endpoints()
        self.server_connection = server.accept_endpoint(server_end)
        self._endpoint = client_end
        self._decoder = RespDecoder()
        self.replies: Deque[Any] = deque()
        self.on_reply: Optional[Callable[[Any], None]] = None
        # When set, incoming bytes bypass the RESP decoder (a MONITOR
        # feed is a raw text stream, not a reply stream).
        self.on_raw: Optional[Callable[[bytes], None]] = None
        client_end.set_receiver(self._on_data)

    def send_command(self, *args: Any) -> None:
        self._endpoint.send(encode_command(*_coerce(args)))

    def send_raw(self, data: bytes) -> None:
        self._endpoint.send(data)

    def _on_data(self) -> None:
        if self.on_raw is not None:
            self.on_raw(self._endpoint.recv())
            return
        self._decoder.feed(self._endpoint.recv())
        for value in self._decoder.drain():
            if self.on_reply is not None:
                self.on_reply(value)
            else:
                self.replies.append(value)

    def call(self, *args: Any, raise_errors: bool = True) -> Any:
        """Closed-loop over the event core: one command, driven until its
        reply has been delivered.  Daemon events (cron) never count as
        "a reply is still coming", so a dropped reply raises instead of
        spinning on background work forever."""
        self.send_command(*args)
        while not self.replies:
            if self._scheduler.pending_live_events() == 0:
                raise RespError("ERR no reply received")
            self._scheduler.run_next()
        value = self.replies.popleft()
        if raise_errors and isinstance(value, RespError):
            raise value
        return value


def connect_event(store: KeyValueStore,
                  scheduler: Optional[SimClock] = None,
                  connections: int = 1) -> tuple:
    """Wire an :class:`EventLoopServer` with N client connections.

    Returns ``(server, [EventConnection, ...])``.
    """
    server = EventLoopServer(store, scheduler=scheduler)
    return server, [EventConnection(server) for _ in range(connections)]


class StoreClient:
    """Closed-loop RESP client: each call is one simulated round trip."""

    def __init__(self, transport, server: StoreServer) -> None:
        self._transport = transport
        self._server = server
        self._decoder = RespDecoder()

    def call(self, *args: Any, raise_errors: bool = True) -> Any:
        self._transport.send(encode_command(*_coerce(args)))
        self._server.pump()
        self._decoder.feed(self._transport.recv_available())
        found, value = self._decoder.next_value()
        if not found:
            raise RespError("ERR no reply received")
        if raise_errors and isinstance(value, RespError):
            raise value
        return value


def _coerce(args) -> List[bytes]:
    out = []
    for arg in args:
        if isinstance(arg, bytes):
            out.append(arg)
        elif isinstance(arg, str):
            out.append(arg.encode("utf-8"))
        elif isinstance(arg, (int, float)):
            out.append(str(arg).encode("ascii"))
        else:
            raise TypeError(f"bad argument type {type(arg).__name__}")
    return out


def connect_plain(store: KeyValueStore, channel) -> StoreClient:
    """Wire a client to ``store`` over a raw channel."""
    client_end, server_end = channel.endpoints()
    server = StoreServer(store)
    server.accept(RawTransport(server_end))
    return StoreClient(RawTransport(client_end), server)


def connect_tls(store: KeyValueStore, channel, psk: bytes,
                clock=None) -> StoreClient:
    """Wire a client to ``store`` through TLS sessions on ``channel``."""
    from ..net.tls import establish_session_pair
    client_session, server_session = establish_session_pair(
        channel, psk, clock=clock if clock is not None else channel.clock)
    server = StoreServer(store)
    server.accept(TlsTransport(server_session))
    return StoreClient(TlsTransport(client_session), server)
