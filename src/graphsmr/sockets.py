"""Real-socket transport: the same role state machines, length-prefixed
frames over loopback TCP, driven by one selector loop in the caller's thread
with one timer heap, as in the simulator. It starts no thread.

Each node listens on its own port; an accepted connection delivers to its
listener's node, and the frame header names the source. Each (src, dst) pair
sends over one connection, opened on its first send. No call blocks: a read
drains the socket, and a connection waits to be writable only while the
kernel has not taken all its bytes.

Provides no determinism, no service-time model, no fault injection and no
wire trace, and rejects a config that asks for any of them; it exists to
show the roles run unchanged off the simulator and for smoke-level
benchmarking. Safety acceptance runs stay on the simulator.
"""

from __future__ import annotations

import heapq
import selectors
import socket
import time
from functools import partial
from typing import Optional

from .harness.cluster import ConfigError, build_cluster
from .harness.history import Record
from .harness.sim import SimResult
from .messages import Note, Send, SetTimer
from .replica import ReplicaPanic
from .wire import decode_frame, encode_frame, split_frames


class _Conn:
    """A TCP connection: an accepted one reads frames for node, an outbound
    one holds the frames the kernel has not taken yet."""

    def __init__(self, sock: socket.socket, node: str = "") -> None:
        sock.setblocking(False)
        self.sock = sock
        self.node = node
        self.unparsed = b""
        self.unsent = bytearray()


class SocketCluster:
    """Stands up every role (and client) as a TCP endpoint of one loop."""

    def __init__(self, sim_config, workload) -> None:
        self.config = sim_config
        self.roles, _machines, self.clients, self.layout = build_cluster(
            sim_config, workload
        )
        unsupported = [name for name in ("service_cost_ms", "drop_prob", "dup_prob",
                                         "capture_wire_trace")
                       if getattr(sim_config, name)]
        if unsupported:
            raise ConfigError(f"the socket transport cannot honour {', '.join(unsupported)}: "
                              "it has no service-time model, fault injection or wire trace")
        self._t0 = time.monotonic()

    def now_ms(self) -> float:
        return (time.monotonic() - self._t0) * 1000.0

    def run(self) -> SimResult:
        """Simulation.run's contract on the wall clock from building the
        cluster: max_sim_ms caps the run, a replica panic ends it with its
        evidence in the history, and end_ms is when the last client was done."""
        roles = self.roles
        deadline = self.config.max_sim_ms
        history: list[Record] = []
        sent: dict[str, int] = {}
        received: dict[str, int] = {}
        panic: Optional[str] = None
        end_ms: Optional[float] = None
        # (deadline_ms, insertion seq, node, key)
        timers = [(0.0, n, c.name, ("start",)) for n, c in enumerate(self.clients)]
        seq = len(timers)
        waiting = {c.name for c in self.clients if not c.done}
        ports: dict[str, int] = {}
        outbound: dict[tuple[str, str], _Conn] = {}
        written: list[tuple[str, str]] = []  # links given bytes since the last flush
        socks: list[socket.socket] = []  # every socket opened, closed at the end
        sel = selectors.DefaultSelector()

        def apply(node: str, effects, now: float) -> None:
            nonlocal seq, end_ms
            for eff in effects:
                if isinstance(eff, Send):
                    sent[node] = sent.get(node, 0) + 1
                    link = (node, eff.dst)
                    conn = outbound.get(link)
                    if conn is None:
                        conn = outbound[link] = _Conn(socket.socket())
                        socks.append(conn.sock)
                        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                        conn.sock.connect_ex(("127.0.0.1", ports[eff.dst]))
                    if not conn.unsent:
                        written.append(link)
                    conn.unsent += encode_frame(node, eff.msg)
                elif isinstance(eff, SetTimer):
                    heapq.heappush(timers, (now + eff.delay_ms, seq, node, eff.key))
                    seq += 1
                elif isinstance(eff, Note):
                    history.append((now, len(history), eff.event))
            if node in waiting and roles[node].done:
                waiting.discard(node)
                if not waiting:
                    end_ms = now

        def flush(link: tuple[str, str]) -> None:
            conn = outbound[link]
            writing = conn.sock in sel.get_map()
            try:
                del conn.unsent[: conn.sock.send(conn.unsent)]
            except BlockingIOError:
                pass  # still connecting, or the kernel's buffer is full
            except OSError:
                # the peer is gone: its frames are lost, as on a lossy
                # network, and the next send opens a new connection
                if writing:
                    sel.unregister(conn.sock)
                conn.sock.close()
                del outbound[link]
                return
            if conn.unsent and not writing:
                sel.register(conn.sock, selectors.EVENT_WRITE, partial(flush, link))
            elif writing and not conn.unsent:
                sel.unregister(conn.sock)

        def accept(listener: socket.socket, node: str) -> None:
            while True:
                try:
                    sock, _addr = listener.accept()
                except BlockingIOError:
                    return
                socks.append(sock)
                conn = _Conn(sock, node)
                sel.register(sock, selectors.EVENT_READ, partial(read, conn))

        def read(conn: _Conn) -> None:
            nonlocal panic
            role = roles[conn.node]
            while True:
                try:
                    chunk = conn.sock.recv(65536)
                except BlockingIOError:
                    return
                if not chunk:
                    sel.unregister(conn.sock)
                    conn.sock.close()
                    return
                frames, conn.unparsed = split_frames(conn.unparsed + chunk)
                now = self.now_ms()
                for frame in frames:
                    src, msg = decode_frame(frame)
                    received[conn.node] = received.get(conn.node, 0) + 1
                    try:
                        effects = role.on_message(src, msg, now)
                    except ReplicaPanic as exc:
                        effects, panic = exc.effects, str(exc)
                    apply(conn.node, effects, now)
                    if panic is not None:
                        return

        try:
            for node in roles:
                listener = socket.create_server(("127.0.0.1", 0))
                socks.append(listener)
                listener.setblocking(False)
                ports[node] = listener.getsockname()[1]
                sel.register(listener, selectors.EVENT_READ, partial(accept, listener, node))
            while panic is None:
                now = self.now_ms()
                while timers and timers[0][0] <= now:
                    _deadline, _n, node, key = heapq.heappop(timers)
                    apply(node, roles[node].on_timer(key, now), now)
                for link in written:
                    flush(link)
                written.clear()
                if not waiting or now >= deadline:
                    break
                wake = min(deadline, timers[0][0]) if timers else deadline
                for key, _events in sel.select((wake - now) / 1000.0):
                    key.data()
                    if panic is not None:
                        break
        finally:
            for sock in socks:
                sock.close()
            sel.close()
        return SimResult(
            history=history, sent=sent, received=received, config=self.config,
            roles=roles, clients=self.clients, layout=self.layout,
            completed=all(c.done for c in self.clients),
            end_ms=now if end_ms is None else end_ms, panic=panic,
        )
