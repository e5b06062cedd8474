"""Real-socket transport: the same role state machines, length-prefixed
frames over loopback TCP, driven by one selector loop in the caller's thread
with one timer heap, as in the simulator. It starts no thread.

Each node listens on its own port; an accepted connection delivers to its
listener's node, and the frame header names the source. Each (src, dst) pair
sends over one connection, opened on its first send. No call blocks: a read
drains the socket, and a connection waits to be writable only while the
kernel has not taken all its bytes.

Provides no determinism and no fault injection; it exists to show the roles
run unchanged off the simulator and for smoke-level benchmarking. Safety
acceptance runs stay on the simulator.
"""

from __future__ import annotations

import heapq
import selectors
import socket
import time
from dataclasses import dataclass
from functools import partial

from .harness.cluster import build_cluster
from .harness.history import Record
from .messages import Note, Send, SetTimer
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


@dataclass
class SocketRunResult:
    history: list[Record]
    completed: bool
    end_ms: float  # wall-clock ms from building the cluster until the last reply, or until time is up
    clients: list


class SocketCluster:
    """Stands up every role (and client) as a TCP endpoint of one loop."""

    def __init__(self, sim_config, workload) -> None:
        self.roles, _machines, self.clients, self.layout = build_cluster(
            sim_config, workload
        )
        self._t0 = time.monotonic()

    def now_ms(self) -> float:
        return (time.monotonic() - self._t0) * 1000.0

    def run(self, wall_limit_ms: float = 30_000.0) -> SocketRunResult:
        roles = self.roles
        deadline = self.now_ms() + wall_limit_ms
        history: list[Record] = []
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
            nonlocal seq
            for eff in effects:
                if isinstance(eff, Send):
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
                    apply(conn.node, role.on_message(src, msg, now), now)

        try:
            for node in roles:
                listener = socket.create_server(("127.0.0.1", 0))
                socks.append(listener)
                listener.setblocking(False)
                ports[node] = listener.getsockname()[1]
                sel.register(listener, selectors.EVENT_READ, partial(accept, listener, node))
            while True:
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
        finally:
            for sock in socks:
                sock.close()
            sel.close()
        # the run ends at the last reply if its clients are done, else when
        # the loop saw the deadline pass; closing the sockets is not run time
        end_ms = now
        completed = all(c.done for c in self.clients)
        if completed:
            end_ms = max(
                (done for c in self.clients for _sent, done in c.reply_times),
                default=end_ms,
            )
        return SocketRunResult(
            history=history, completed=completed, end_ms=end_ms, clients=self.clients
        )
