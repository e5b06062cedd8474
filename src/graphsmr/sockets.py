"""Real-socket transport: the same role state machines, length-prefixed
frames over loopback TCP, driven by the simulator's own run loop
(Simulation._run) on the wall clock, in the caller's thread. It starts no
thread.

This module is only the network the loop drives. Each node listens on its
own port; an accepted connection delivers to its listener's node, and the
frame header names the source. Each (src, dst) pair sends over one
connection, opened on its first send, and the Sends of one message object
share one frame. No call blocks: the loop flushes what the handlers queued
and waits on the selector only when no event is due, a read drains the
socket, and a connection waits to be writable only while the kernel has not
taken all its bytes.

Provides no determinism, no modelled link delay, no service-time model, no
fault injection and no wire trace: it takes no fault list, and it rejects a
config that sets any field of SIMULATOR_ONLY away from its SimConfig
default. It exists to show the roles run unchanged off the simulator and for
smoke-level benchmarking. Safety acceptance runs stay on the simulator.
"""

from __future__ import annotations

import selectors
import socket
import time

from .harness.cluster import ConfigError
from .harness.sim import SimConfig, SimResult, Simulation
from .wire import decode_frame, encode_frame, split_frames


# what only the simulator models; the default of each means the transport's
# own links and clock, and every role its own endpoint (coupled fuses roles
# onto one machine, whose messages skip the network only in the simulator)
SIMULATOR_ONLY = ("min_delay_ms", "max_delay_ms", "service_cost_ms", "capture_wire_trace",
                  "coupled")
_DEFAULTS = SimConfig()


class _Conn:
    """A TCP connection: an accepted one reads frames for node, an outbound
    one holds the frames the kernel has not taken yet."""

    def __init__(self, sock: socket.socket, node: str = "") -> None:
        sock.setblocking(False)
        self.sock = sock
        self.node = node
        self.unparsed = b""
        self.unsent = bytearray()


class _Loopback:
    """The network of one socket run. The selector holds plain data only: a
    listener's node name, an accepted _Conn, or an outbound (src, dst) link,
    never a bound method or closure, so the network builds no reference
    cycle and close() leaves nothing for the cyclic collector."""

    def __init__(self) -> None:
        self.sel = selectors.DefaultSelector()
        self.socks: list[socket.socket] = []  # every socket opened, closed by close()
        self.ports: dict[str, int] = {}
        self.outbound: dict[tuple[str, str], _Conn] = {}
        self.written: list[tuple[str, str]] = []  # links given bytes since the last flush
        # the last frame encoded, so that the other Sends of its message reuse it
        self.last: tuple = (None, None, b"")
        self.t0 = time.monotonic()

    def listen(self, nodes) -> None:
        for node in nodes:
            listener = socket.create_server(("127.0.0.1", 0))
            self.socks.append(listener)
            listener.setblocking(False)
            self.ports[node] = listener.getsockname()[1]
            self.sel.register(listener, selectors.EVENT_READ, node)

    def close(self) -> None:
        for sock in self.socks:
            sock.close()
        self.sel.close()

    def now_ms(self) -> float:
        return (time.monotonic() - self.t0) * 1000.0

    def send(self, src: str, dst: str, msg) -> None:
        """Queues msg on the src -> dst connection until the next flush. A
        frame names only its source, so every Send of one message object from
        src carries the same frame."""
        link = (src, dst)
        conn = self.outbound.get(link)
        if conn is None:
            conn = self.outbound[link] = _Conn(socket.socket())
            self.socks.append(conn.sock)
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.sock.connect_ex(("127.0.0.1", self.ports[dst]))
        if not conn.unsent:
            self.written.append(link)
        last_src, last_msg, frame = self.last
        if msg is not last_msg or src != last_src:
            frame = encode_frame(src, msg)
            self.last = (src, msg, frame)
        conn.unsent += frame

    def flush(self) -> None:
        for link in self.written:
            self._flush(link)
        self.written.clear()

    def _flush(self, link: tuple[str, str]) -> None:
        conn = self.outbound[link]
        writing = conn.sock in self.sel.get_map()
        try:
            del conn.unsent[: conn.sock.send(conn.unsent)]
        except BlockingIOError:
            pass  # still connecting, or the kernel's buffer is full
        except OSError:
            # the peer is gone: its frames are lost, as on a lossy
            # network, and the next send opens a new connection
            if writing:
                self.sel.unregister(conn.sock)
            conn.sock.close()
            del self.outbound[link]
            return
        if conn.unsent and not writing:
            self.sel.register(conn.sock, selectors.EVENT_WRITE, link)
        elif writing and not conn.unsent:
            self.sel.unregister(conn.sock)

    def poll(self, timeout_ms: float) -> list[tuple[str, str, object]]:
        """Waits up to timeout_ms for the selector, then accepts, writes and
        reads what is ready; returns the (src, dst, msg) of every frame read."""
        deliveries: list[tuple[str, str, object]] = []
        for key, _events in self.sel.select(timeout_ms / 1000.0):
            if key.events == selectors.EVENT_WRITE:
                self._flush(key.data)
            elif isinstance(key.data, str):
                self._accept(key.fileobj, key.data)
            else:
                self._read(key.data, deliveries)
        return deliveries

    def _accept(self, listener: socket.socket, node: str) -> None:
        while True:
            try:
                sock, _addr = listener.accept()
            except BlockingIOError:
                return
            self.socks.append(sock)
            self.sel.register(sock, selectors.EVENT_READ, _Conn(sock, node))

    def _read(self, conn: _Conn, deliveries: list) -> None:
        while True:
            try:
                chunk = conn.sock.recv(65536)
            except BlockingIOError:
                return
            if not chunk:
                self.sel.unregister(conn.sock)
                conn.sock.close()
                return
            frames, conn.unparsed = split_frames(conn.unparsed + chunk)
            for frame in frames:
                src, msg = decode_frame(frame)
                deliveries.append((src, conn.node, msg))


class SocketCluster(Simulation):
    """Stands up every role (and client) as a TCP endpoint of one loop."""

    def __init__(self, sim_config, workload) -> None:
        unsupported = [name for name in SIMULATOR_ONLY
                       if getattr(sim_config, name) != getattr(_DEFAULTS, name)]
        if unsupported:
            raise ConfigError(f"the socket transport cannot honour {', '.join(unsupported)}: "
                              "only the simulator models them, so each must keep its default")
        super().__init__(sim_config, workload)

    def run(self) -> SimResult:
        """Simulation.run's contract, kept by the same loop, on the wall
        clock from opening the network: max_sim_ms caps the run, a replica
        panic ends it with its evidence in the history, and end_ms is when
        the last client was done. Every socket is closed when it returns or
        raises."""
        net = _Loopback()
        try:
            net.listen(self.roles)
            return self._run(0.0, net)
        finally:
            net.close()
