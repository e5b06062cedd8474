"""Real-socket transport: the same role state machines, one thread per node,
length-prefixed frames over loopback TCP.

Provides no determinism and no fault injection; it exists to show the roles
run unchanged off the simulator and for smoke-level benchmarking. Safety
acceptance runs stay on the simulator.
"""

from __future__ import annotations

import heapq
import queue
import socket
import threading
import time
from dataclasses import dataclass

from .harness.cluster import build_cluster
from .harness.history import Record
from .messages import Note, Send, SetTimer
from .wire import decode_frame, encode_frame, split_frames

POLL_MS = 10.0  # how often SocketCluster.run looks whether every client is done


class _HistorySink:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.records: list[Record] = []

    def append(self, t: float, event) -> None:
        with self.lock:
            self.records.append((t, len(self.records), event))


class _NodeThread(threading.Thread):
    def __init__(self, cluster: "SocketCluster", name: str, role) -> None:
        super().__init__(name=f"node-{name}", daemon=True)
        self.cluster = cluster
        self.node = name
        self.role = role
        self.inbox: queue.Queue = queue.Queue()
        self.timers: list[tuple[float, int, tuple]] = []
        self._timer_seq = 0
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(16)
        self.port = self.listener.getsockname()[1]
        self.outbound: dict[str, socket.socket] = {}
        self.inbound: list[socket.socket] = []  # accepted connections, shut by close()
        self._inbound_lock = threading.Lock()

    # -- wiring -------------------------------------------------------------

    def start_listener(self) -> None:
        def accept_loop():
            while True:
                try:
                    conn, _addr = self.listener.accept()
                except OSError:
                    return
                with self._inbound_lock:
                    # close() runs after stopping is set: a connection
                    # accepted once it has taken the list is closed here
                    if self.cluster.stopping.is_set():
                        conn.close()
                        return
                    self.inbound.append(conn)
                threading.Thread(
                    target=self._read_loop, args=(conn,), daemon=True
                ).start()

        threading.Thread(target=accept_loop, daemon=True).start()

    def _read_loop(self, conn: socket.socket) -> None:
        with conn:
            buf = b""
            conn.settimeout(0.5)
            while not self.cluster.stopping.is_set():
                try:
                    chunk = conn.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    return
                if not chunk:
                    return
                frames, buf = split_frames(buf + chunk)
                for frame in frames:
                    self.inbox.put(decode_frame(frame))

    def _connection_to(self, dst: str) -> socket.socket:
        sock = self.outbound.get(dst)
        if sock is None:
            sock = socket.create_connection(
                ("127.0.0.1", self.cluster.ports[dst]), timeout=2.0
            )
            self.outbound[dst] = sock
        return sock

    # -- node loop ----------------------------------------------------------

    def run(self) -> None:
        while not self.cluster.stopping.is_set():
            now = self.cluster.now_ms()
            while self.timers and self.timers[0][0] <= now:
                _deadline, _n, key = heapq.heappop(self.timers)
                self._apply(self.role.on_timer(key, now), now)
            wait = 0.05
            if self.timers:
                wait = min(wait, max(0.0, (self.timers[0][0] - now) / 1000.0))
            try:
                src, msg = self.inbox.get(timeout=wait)
            except queue.Empty:
                continue
            now = self.cluster.now_ms()
            self._apply(self.role.on_message(src, msg, now), now)

    def _apply(self, effects, now: float) -> None:
        for eff in effects:
            if isinstance(eff, Send):
                try:
                    frame = encode_frame(self.node, eff.msg)
                    self._connection_to(eff.dst).sendall(frame)
                except OSError:
                    self.outbound.pop(eff.dst, None)
            elif isinstance(eff, SetTimer):
                heapq.heappush(
                    self.timers, (now + eff.delay_ms, self._timer_seq, eff.key)
                )
                self._timer_seq += 1
            elif isinstance(eff, Note):
                self.cluster.history.append(now, eff.event)

    def kick(self) -> None:
        heapq.heappush(self.timers, (0.0, self._timer_seq, ("start",)))
        self._timer_seq += 1

    def close(self) -> None:
        with self._inbound_lock:
            inbound = list(self.inbound)
        for sock in [self.listener, *inbound, *self.outbound.values()]:
            try:
                sock.close()
            except OSError:
                pass


@dataclass
class SocketRunResult:
    history: list[Record]
    completed: bool
    end_ms: float  # wall-clock ms from building the cluster until the last reply, or until time is up
    clients: list


class SocketCluster:
    """Stands up every role (and client) as a thread with a TCP endpoint."""

    def __init__(self, sim_config, workload) -> None:
        roles, _machines, clients, layout = build_cluster(sim_config, workload)
        self.clients = clients
        self.layout = layout
        self.stopping = threading.Event()
        self.history = _HistorySink()
        self._t0 = time.monotonic()
        self.nodes = {name: _NodeThread(self, name, role) for name, role in roles.items()}
        self.ports = {name: node.port for name, node in self.nodes.items()}

    def now_ms(self) -> float:
        return (time.monotonic() - self._t0) * 1000.0

    def run(self, wall_limit_ms: float = 30_000.0) -> SocketRunResult:
        for node in self.nodes.values():
            node.start_listener()
        for node in self.nodes.values():
            node.start()
        for client in self.clients:
            self.nodes[client.name].kick()
        deadline = time.monotonic() + wall_limit_ms / 1000.0
        try:
            while time.monotonic() < deadline:
                if all(c.done for c in self.clients):
                    break
                time.sleep(POLL_MS / 1000.0)
            # the run ends at the last reply if its clients are done, else at
            # the deadline; neither the poll's wake-up nor shutdown is run time
            end_ms = self.now_ms()
            if all(c.done for c in self.clients):
                end_ms = max(
                    (done for c in self.clients for _sent, done in c.reply_times),
                    default=end_ms,
                )
        finally:
            self.stopping.set()
            for node in self.nodes.values():
                node.close()
            for node in self.nodes.values():
                node.join(timeout=2.0)
        return SocketRunResult(
            history=list(self.history.records),
            completed=all(c.done for c in self.clients),
            end_ms=end_ms,
            clients=self.clients,
        )
