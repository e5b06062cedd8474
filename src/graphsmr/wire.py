"""Canonical binary wire format.

Frames are length-prefixed: a big-endian u32 byte count, then the payload.
Every message payload starts with one tag byte; all integers are big-endian,
byte strings are u32-length-prefixed, vertex ids use the canonical 8-byte
encoding from core. The same schema serves the socket transport and
simulator trace dumps.

An exact dependency set is its vertices in increasing (seq, leader) order;
the decoder rejects any other order, so one set has exactly one encoding.
"""

from __future__ import annotations

import operator
import struct
import weakref
from typing import Optional, Union

from .core import (
    Batch,
    Command,
    CompactDeps,
    Deps,
    ExactDeps,
    Get,
    NOOP,
    Noop,
    Proposal,
    Set,
    VertexId,
)
from .messages import (
    ClientRequest,
    ClientResponse,
    Commit,
    DepReply,
    DepRequest,
    Message,
    Nack,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
    ProposeRequest,
)

_MESSAGE_TAGS = [
    ClientRequest,
    DepRequest,
    DepReply,
    ProposeRequest,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
    Nack,
    Commit,
    ClientResponse,
]
_TAG_OF = {cls: i + 1 for i, cls in enumerate(_MESSAGE_TAGS)}


_U8 = struct.Struct(">B")
_U32 = struct.Struct(">I")
_LOW32 = 0xFFFFFFFF


class WireError(ValueError):
    pass


class _Writer:
    def __init__(self) -> None:
        self.parts: list[bytes] = []

    def u8(self, x: int) -> None:
        self.parts.append(_U8.pack(x))

    def u32(self, x: int) -> None:
        self.parts.append(_U32.pack(x))

    def blob(self, b: bytes) -> None:
        self.u32(len(b))
        self.parts.append(b)

    def text(self, s: str) -> None:
        self.blob(s.encode("utf-8"))

    def vertex(self, v: VertexId) -> None:
        self.parts.append(v.encode())

    def done(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise WireError("truncated frame")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def u32s(self, n: int) -> tuple[int, ...]:
        if self.pos + 4 * n > len(self.data):
            raise WireError("truncated frame")
        out = struct.unpack_from(f">{n}I", self.data, self.pos)
        self.pos += 4 * n
        return out

    def blob(self) -> bytes:
        return self._take(self.u32())

    def text(self) -> str:
        return self.blob().decode("utf-8")

    def vertex(self) -> VertexId:
        return VertexId.decode(self._take(8))


def _write_op(w: _Writer, op: Union[Get, Set]) -> None:
    if isinstance(op, Get):
        w.u8(0)
        w.blob(op.key)
    else:
        w.u8(1)
        w.blob(op.key)
        w.blob(op.value)


def _read_op(r: _Reader) -> Union[Get, Set]:
    tag = r.u8()
    if tag == 0:
        return Get(r.blob())
    if tag == 1:
        return Set(r.blob(), r.blob())
    raise WireError(f"bad op tag {tag}")


def _write_command(w: _Writer, cmd: Command) -> None:
    w.text(cmd.client_id)
    w.u32(cmd.client_seq)
    _write_op(w, cmd.op)


def _read_command(r: _Reader) -> Command:
    return Command(r.text(), r.u32(), _read_op(r))


def _write_payload(w: _Writer, payload) -> None:
    if isinstance(payload, Command):
        w.u8(0)
        _write_command(w, payload)
    elif isinstance(payload, Noop):
        w.u8(1)
    elif isinstance(payload, Batch):
        w.u8(2)
        w.u32(len(payload.commands))
        for cmd in payload.commands:
            _write_command(w, cmd)
    else:
        raise WireError(f"bad payload {payload!r}")


def _read_payload(r: _Reader):
    tag = r.u8()
    if tag == 0:
        return _read_command(r)
    if tag == 1:
        return NOOP
    if tag == 2:
        return Batch(tuple(_read_command(r) for _ in range(r.u32())))
    raise WireError(f"bad payload tag {tag}")


# Exact dependency sets grow with the history and one set rides on many
# messages, so its bytes are kept per set. A value is a pure function of its
# key, so every caller may share the memo; weak keys drop an entry once no
# message, proposal or history record holds the set.
_exact_deps_bytes: "weakref.WeakKeyDictionary[ExactDeps, bytes]" = weakref.WeakKeyDictionary()


def _encode_exact_deps(deps: ExactDeps) -> bytes:
    """Tag 0, the count, then (leader u32, seq u32) per vertex in increasing
    (seq, leader) order. Leader indices are positions in the cluster's
    leader list, far below 2**32, so (seq << 32) | leader sorts in that
    order and splits back into the two fields."""
    keys = sorted([(v.seq << 32) | v.leader_index for v in deps.vertices])
    fields = [x for k in keys for x in (k & _LOW32, k >> 32)]
    return struct.pack(f">BI{len(fields)}I", 0, len(keys), *fields)


def _write_deps(w: _Writer, deps: Deps) -> None:
    if isinstance(deps, ExactDeps):
        data = _exact_deps_bytes.get(deps)
        if data is None:
            data = _exact_deps_bytes[deps] = _encode_exact_deps(deps)
        w.parts.append(data)
    else:
        w.u8(1)
        w.u32(len(deps.watermarks))
        for wm in deps.watermarks:
            _write_opt_u32(w, wm)


def _read_deps(r: _Reader) -> Deps:
    tag = r.u8()
    if tag == 0:
        fields = r.u32s(2 * r.u32())
        leaders, seqs = fields[0::2], fields[1::2]
        keys = [(seq << 32) | leader for leader, seq in zip(leaders, seqs)]
        if not all(map(operator.lt, keys, keys[1:])):
            raise WireError("exact deps not in strictly increasing (seq, leader) order")
        return ExactDeps(frozenset(map(VertexId, leaders, seqs)))
    if tag == 1:
        return CompactDeps(tuple(_read_opt_u32(r) for _ in range(r.u32())))
    raise WireError(f"bad deps tag {tag}")


def _write_proposal(w: _Writer, p: Proposal) -> None:
    _write_payload(w, p.cmd)
    _write_deps(w, p.deps)


def _read_proposal(r: _Reader) -> Proposal:
    return Proposal(_read_payload(r), _read_deps(r))


def _write_opt_u32(w: _Writer, x: Optional[int]) -> None:
    if x is None:
        w.u8(0)
        w.u32(0)
    else:
        w.u8(1)
        w.u32(x)


def _read_opt_u32(r: _Reader) -> Optional[int]:
    present = r.u8()
    value = r.u32()
    return value if present else None


def encode_message(msg: Message) -> bytes:
    w = _Writer()
    tag = _TAG_OF.get(type(msg))
    if tag is None:
        raise WireError(f"unknown message type {type(msg).__name__}")
    w.u8(tag)
    if isinstance(msg, ClientRequest):
        _write_command(w, msg.cmd)
    elif isinstance(msg, DepRequest):
        w.vertex(msg.v)
        _write_payload(w, msg.cmd)
    elif isinstance(msg, DepReply):
        w.vertex(msg.v)
        _write_payload(w, msg.cmd)
        _write_deps(w, msg.deps)
    elif isinstance(msg, ProposeRequest):
        w.vertex(msg.v)
        _write_proposal(w, msg.proposal)
    elif isinstance(msg, Phase1a):
        w.vertex(msg.v)
        w.u32(msg.round)
    elif isinstance(msg, Phase1b):
        w.vertex(msg.v)
        w.u32(msg.round)
        _write_opt_u32(w, msg.voted_round)
        if msg.voted_value is None:
            w.u8(0)
        else:
            w.u8(1)
            _write_proposal(w, msg.voted_value)
    elif isinstance(msg, Phase2a):
        w.vertex(msg.v)
        w.u32(msg.round)
        _write_proposal(w, msg.value)
    elif isinstance(msg, Phase2b):
        w.vertex(msg.v)
        w.u32(msg.round)
    elif isinstance(msg, Nack):
        w.vertex(msg.v)
        w.u32(msg.promised)
    elif isinstance(msg, Commit):
        w.vertex(msg.v)
        _write_proposal(w, msg.proposal)
    elif isinstance(msg, ClientResponse):
        w.text(msg.client_id)
        w.u32(msg.client_seq)
        w.u8(1 if msg.output_available else 0)
        if msg.output is None:
            w.u8(0)
        else:
            w.u8(1)
            w.blob(msg.output)
    return w.done()


def decode_message(data: bytes) -> Message:
    r = _Reader(data)
    tag = r.u8()
    if not 1 <= tag <= len(_MESSAGE_TAGS):
        raise WireError(f"unknown message tag {tag}")
    cls = _MESSAGE_TAGS[tag - 1]
    if cls is ClientRequest:
        msg: Message = ClientRequest(_read_command(r))
    elif cls is DepRequest:
        msg = DepRequest(r.vertex(), _read_payload(r))
    elif cls is DepReply:
        msg = DepReply(r.vertex(), _read_payload(r), _read_deps(r))
    elif cls is ProposeRequest:
        msg = ProposeRequest(r.vertex(), _read_proposal(r))
    elif cls is Phase1a:
        msg = Phase1a(r.vertex(), r.u32())
    elif cls is Phase1b:
        v = r.vertex()
        rnd = r.u32()
        voted_round = _read_opt_u32(r)
        voted_value = _read_proposal(r) if r.u8() else None
        msg = Phase1b(v, rnd, voted_round, voted_value)
    elif cls is Phase2a:
        msg = Phase2a(r.vertex(), r.u32(), _read_proposal(r))
    elif cls is Phase2b:
        msg = Phase2b(r.vertex(), r.u32())
    elif cls is Nack:
        msg = Nack(r.vertex(), r.u32())
    elif cls is Commit:
        msg = Commit(r.vertex(), _read_proposal(r))
    else:
        client = r.text()
        seq = r.u32()
        available = bool(r.u8())
        output = r.blob() if r.u8() else None
        msg = ClientResponse(client, seq, available, output)
    if r.pos != len(r.data):
        raise WireError("trailing bytes in frame")
    return msg


def encode_frame(src: str, msg: Message) -> bytes:
    """[u32 total][u32 src-len][src][message] as sent on a socket."""
    w = _Writer()
    w.text(src)
    body = w.done() + encode_message(msg)
    return struct.pack(">I", len(body)) + body


def decode_frame(body: bytes) -> tuple[str, Message]:
    r = _Reader(body)
    src = r.text()
    return src, decode_message(body[r.pos :])


def encode_trace_record(src: str, dst: str, msg: Message) -> bytes:
    """Simulator trace dump record: the socket frame schema with both
    endpoints in the header, since there is no connection to imply dst."""
    w = _Writer()
    w.text(src)
    w.text(dst)
    body = w.done() + encode_message(msg)
    return struct.pack(">I", len(body)) + body


def decode_trace(data: bytes) -> list[tuple[str, str, Message]]:
    out = []
    pos = 0
    while pos < len(data):
        if pos + 4 > len(data):
            raise WireError("truncated trace")
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        body = data[pos + 4 : pos + 4 + length]
        if len(body) != length:
            raise WireError("truncated trace record")
        r = _Reader(body)
        src = r.text()
        dst = r.text()
        out.append((src, dst, decode_message(body[r.pos :])))
        pos += 4 + length
    return out
