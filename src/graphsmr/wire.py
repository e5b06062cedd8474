"""Canonical binary wire format.

Frames are length-prefixed: a big-endian u32 byte count, then the body;
`split_frames` is the one parser of that prefix. Every message starts with
one tag byte; all integers are big-endian, byte strings are
u32-length-prefixed, vertex ids use the canonical 8-byte encoding from core.
The same schema serves the socket transport and simulator trace dumps.
`write_trace_record` writes a trace record around a body from
`encode_message`, so a caller encodes a message once for all the records
that carry it.

The format is written down once, as a table of codecs: a codec is a
(write, read) pair, and each type's codec is built from the codecs of its
parts by `_record`, `_union`, `_tuple_of` and `_optional`, so the encoder
and the decoder cannot disagree. A fixed-width codec also states its struct
format, so a record packs each run of fixed-width fields, and a union its
tag with the fields that follow it, in one call of a precompiled Struct.

Decoding is canonical: every value has exactly one encoding, and the
decoder rejects any other bytes. A flag or presence byte is 0 or 1, an
absent optional u32 has zero value bytes, and an exact dependency set is its
vertices in increasing (seq, leader) order.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import struct
import weakref
from array import array
from bisect import bisect_left
from collections import deque
from itertools import chain, groupby
from typing import Any, Callable, Iterable, NamedTuple, Optional

from .core import (
    Batch,
    Command,
    CompactDeps,
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
    ProposeMissing,
    ProposeRequest,
)

_U32 = struct.Struct(">I")
_OPT_U32 = struct.Struct(">BI")
_VERTEX = struct.Struct(">II")


class WireError(ValueError):
    pass


class _Reader:
    """A cursor over one frame body. ids interns the vertex ids read, by
    (seq << 32) | leader; a caller decoding many frames passes one table
    so that equal ids share one object."""

    __slots__ = ("data", "pos", "ids")

    def __init__(self, data: bytes, ids: dict[int, VertexId]) -> None:
        self.data = data
        self.pos = 0
        self.ids = ids

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise WireError("truncated frame")
        out = self.data[self.pos : end]
        self.pos = end
        return out


class _Codec(NamedTuple):
    """write appends the bytes of one value to a list of parts; read
    consumes one value from a _Reader. A fixed-width codec also gives its
    struct format and the attribute path of each field it packs, "" for
    the value itself. A record's codec keeps its fields as (attribute path,
    codec) pairs, with the fields of a nested record in place of it, so
    that an enclosing record writes them in one pass and a union packs its
    tag with the first of them."""

    write: Callable[[list, Any], None]
    read: Callable[[_Reader], Any]
    fixed: Optional[tuple[str, tuple[str, ...]]] = None
    fields: tuple[tuple[str, "_Codec"], ...] = ()


def _read_u32(r: _Reader) -> int:
    return _U32.unpack(r.take(4))[0]


def _write_blob(out: list, b: bytes) -> None:
    out.append(_U32.pack(len(b)))
    out.append(b)


def _read_blob(r: _Reader) -> bytes:
    return r.take(_read_u32(r))


def _write_text(out: list, s: str) -> None:
    _write_blob(out, s.encode("utf-8"))


def _read_text(r: _Reader) -> str:
    return _read_blob(r).decode("utf-8")


def _write_opt_u32(out: list, x: Optional[int]) -> None:
    out.append(_OPT_U32.pack(0, 0) if x is None else _OPT_U32.pack(1, x))


def _read_opt_u32(r: _Reader) -> Optional[int]:
    present, value = _OPT_U32.unpack(r.take(5))
    if present == 1:
        return value
    if present == 0 and value == 0:
        return None
    raise WireError(f"non-canonical optional u32 {present}/{value}")


def _read_vertex(r: _Reader) -> VertexId:
    leader, seq = _VERTEX.unpack(r.take(8))
    key = (seq << 32) | leader
    v = r.ids.get(key)
    if v is None:
        v = r.ids[key] = VertexId(leader, seq)
    return v


def _read_bool(r: _Reader) -> bool:
    byte = r.take(1)[0]
    if byte > 1:
        raise WireError(f"boolean byte {byte}, expected 0 or 1")
    return byte == 1


_u32 = _Codec(lambda out, x: out.append(_U32.pack(x)), _read_u32, ("I", ("",)))
# "?" packs any true value as 1
_flag = _Codec(lambda out, x: out.append(b"\x01" if x else b"\x00"), _read_bool, ("?", ("",)))
_blob = _Codec(_write_blob, _read_blob)
_text = _Codec(_write_text, _read_text)
# always five bytes: a presence byte, then the value or zero
_opt_u32 = _Codec(_write_opt_u32, _read_opt_u32)
_vertex = _Codec(
    lambda out, v: out.append(v.encode()), _read_vertex, ("II", ("leader_index", "seq"))
)
_noop = _Codec(lambda out, x: None, lambda r: NOOP)


def _writer(fields: Iterable[tuple[str, _Codec]], tag: Optional[int] = None):
    """A writer of the fields of a value at the given attribute paths, in
    order. Each run of fixed-width fields packs in one call of a
    precompiled Struct, and any other field is written by its codec. A tag
    byte, if given, packs in front of the first run, which must then open
    the fields."""
    steps: list = []  # (pack, get, None) for a run, (None, get, write) for a field
    for fixed, group in groupby(fields, key=lambda field: field[1].fixed is not None):
        run = list(group)
        if not fixed or (len(run) == 1 and tag is None):
            steps += [(None, operator.attrgetter(path), codec.write) for path, codec in run]
        else:
            fmt = "".join(codec.fixed[0] for _, codec in run)
            paths = [f"{path}.{sub}" if sub else path
                     for path, codec in run for sub in codec.fixed[1]]
            get = operator.attrgetter(*paths)
            if len(paths) == 1:
                get = lambda x, one=get: (one(x),)  # noqa: E731
            if tag is None:
                pack = struct.Struct(">" + fmt).pack
            else:
                pack = functools.partial(struct.Struct(">B" + fmt).pack, tag)
            steps.append((pack, get, None))
        tag = None  # only the first run carries it

    def write(out: list, x) -> None:
        for pack, get, w in steps:
            if w is None:
                out.append(pack(*get(x)))
            else:
                w(out, get(x))

    return write


def _record(cls, *codecs: _Codec) -> _Codec:
    """A dataclass: its fields in declaration order, one codec each."""
    fields: list[tuple[str, _Codec]] = []
    for f, codec in zip(dataclasses.fields(cls), codecs, strict=True):
        if codec.fields:  # a nested record: its fields, under its name
            fields += [(f"{f.name}.{path}", inner) for path, inner in codec.fields]
        else:
            fields.append((f.name, codec))
    readers = [codec.read for codec in codecs]

    def read(r: _Reader):
        return cls(*[read(r) for read in readers])

    return _Codec(_writer(fields), read, fields=tuple(fields))


def _union(what: str, first_tag: int, *cases: tuple[type, _Codec]) -> _Codec:
    """One tag byte, numbered from first_tag in case order, then the case.
    A record that starts with fixed-width fields packs the tag with them."""
    writers = {}
    for tag, (cls, codec) in enumerate(cases, first_tag):
        if codec.fields and codec.fields[0][1].fixed is not None:
            writers[cls] = (b"", _writer(codec.fields, tag))
        else:
            writers[cls] = (bytes([tag]), codec.write)
    readers = {tag: codec.read for tag, (_, codec) in enumerate(cases, first_tag)}

    def write(out: list, x) -> None:
        case = writers.get(type(x))
        if case is None:
            raise WireError(f"unknown {what} type {type(x).__name__}")
        if case[0]:
            out.append(case[0])
        case[1](out, x)

    def read(r: _Reader):
        tag = r.take(1)[0]
        case = readers.get(tag)
        if case is None:
            raise WireError(f"unknown {what} tag {tag}")
        return case(r)

    return _Codec(write, read)


def _tuple_of(codec: _Codec) -> _Codec:
    """A u32 count, then the items."""
    write_item, read_item = codec.write, codec.read

    def write(out: list, xs: tuple) -> None:
        out.append(_U32.pack(len(xs)))
        for x in xs:
            write_item(out, x)

    def read(r: _Reader) -> tuple:
        return tuple([read_item(r) for _ in range(_read_u32(r))])

    return _Codec(write, read)


def _optional(codec: _Codec) -> _Codec:
    """A presence byte, then the value if present."""
    write_value, read_value = codec.write, codec.read

    def write(out: list, x) -> None:
        if x is None:
            out.append(b"\x00")
        else:
            out.append(b"\x01")
            write_value(out, x)

    def read(r: _Reader):
        return read_value(r) if _read_bool(r) else None

    return _Codec(write, read)


# Exact dependency sets grow with the history and one set rides on many
# messages, so each distinct set is packed once and unpacked once. A value is
# a pure function of its key, so every caller may share the memos, and both
# are weak: the encoder's keys and the decoder's values are the sets, so an
# entry goes once no message, proposal, history record or the ring below
# holds its set.
#
# The encoder's memo is keyed by the basic weak reference to a set's
# frozenset, which weakref.ref() hands back for as long as it lives, so a
# lookup of a packed set finds its key by identity: no Python-level hash or
# equality runs, and two sets are compared only when they are equal but
# distinct objects. Each value also holds a second reference whose callback
# drops the entry when the frozenset goes.
#
# A new set is mostly an earlier set plus a vertex or two, so the encoder
# also keeps a ring of the last 16 sets it packed, with their bytes, and
# packs a new set by inserting what it adds into the bytes of the largest of
# them it contains. The ring holds its sets strongly, since the sets a new
# one grows from are often freed by then; 16 sets and their bytes bound it.
# The bytes are a function of the set alone, so which earlier set was used,
# if any, cannot change them.
_exact_deps_bytes: "dict[weakref.ref, tuple[bytes, weakref.KeyedRef]]" = {}
_exact_deps_read: "weakref.WeakValueDictionary[bytes, ExactDeps]" = weakref.WeakValueDictionary()
_recent: "deque[tuple[ExactDeps, bytes]]" = deque(maxlen=16)


def _sort_from_scratch(vertices: frozenset[VertexId]) -> bytes:
    """A (leader, seq) pair packed as little-endian u32s reads back as the
    little-endian u64 (seq << 32) | leader, so one sort of those keys puts
    the vertices in order. Packed back the same way, reversing the bytes of
    every u32 makes each field big-endian, whatever the host's byte order.
    No Python step runs per vertex."""
    n = len(vertices)
    packed = struct.pack(f"<{2 * n}I", *chain.from_iterable(vertices))
    keys = sorted(struct.unpack(f"<{n}Q", packed))
    pairs = array("I", struct.pack(f"<{n}Q", *keys))
    pairs.byteswap()
    return _U32.pack(n) + pairs.tobytes()


def _nearest_packed_subset(vertices: frozenset[VertexId]) -> Optional[tuple[frozenset[VertexId], bytes]]:
    """The largest recently packed set that is a subset of vertices and at
    least half its size, with its bytes; or None."""
    n = len(vertices)
    best, best_len = None, (n - 1) // 2  # so a parent holds at least half
    for parent, data in reversed(_recent):  # newest first, so mostly the largest first
        packed = parent.vertices
        if best_len < len(packed) <= n and packed <= vertices:
            best, best_len = (packed, data), len(packed)
    return best


def _insert_sorted(data: bytes, vertices: Iterable[VertexId]) -> bytes:
    """Packed set data plus vertices it lacks. Those that sort after its
    last pair, mostly all of them, are packed and appended in one slice;
    each other one goes to its place by a binary search over the packed
    pairs, so the pairs already in order are neither unpacked nor sorted
    again."""
    out = bytearray(data)
    n = (len(out) - 4) // 8

    def order(i: int) -> tuple[int, int]:
        leader, seq = _VERTEX.unpack_from(out, 4 + 8 * i)
        return seq, leader

    new = sorted(vertices, key=VertexId.sort_key)
    split = bisect_left(new, order(n - 1), key=VertexId.sort_key) if n else 0
    at = 0  # the vertices go in increasing order, each after the last
    for v in new[:split]:
        at = bisect_left(range(n), v.sort_key(), lo=at, key=order)
        out[4 + 8 * at : 4 + 8 * at] = v.encode()
        at += 1
        n += 1
    tail = new[split:]
    out += struct.pack(f">{2 * len(tail)}I", *chain.from_iterable(tail))
    out[:4] = _U32.pack(n + len(tail))
    return bytes(out)


def _encode_exact_deps(deps: ExactDeps) -> bytes:
    """The count, then (leader u32, seq u32) per vertex in increasing
    (seq, leader) order. Memoises the bytes and puts the set in the ring."""
    vertices = deps.vertices
    nearest = _nearest_packed_subset(vertices)
    if nearest is None:
        data = _sort_from_scratch(vertices)
    else:
        parent, parent_data = nearest
        data = _insert_sorted(parent_data, vertices - parent)
    key = weakref.ref(vertices)
    _exact_deps_bytes.setdefault(key, (data, weakref.KeyedRef(vertices, _forget_exact_deps, key)))
    _recent.append((deps, data))
    return data


def _forget_exact_deps(dead: weakref.KeyedRef) -> None:
    _exact_deps_bytes.pop(dead.key, None)


def _write_exact_deps(out: list, deps: ExactDeps) -> None:
    packed = _exact_deps_bytes.get(weakref.ref(deps.vertices))
    out.append(_encode_exact_deps(deps) if packed is None else packed[0])


def _read_exact_deps(r: _Reader) -> ExactDeps:
    n = _read_u32(r)
    data = r.take(8 * n)
    deps = _exact_deps_read.get(data)
    if deps is None:
        # only bytes that pass the order check enter the memo, so a hit is
        # canonical too
        fields = struct.unpack(f">{2 * n}I", data)
        keys = [(seq << 32) | leader for leader, seq in zip(fields[0::2], fields[1::2])]
        if not all(map(operator.lt, keys, keys[1:])):
            raise WireError("exact deps not in strictly increasing (seq, leader) order")
        ids = r.ids
        for key in keys:
            if key not in ids:
                ids[key] = VertexId(key & 0xFFFFFFFF, key >> 32)
        deps = _exact_deps_read[data] = ExactDeps(frozenset(map(ids.__getitem__, keys)))
    return deps


_command = _record(Command, _text, _u32, _union(
    "op", 0,
    (Get, _record(Get, _blob)),
    (Set, _record(Set, _blob, _blob)),
))
_payload = _union(
    "payload", 0,
    (Command, _command),
    (Noop, _noop),
    (Batch, _record(Batch, _tuple_of(_command))),
)
_deps = _union(
    "deps", 0,
    (ExactDeps, _Codec(_write_exact_deps, _read_exact_deps)),
    (CompactDeps, _record(CompactDeps, _tuple_of(_opt_u32))),
)
_proposal = _record(Proposal, _payload, _deps)
_message = _union(
    "message", 1,
    (ClientRequest, _record(ClientRequest, _command)),
    (DepRequest, _record(DepRequest, _vertex, _payload)),
    (DepReply, _record(DepReply, _vertex, _payload, _deps)),
    (ProposeRequest, _record(ProposeRequest, _vertex, _proposal)),
    (Phase1a, _record(Phase1a, _vertex, _u32)),
    (Phase1b, _record(Phase1b, _vertex, _u32, _opt_u32, _optional(_proposal))),
    (Phase2a, _record(Phase2a, _vertex, _u32, _proposal)),
    (Phase2b, _record(Phase2b, _vertex, _u32)),
    (Nack, _record(Nack, _vertex, _u32)),
    (Commit, _record(Commit, _vertex, _proposal)),
    (ClientResponse, _record(ClientResponse, _text, _u32, _flag, _optional(_blob))),
    (ProposeMissing, _record(ProposeMissing, _vertex)),
)
_write_message, _read_message = _message.write, _message.read


def encode_message(msg: Message) -> bytes:
    out: list = []
    _write_message(out, msg)
    return b"".join(out)


def decode_message(data: bytes) -> Message:
    return _decode(data, 0, {})[0]


@functools.lru_cache(maxsize=4096)
def _header(*names: str) -> bytes:
    """The names in a frame's header. A cluster of n nodes has at most n * n
    endpoint pairs, so a run reuses a few headers for all its frames; node
    names are strings, which cannot be weakly referenced, so the cache is
    bounded instead."""
    out: list = []
    for name in names:
        _write_text(out, name)
    return b"".join(out)


def _decode(body: bytes, header_names: int, ids: dict[int, VertexId]) -> tuple:
    r = _Reader(body, ids)
    out = (*[_read_text(r) for _ in range(header_names)], _read_message(r))
    if r.pos != len(body):
        raise WireError("trailing bytes in frame")
    return out


def encode_frame(src: str, msg: Message) -> bytes:
    """[u32 total][u32 src-len][src][message] as sent on a socket."""
    out = [b"", _header(src)]  # the length prefix, once the body is known
    _write_message(out, msg)
    out[0] = _U32.pack(sum(map(len, out)))
    return b"".join(out)


def decode_frame(body: bytes) -> tuple[str, Message, bytes]:
    """(src, msg, msg's body as encode_message gives it) of a frame's body."""
    src, msg = _decode(body, 1, {})
    return src, msg, body[len(_header(src)):]


def write_trace_record(write: Callable[[bytes], Any], src: str, dst: str, body: bytes) -> None:
    """Passes one simulator trace dump record to write, given the message's
    body from encode_message: the socket frame schema with both endpoints
    in the header, since there is no connection to imply dst. The body is
    written as it is, so one encoding serves every record of a message."""
    header = _header(src, dst)
    write(_U32.pack(len(header) + len(body)) + header)
    write(body)


def encode_trace_record(src: str, dst: str, msg: Message) -> bytes:
    """The trace record of msg delivered from src to dst."""
    out: list = []
    write_trace_record(out.append, src, dst, encode_message(msg))
    return b"".join(out)


def split_frames(data: bytes) -> tuple[list[bytes], bytes]:
    """The bodies of the complete length-prefixed frames at the front of
    data, and the rest: a partial frame, or b""."""
    bodies = []
    pos, end = 0, len(data)
    while pos + 4 <= end:
        (length,) = _U32.unpack_from(data, pos)
        if pos + 4 + length > end:
            break
        bodies.append(data[pos + 4 : pos + 4 + length])
        pos += 4 + length
    return bodies, data[pos:]


def decode_trace(data: bytes) -> list[tuple[str, str, Message]]:
    bodies, rest = split_frames(data)
    if rest:
        raise WireError("truncated trace record")
    ids: dict[int, VertexId] = {}
    return [_decode(body, 2, ids) for body in bodies]
