"""Wire-level message types exchanged between roles, and the effect values
roles hand back to whatever transport is driving them.

Roles are pure state machines: feed them a message or an expired timer, get
back a list of effects. The simulator and the socket transport both consume
the same effect vocabulary.

Messages are frozen: a fan-out hands one message object to every
destination, and the simulator delivers that object itself, so no receiver
may change what the others see. Effects are per-call records that the
transport reads once and drops, so they are plain mutable records and are
not hashable. Every class keeps its fields in slots, since one is built on
nearly every event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .core import Batch, Command, Deps, Proposal, VertexId


@dataclass(frozen=True, slots=True)
class ClientRequest:
    cmd: Command


@dataclass(frozen=True, slots=True)
class DepRequest:
    v: VertexId
    cmd: Union[Command, Batch]


@dataclass(frozen=True, slots=True)
class DepReply:
    v: VertexId
    cmd: Union[Command, Batch]
    deps: Deps


@dataclass(frozen=True, slots=True)
class ProposeRequest:
    v: VertexId
    proposal: Proposal


@dataclass(frozen=True, slots=True)
class Phase1a:
    v: VertexId
    round: int


@dataclass(frozen=True, slots=True)
class Phase1b:
    v: VertexId
    round: int
    voted_round: Optional[int]
    voted_value: Optional[Proposal]


@dataclass(frozen=True, slots=True)
class Phase2a:
    v: VertexId
    round: int
    value: Proposal


@dataclass(frozen=True, slots=True)
class Phase2b:
    v: VertexId
    round: int


@dataclass(frozen=True, slots=True)
class Nack:
    v: VertexId
    promised: int


@dataclass(frozen=True, slots=True)
class Commit:
    v: VertexId
    proposal: Proposal


@dataclass(frozen=True, slots=True)
class ClientResponse:
    client_id: str
    client_seq: int
    output_available: bool
    output: Optional[bytes]


@dataclass(frozen=True, slots=True)
class ProposeMissing:
    """A proposer asks the leader of v to resend v's ProposeRequest, which
    a later seq of that leader revealed as lost."""

    v: VertexId


Message = Union[
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
    ProposeMissing,
]


@dataclass(slots=True)
class Send:
    dst: str
    msg: Message


@dataclass(slots=True)
class SetTimer:
    delay_ms: float
    key: tuple


@dataclass(slots=True)
class Note:
    """A history record; transports append it to the run's event log."""

    event: object


Effect = Union[Send, SetTimer, Note]
