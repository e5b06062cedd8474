"""Multileader, generalized state machine replication over dependency
graphs: per-role protocol state machines, a deterministic simulation harness
with a safety checker, an explicit-state model checker, and a bench CLI."""

from .core import (
    Batch,
    Command,
    CompactDeps,
    Deps,
    EMPTY_DEPS,
    ExactDeps,
    Get,
    NOOP,
    NOOP_PROPOSAL,
    Noop,
    Proposal,
    Set,
    VertexId,
)

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "Command",
    "CompactDeps",
    "Deps",
    "EMPTY_DEPS",
    "ExactDeps",
    "Get",
    "NOOP",
    "NOOP_PROPOSAL",
    "Noop",
    "Proposal",
    "Set",
    "VertexId",
    "__version__",
]
