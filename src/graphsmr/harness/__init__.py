from .cluster import ClosedLoopClient, ConfigError, build_cluster, layout
from .history import (
    Invoke,
    Reply,
    Verdict,
    Violation,
    check_history,
    export_history,
)
from .mutations import ALL_MUTATIONS, Mutations, NO_MUTATIONS
from .sim import (
    Crash,
    Fault,
    LinkFault,
    NO_TIMEOUTS,
    Partition,
    SimConfig,
    SimResult,
    Timeouts,
    role_loads,
    run_simulation,
)

__all__ = [
    "ALL_MUTATIONS",
    "ClosedLoopClient",
    "ConfigError",
    "Crash",
    "Fault",
    "Invoke",
    "LinkFault",
    "Mutations",
    "NO_MUTATIONS",
    "NO_TIMEOUTS",
    "Partition",
    "Reply",
    "SimConfig",
    "SimResult",
    "Timeouts",
    "Verdict",
    "Violation",
    "build_cluster",
    "check_history",
    "export_history",
    "layout",
    "role_loads",
    "run_simulation",
]
