"""Built-in protocol mutations.

Each switch breaks one safety-critical rule; the acceptance suite proves
that the history checker (or the model checker) catches every one of them.
They exist only to validate the checkers and are all off by default. The
roles know nothing of them: `Mutations.apply` breaks the rules on the built
role objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..consensus import Acceptor
from ..core import Proposal, VertexId
from ..leader import Leader
from ..messages import Effect, Message, Phase2b
from ..replica import ClientTable, Replica


@dataclass(frozen=True)
class Mutations:
    # leader aggregates a single dependency reply instead of f+1
    dep_quorum_one: bool = False
    # acceptors accept phase-2 messages below their promised round
    acceptor_ignores_promises: bool = False
    # replicas execute commits immediately, ignoring deps and SCC order
    replica_skip_scc: bool = False
    # client table keeps only the largest executed id per client
    client_table_largest_only: bool = False

    def apply(self, roles: dict[str, object]) -> None:
        """Break each switched-on rule on the built role objects."""
        for role in roles.values():
            if isinstance(role, Leader) and self.dep_quorum_one:
                role.dep_quorum = 1
            elif isinstance(role, Acceptor) and self.acceptor_ignores_promises:
                role.handle_phase2a = _phase2a_ignoring_promises(role)
            elif isinstance(role, Replica):
                if self.replica_skip_scc:
                    role.execute_eligible = _execute_in_arrival_order(role)
                if self.client_table_largest_only:
                    role.table = _LargestOnlyClientTable()


def _phase2a_ignoring_promises(acceptor: Acceptor):
    def handle_phase2a(v: VertexId, r: int, value: Proposal) -> Message:
        slot = acceptor._slot(v)
        slot.promised = max(slot.promised, r)
        slot.voted_round = r
        slot.voted_value = value
        return Phase2b(v, r)

    return handle_phase2a


def _execute_in_arrival_order(replica: Replica):
    # each commit runs as it arrives, so the one waiting vertex is the new one
    def execute_eligible() -> list[Effect]:
        out: list[Effect] = []
        for v in list(replica.graph.waiting):
            out.extend(replica._execute_vertex(v))
        return out

    return execute_eligible


class _LargestOnlyClientTable(ClientTable):
    """The naive rule: any id up to the client's largest counts as executed."""

    def contains(self, client: str, seq: int) -> bool:
        return seq <= self.highest.get(client, (0, None))[0]


NO_MUTATIONS = Mutations()

ALL_MUTATIONS = {
    "dep-quorum-one": Mutations(dep_quorum_one=True),
    "acceptor-ignores-promises": Mutations(acceptor_ignores_promises=True),
    "replica-skip-scc": Mutations(replica_skip_scc=True),
    "client-table-largest-only": Mutations(client_table_largest_only=True),
}
