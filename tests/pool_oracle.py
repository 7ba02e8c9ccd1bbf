"""The original list/set node pool, kept as a test oracle.

A deliberately simple implementation (sorted free list + set + per-node
owner dict) of the :class:`repro.platform.nodes.NodePool` contract.  It is
slow on platform-sized pools, which is why the simulator uses the run-length
pool; ``test_platform_nodes`` holds that pool to this one over random
operation histories.  Only valid operations are replayed against it: unlike
the production pool, its ``release`` is not atomic.
"""

from __future__ import annotations

from repro.errors import SchedulingError


class ListNodePool:
    """Tracks which nodes are free and which owner holds each allocated node."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise SchedulingError("num_nodes must be positive")
        self._num_nodes = num_nodes
        # Sorted container of free node ids.  A sorted list plus set gives
        # O(q) allocation of the q lowest free ids and O(1) membership tests.
        self._free: list[int] = list(range(num_nodes))
        self._free_set: set[int] = set(self._free)
        self._owner: dict[int, object] = {}

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_free(self) -> int:
        return len(self._free_set)

    @property
    def num_allocated(self) -> int:
        return self._num_nodes - len(self._free_set)

    def owner_of(self, node_id: int) -> object | None:
        self._check_node(node_id)
        return self._owner.get(node_id)

    def nodes_of(self, owner: object) -> list[int]:
        return [n for n, o in self._owner.items() if o is owner]

    def can_allocate(self, count: int) -> bool:
        return 0 < count <= self.num_free

    def allocate(self, count: int, owner: object) -> list[int]:
        if count <= 0:
            raise SchedulingError("cannot allocate a non-positive number of nodes")
        if count > self.num_free:
            raise SchedulingError(
                f"cannot allocate {count} nodes: only {self.num_free} free"
            )
        allocated: list[int] = []
        kept: list[int] = []
        for node in self._free:
            if node not in self._free_set:
                continue  # stale entry from a release/allocate cycle
            if len(allocated) < count:
                allocated.append(node)
            else:
                kept.append(node)
        self._free = kept
        for node in allocated:
            self._free_set.discard(node)
            self._owner[node] = owner
        return allocated

    def release(self, node_ids: list[int]) -> None:
        for node in node_ids:
            self._check_node(node)
            if node in self._free_set:
                raise SchedulingError(f"node {node} is already free")
            del self._owner[node]
            self._free_set.add(node)
        self._free = sorted(self._free_set)

    def release_owner(self, owner: object) -> list[int]:
        nodes = self.nodes_of(owner)
        if nodes:
            self.release(nodes)
        return nodes

    def _check_node(self, node_id: int) -> None:
        if not (0 <= node_id < self._num_nodes):
            raise SchedulingError(
                f"node id {node_id} outside the pool [0, {self._num_nodes})"
            )
