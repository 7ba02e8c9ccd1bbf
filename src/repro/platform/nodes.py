"""Space-shared node pool.

The job scheduler allocates whole nodes to jobs; nodes are never shared
between jobs (only the file system is).  The pool keeps the node → job
mapping so the failure injector can determine which job (if any) a failing
node was running.

Allocation hands out the lowest-numbered free nodes.  The model does not
capture network topology, so the identity of the nodes only matters for
failure targeting; first-fit over node ids is sufficient and deterministic.

Free nodes are held as sorted, disjoint, half-open runs ``[start, end)``,
and each owner's nodes as runs in allocation order.  On a platform-sized
pool (thousands of nodes, a few dozen jobs) allocation and release then
touch a handful of runs instead of one Python object per node.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.errors import SchedulingError

__all__ = ["NodePool"]

Run = tuple[int, int]


class NodePool:
    """Tracks which nodes are free and which job owns each allocated node."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise SchedulingError("num_nodes must be positive")
        self._num_nodes = num_nodes
        self._num_free = num_nodes
        # Free runs as two parallel sorted lists (starts for bisect).
        self._starts: list[int] = [0]
        self._ends: list[int] = [num_nodes]
        # Every id as one shared int object: returned id lists are slices of
        # it, so the lists jobs keep do not each hold fresh int objects.
        self._ids = list(range(num_nodes))
        self._owner: list[object | None] = [None] * num_nodes
        # id(owner) -> (owner, owned runs in allocation order).  The tuple
        # keeps a strong reference to the owner so its id() stays unique for
        # the lifetime of the allocation.
        self._owned: dict[int, tuple[object, list[Run]]] = {}

    # ------------------------------------------------------------ queries
    @property
    def num_nodes(self) -> int:
        """Total number of nodes in the pool."""
        return self._num_nodes

    @property
    def num_free(self) -> int:
        """Number of currently unallocated nodes."""
        return self._num_free

    @property
    def num_allocated(self) -> int:
        """Number of currently allocated nodes."""
        return self._num_nodes - self._num_free

    @property
    def utilization(self) -> float:
        """Fraction of nodes currently allocated."""
        return self.num_allocated / self._num_nodes

    def owner_of(self, node_id: int) -> object | None:
        """The job owning ``node_id``, or ``None`` if the node is free."""
        self._check_node(node_id)
        return self._owner[node_id]

    def nodes_of(self, owner: object) -> list[int]:
        """All node ids currently owned by ``owner``, in allocation order."""
        entry = self._owned.get(id(owner))
        return self._ids_of(entry[1]) if entry is not None else []

    def can_allocate(self, count: int) -> bool:
        """True when ``count`` nodes are currently free."""
        return 0 < count <= self._num_free

    # ------------------------------------------------------------ mutation
    def allocate(self, count: int, owner: object) -> list[int]:
        """Allocate the ``count`` lowest-numbered free nodes to ``owner``.

        Raises
        ------
        SchedulingError
            If fewer than ``count`` nodes are free.
        """
        if count <= 0:
            raise SchedulingError("cannot allocate a non-positive number of nodes")
        if count > self._num_free:
            raise SchedulingError(
                f"cannot allocate {count} nodes: only {self._num_free} free"
            )
        starts, ends = self._starts, self._ends
        taken: list[Run] = []
        need = count
        used = 0  # free runs consumed whole
        while need:
            start, end = starts[used], ends[used]
            if end - start > need:
                taken.append((start, start + need))
                starts[used] = start + need
                break
            taken.append((start, end))
            need -= end - start
            used += 1
        del starts[:used], ends[:used]
        for start, end in taken:
            self._owner[start:end] = [owner] * (end - start)
        entry = self._owned.setdefault(id(owner), (owner, []))
        entry[1].extend(taken)
        self._num_free -= count
        return self._ids_of(taken)

    def release(self, node_ids: list[int]) -> None:
        """Return ``node_ids`` to the free pool.

        Atomic: every id is validated (in range, allocated, listed once)
        before anything changes, so a rejected release leaves the pool as
        it was.
        """
        seen: set[int] = set()
        for node in node_ids:
            self._check_node(node)
            if node in seen:
                raise SchedulingError(f"node {node} is listed twice")
            if self._is_free(node):
                raise SchedulingError(f"node {node} is already free")
            seen.add(node)
        by_owner: dict[int, set[int]] = {}
        for node in node_ids:
            by_owner.setdefault(id(self._owner[node]), set()).add(node)
        for key, released in by_owner.items():
            owner, runs = self._owned[key]
            kept = [node for node in self._ids_of(runs) if node not in released]
            if kept:
                self._owned[key] = (owner, _runs_of(kept))
            else:
                del self._owned[key]
        self._free_runs(_runs_of(sorted(seen)))

    def release_owner(self, owner: object) -> list[int]:
        """Release every node owned by ``owner``; returns the released ids."""
        entry = self._owned.pop(id(owner), None)
        if entry is None:
            return []
        self._free_runs(entry[1])
        return self._ids_of(entry[1])

    # ------------------------------------------------------------ helpers
    def _check_node(self, node_id: int) -> None:
        if not (0 <= node_id < self._num_nodes):
            raise SchedulingError(
                f"node id {node_id} outside the pool [0, {self._num_nodes})"
            )

    def _ids_of(self, runs: list[Run]) -> list[int]:
        """The node ids of ``runs``, in order."""
        ids: list[int] = []
        for start, end in runs:
            ids += self._ids[start:end]
        return ids

    def _is_free(self, node_id: int) -> bool:
        index = bisect_right(self._starts, node_id) - 1
        return index >= 0 and node_id < self._ends[index]

    def _free_runs(self, runs: list[Run]) -> None:
        """Clear the owners of ``runs`` and merge them into the free runs."""
        starts, ends = self._starts, self._ends
        for start, end in runs:
            self._owner[start:end] = [None] * (end - start)
            self._num_free += end - start
            index = bisect_left(starts, start)
            joins_left = index > 0 and ends[index - 1] == start
            joins_right = index < len(starts) and starts[index] == end
            if joins_left and joins_right:
                ends[index - 1] = ends[index]
                del starts[index], ends[index]
            elif joins_left:
                ends[index - 1] = end
            elif joins_right:
                starts[index] = start
            else:
                starts.insert(index, start)
                ends.insert(index, end)


def _runs_of(nodes: list[int]) -> list[Run]:
    """Runs of consecutive ascending ids in ``nodes``, keeping their order."""
    runs: list[Run] = []
    for node in nodes:
        if runs and runs[-1][1] == node:
            runs[-1] = (runs[-1][0], node + 1)
        else:
            runs.append((node, node + 1))
    return runs
