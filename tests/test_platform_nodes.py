"""Node pool allocation (repro.platform.nodes).

The contract tests pin behaviour on small pools; the state machine at the
end holds the run-length pool to the list/set oracle in ``pool_oracle``
over random operation histories.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from pool_oracle import ListNodePool
from repro.errors import SchedulingError
from repro.platform.nodes import NodePool


@pytest.fixture(params=[NodePool], ids=["reference"])
def pool_cls(request):
    """The pool implementation the contract tests run against."""
    return request.param


def test_initial_state(pool_cls):
    pool = pool_cls(8)
    assert pool.num_nodes == 8
    assert pool.num_free == 8
    assert pool.num_allocated == 0
    assert pool.utilization == 0.0


def test_allocate_lowest_numbered_nodes_first(pool_cls):
    pool = pool_cls(8)
    owner = object()
    assert pool.allocate(3, owner) == [0, 1, 2]
    assert pool.num_free == 5
    assert pool.utilization == pytest.approx(3 / 8)


def test_owner_tracking_and_release(pool_cls):
    pool = pool_cls(8)
    a, b = object(), object()
    nodes_a = pool.allocate(2, a)
    nodes_b = pool.allocate(3, b)
    assert pool.owner_of(nodes_a[0]) is a
    assert pool.owner_of(nodes_b[0]) is b
    assert sorted(pool.nodes_of(b)) == nodes_b
    pool.release(nodes_a)
    assert pool.owner_of(nodes_a[0]) is None
    assert pool.num_free == 8 - 3


def test_release_owner_releases_everything_and_reports_it(pool_cls):
    pool = pool_cls(8)
    owner = object()
    nodes = pool.allocate(4, owner)
    released = pool.release_owner(owner)
    assert sorted(released) == nodes
    assert pool.num_free == 8
    # Releasing an owner with no nodes is a no-op.
    assert pool.release_owner(owner) == []


def test_released_nodes_are_reused(pool_cls):
    pool = pool_cls(4)
    a = object()
    nodes = pool.allocate(4, a)
    pool.release(nodes[:2])
    b = object()
    assert pool.allocate(2, b) == nodes[:2]


def test_cannot_overallocate(pool_cls):
    pool = pool_cls(4)
    pool.allocate(3, object())
    assert not pool.can_allocate(2)
    assert pool.can_allocate(1)
    with pytest.raises(SchedulingError):
        pool.allocate(2, object())


def test_invalid_operations_rejected(pool_cls):
    pool = pool_cls(4)
    with pytest.raises(SchedulingError):
        pool.allocate(0, object())
    with pytest.raises(SchedulingError):
        pool.release([0])  # node 0 is already free
    with pytest.raises(SchedulingError):
        pool.owner_of(99)
    with pytest.raises(SchedulingError):
        pool_cls(0)


def test_can_allocate_rejects_non_positive_counts(pool_cls):
    pool = pool_cls(4)
    assert not pool.can_allocate(0)
    assert not pool.can_allocate(-2)


def test_rejected_release_leaves_the_pool_unchanged():
    pool = NodePool(4)
    owner = object()
    pool.allocate(4, owner)
    with pytest.raises(SchedulingError):
        pool.release([3, 3])  # duplicate id
    with pytest.raises(SchedulingError):
        pool.release([1, 99])  # valid id, then one out of range
    assert pool.num_free == 0
    assert not pool.can_allocate(1)
    assert pool.nodes_of(owner) == [0, 1, 2, 3]
    assert pool.owner_of(3) is owner
    pool.release([2])
    with pytest.raises(SchedulingError):
        pool.release([1, 2])  # valid id, then one already free
    assert pool.owner_of(1) is owner
    assert pool.allocate(1, object()) == [2]


def test_allocation_spans_several_free_runs():
    pool = NodePool(64)
    a, b, c, d, e = (object() for _ in range(5))
    for owner, count in ((a, 8), (b, 8), (c, 8), (d, 40)):
        pool.allocate(count, owner)
    pool.release_owner(a)
    pool.release_owner(c)  # free runs: [0, 8) and [16, 24)
    expected = list(range(0, 8)) + list(range(16, 20))
    assert pool.allocate(12, e) == expected
    assert pool.nodes_of(e) == expected
    assert pool.owner_of(16) is e and pool.owner_of(20) is None
    assert pool.allocate(4, a) == [20, 21, 22, 23]
    assert pool.num_free == 0


def test_partial_release_splits_an_owned_run():
    pool = NodePool(64)
    a, b = object(), object()
    pool.allocate(10, a)
    pool.release([5, 3, 4])
    assert pool.nodes_of(a) == [0, 1, 2, 6, 7, 8, 9]
    assert pool.owner_of(4) is None and pool.owner_of(6) is a
    assert pool.num_free == 57
    assert pool.allocate(2, b) == [3, 4]
    assert pool.release_owner(a) == [0, 1, 2, 6, 7, 8, 9]
    assert pool.nodes_of(b) == [3, 4]


def test_release_merges_both_neighbours():
    pool = NodePool(64)
    a, b, c = object(), object(), object()
    for owner in (a, b, c):
        pool.allocate(4, owner)
    pool.release_owner(a)
    pool.release_owner(c)
    assert (pool._starts, pool._ends) == ([0, 8], [4, 64])
    assert pool.release_owner(b) == [4, 5, 6, 7]
    assert (pool._starts, pool._ends) == ([0], [64])
    assert pool.allocate(64, a) == list(range(64))


# ------------------------------------------------------------- the oracle
class _Owner:
    """An allocation owner; pools compare owners by identity."""

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:
        return f"owner-{self.index}"


class PoolMatchesOracle(RuleBasedStateMachine):
    """Random histories of valid operations give identical answers."""

    owner_index = st.integers(0, 5)

    @initialize(num_nodes=st.integers(64, 160))
    def build(self, num_nodes):
        self.pool = NodePool(num_nodes)
        self.oracle = ListNodePool(num_nodes)
        self.owners = [_Owner(i) for i in range(6)]

    @rule(count=st.integers(1, 40), owner=owner_index)
    def allocate(self, count, owner):
        if count > self.oracle.num_free:
            with pytest.raises(SchedulingError):
                self.pool.allocate(count, self.owners[owner])
            return
        expected = self.oracle.allocate(count, self.owners[owner])
        assert self.pool.allocate(count, self.owners[owner]) == expected

    @precondition(lambda self: self.oracle.num_allocated > 0)
    @rule(data=st.data())
    def release(self, data):
        allocated = [
            n for n in range(self.oracle.num_nodes) if self.oracle.owner_of(n) is not None
        ]
        nodes = data.draw(
            st.lists(st.sampled_from(allocated), min_size=1, max_size=24, unique=True)
        )
        self.oracle.release(nodes)
        self.pool.release(nodes)

    @rule(owner=owner_index)
    def release_owner(self, owner):
        expected = self.oracle.release_owner(self.owners[owner])
        assert self.pool.release_owner(self.owners[owner]) == expected

    @rule(count=st.integers(-2, 170))
    def can_allocate(self, count):
        assert self.pool.can_allocate(count) == self.oracle.can_allocate(count)

    @invariant()
    def queries_agree(self):
        assert self.pool.num_free == self.oracle.num_free
        assert self.pool.num_allocated == self.oracle.num_allocated
        for owner in self.owners:
            assert self.pool.nodes_of(owner) == self.oracle.nodes_of(owner)
        for node in range(self.oracle.num_nodes):
            assert self.pool.owner_of(node) is self.oracle.owner_of(node)


PoolMatchesOracle.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
test_pool_matches_the_oracle = PoolMatchesOracle.TestCase
