"""The fused eviction primitive against the loops it replaced.

``tests/core/_reference.py`` keeps the pre-PR-13 eviction bodies, which
walked the heap through ``min_priority`` / ``pop`` / ``push``.  Random
interleavings of add / reprice / remove / conditional and unconditional
eviction are applied to a ``HeapCache`` (and to a ``DualMethodsPolicy``'s
storage and two heaps) and to a reference twin; after every operation
the twins must agree on the outcome, the evicted pages in order, the
last evicted value and the *full* ``(priority, sequence, key)`` content
of every heap — so a rollback that stopped renumbering, re-pushed in
another order or skipped a sequence number fails here, not only in a
digest.  Priorities are small integers (ties and ``min == threshold``
are the common case in the simulator, SG2/SR values collapsing to L),
and every example starts above the heap's 64-record compaction floor.
"""

from hypothesis import Phase, given, settings, strategies as st

from repro.cache.entry import CacheEntry
from repro.cache.heap import _COMPACT_FLOOR, AddressableHeap
from repro.cache.storage import CacheStorage
from repro.core._base import HeapCache
from repro.core.dual_methods import DualMethodsPolicy

from tests.core import _reference

CAPACITY = 400
PREFILL = _COMPACT_FLOOR + 16

PAGES = st.integers(0, 119)
SIZES = st.integers(1, 9)
PRIORITIES = st.integers(0, 5).map(float)

NEEDS = st.integers(1, 250)

OPERATIONS = st.one_of(
    st.tuples(st.just("add"), PAGES, SIZES, PRIORITIES, PRIORITIES),
    st.tuples(st.just("add"), PAGES, SIZES, PRIORITIES, PRIORITIES),
    st.tuples(st.just("reprice"), PAGES, PRIORITIES),
    st.tuples(st.just("reprice"), PAGES, PRIORITIES),
    st.tuples(st.just("remove"), PAGES),
    st.tuples(st.just("evict_cheaper"), NEEDS, PRIORITIES),
    st.tuples(st.just("evict_cheaper"), NEEDS, PRIORITIES),
    st.tuples(st.just("evict_cheaper"), NEEDS, PRIORITIES),
    st.tuples(st.just("evict"), NEEDS),
    st.tuples(st.just("evict"), st.just(CAPACITY + 1)),
)
#: (prefill, operations).  The prefill adds PREFILL pages — roughly the
#: capacity, so evictions have to evict — and reprices those flagged,
#: leaving dead records behind: a few evictions later the backing list
#: is more than twice the live population and the next push, rollback
#: pushes included, compacts.
SCRIPTS = st.tuples(
    st.lists(
        st.tuples(SIZES, PRIORITIES, PRIORITIES, st.booleans()),
        min_size=PREFILL,
        max_size=PREFILL,
    ),
    st.lists(OPERATIONS, min_size=30, max_size=150),
)


#: No shrink phase: a failing script is ~200 operations on two worlds
#: and took minutes to minimise; the assertion names the operation.
SETTINGS = dict(
    deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate)
)


def setup_operations(prefill):
    adds = [
        ("add", page_id, size, push_priority, access_priority)
        for page_id, (size, push_priority, access_priority, _) in enumerate(prefill)
    ]
    reprices = [
        ("reprice", page_id, push_priority)
        for page_id, (_, push_priority, _, again) in enumerate(prefill)
        if again
    ]
    return adds + reprices


def entry(page_id, size):
    return CacheEntry(page_id=page_id, version=0, size=size, cost=1.0)


def heap_state(heap):
    return dict(heap._live), heap._sequence


def outcome(result):
    return result.success, [e.page_id for e in result.evicted], result.last_value


def reference_outcome(result):
    success, evicted, last_value = result
    return success, [e.page_id for e in evicted], last_value


# -- HeapCache.evict_for / evict_cheaper_for -------------------------------


def apply_to_twins(cache, ref_storage, ref_heap, operation):
    """Apply one operation to both worlds; returns their outcomes."""
    kind = operation[0]
    if kind == "add":
        _, page_id, size, priority, _ = operation
        if page_id in cache or size > cache.free_bytes:
            return None, None
        cache.add(entry(page_id, size), priority)
        ref_storage.add(entry(page_id, size))
        ref_heap.push(page_id, priority)
        return None, None
    if kind == "reprice":
        _, page_id, priority = operation
        if page_id in cache:
            cache.reprice(cache.get(page_id), priority)
            ref_heap.push(page_id, priority)
        return None, None
    if kind == "remove":
        _, page_id = operation
        if page_id in cache:
            cache.remove(page_id)
            ref_heap.discard(page_id)
            ref_storage.remove(page_id)
        return None, None
    if kind == "evict_cheaper":
        _, size, threshold = operation
        return (
            outcome(cache.evict_cheaper_for(size, threshold)),
            reference_outcome(
                _reference.evict_cheaper_for(ref_storage, ref_heap, size, threshold)
            ),
        )
    _, size = operation
    return (
        outcome(cache.evict_for(size)),
        reference_outcome(_reference.evict_for(ref_storage, ref_heap, size)),
    )


@settings(max_examples=150, **SETTINGS)
@given(SCRIPTS)
def test_heapcache_eviction_matches_reference(script):
    prefill, operations = script
    cache = HeapCache(CAPACITY)
    ref_storage, ref_heap = CacheStorage(CAPACITY), AddressableHeap()
    for operation in setup_operations(prefill) + operations:
        new, old = apply_to_twins(cache, ref_storage, ref_heap, operation)
        assert new == old, operation
        assert heap_state(cache.heap) == heap_state(ref_heap), operation
        assert cache.used_bytes == ref_storage.used_bytes
        assert set(cache.storage.entries_by_id) == set(ref_storage.entries_by_id)
    cache.check_invariants()
    # Same live records => same drain order; checked anyway, through
    # whatever dead records and compactions each side accumulated.
    drained = [cache.heap.pop() for _ in range(len(cache.heap))]
    assert drained == [ref_heap.pop() for _ in range(len(ref_heap))]


# -- DualMethodsPolicy._make_room over the push heap -----------------------


def dm_push_eviction(policy, size, threshold):
    """The push-time eviction step of ``DualMethodsPolicy.on_publish``."""
    storage = policy._storage
    free = storage.free_bytes
    if size <= free:
        return True, [], None
    if size > storage.capacity_bytes:
        return False, [], None
    evicted = []
    policy.evict_listener = lambda page_id, _size, cause: evicted.append(
        (page_id, cause)
    )
    last_value = policy._make_room(size - free, threshold)
    assert all(cause == "displaced" for _, cause in evicted)
    return last_value is not None, [page_id for page_id, _ in evicted], last_value


@settings(max_examples=100, **SETTINGS)
@given(SCRIPTS)
def test_dual_methods_push_eviction_matches_reference(script):
    prefill, operations = script
    policy = DualMethodsPolicy(CAPACITY)
    storage, push_heap, access_heap = (
        policy._storage, policy._push_heap, policy._access_heap,
    )
    ref_storage = CacheStorage(CAPACITY)
    ref_push, ref_access = AddressableHeap(), AddressableHeap()
    for operation in setup_operations(prefill) + operations:
        kind = operation[0]
        if kind == "add":
            _, page_id, size, push_priority, access_priority = operation
            if page_id in storage or size > storage.free_bytes:
                continue
            for world, push, access in (
                (storage, push_heap, access_heap),
                (ref_storage, ref_push, ref_access),
            ):
                world.add(entry(page_id, size))
                push.push(page_id, push_priority)
                access.push(page_id, access_priority)
        elif kind == "reprice":
            _, page_id, priority = operation
            if page_id in storage:
                push_heap.push(page_id, priority)
                ref_push.push(page_id, priority)
        elif kind == "remove":
            _, page_id = operation
            if page_id in storage:
                for world, push, access in (
                    (storage, push_heap, access_heap),
                    (ref_storage, ref_push, ref_access),
                ):
                    push.discard(page_id)
                    access.discard(page_id)
                    world.remove(page_id)
        elif kind == "evict_cheaper":
            _, size, threshold = operation
            assert dm_push_eviction(policy, size, threshold) == reference_outcome(
                _reference.evict_cheaper_by_push_value(
                    ref_storage, ref_push, ref_access, size, threshold
                )
            ), operation
        else:
            continue  # DM's access-time loop has no conditional twin
        assert heap_state(push_heap) == heap_state(ref_push), operation
        assert heap_state(access_heap) == heap_state(ref_access), operation
        assert storage.used_bytes == ref_storage.used_bytes
    policy.check_invariants()
