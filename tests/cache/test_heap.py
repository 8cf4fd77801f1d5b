"""Tests for the addressable min-heap."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.entry import CacheEntry
from repro.cache.heap import AddressableHeap


def test_empty_heap():
    heap = AddressableHeap()
    assert len(heap) == 0
    with pytest.raises(IndexError):
        heap.pop()
    with pytest.raises(IndexError):
        heap.peek()


def test_push_and_pop_in_priority_order():
    heap = AddressableHeap()
    heap.push("b", 2.0)
    heap.push("a", 1.0)
    heap.push("c", 3.0)
    assert [heap.pop()[0] for _ in range(3)] == ["a", "b", "c"]


def test_pop_returns_priority():
    heap = AddressableHeap()
    heap.push("x", 1.5)
    assert heap.pop() == ("x", 1.5)


def test_update_priority_moves_key():
    heap = AddressableHeap()
    heap.push("a", 1.0)
    heap.push("b", 2.0)
    heap.push("a", 3.0)  # re-push updates
    assert heap.pop()[0] == "b"
    assert heap.pop() == ("a", 3.0)


def test_contains_and_len():
    heap = AddressableHeap()
    heap.push("a", 1.0)
    heap.push("b", 2.0)
    assert "a" in heap and "b" in heap and "c" not in heap
    assert len(heap) == 2
    heap.push("a", 5.0)
    assert len(heap) == 2  # update, not insert


def test_remove_and_discard():
    heap = AddressableHeap()
    heap.push("a", 1.0)
    heap.discard("a")
    assert "a" not in heap
    heap.discard("a")  # no-op, no raise


def test_removed_key_never_pops():
    heap = AddressableHeap()
    heap.push("a", 1.0)
    heap.push("b", 2.0)
    heap.discard("a")
    assert heap.pop()[0] == "b"
    assert len(heap) == 0


def test_priority_lookup():
    heap = AddressableHeap()
    heap.push("a", 4.5)
    assert heap.priority("a") == 4.5
    with pytest.raises(KeyError):
        heap.priority("missing")


def test_peek_does_not_remove():
    heap = AddressableHeap()
    heap.push("a", 1.0)
    assert heap.peek() == ("a", 1.0)
    assert len(heap) == 1


def test_ties_pop_in_insertion_order():
    heap = AddressableHeap()
    for key in "abc":
        heap.push(key, 1.0)
    assert [heap.pop()[0] for _ in range(3)] == ["a", "b", "c"]


def test_negative_priorities_sort_first():
    heap = AddressableHeap()
    heap.push("pos", 1.0)
    heap.push("neg", -5.0)
    heap.push("zero", 0.0)
    assert [heap.pop()[0] for _ in range(3)] == ["neg", "zero", "pos"]


def test_items_and_keys_reflect_live_entries():
    heap = AddressableHeap()
    heap.push("a", 1.0)
    heap.push("b", 2.0)
    heap.push("a", 3.0)
    heap.discard("b")
    assert set(heap.keys()) == {"a"}
    assert heap.priority("a") == 3.0


def test_compact_preserves_order():
    heap = AddressableHeap()
    for i in range(50):
        heap.push(i, float(i))
    for i in range(50):
        heap.push(i, float(50 - i))  # invert priorities via updates
    heap.compact()
    popped = [heap.pop()[0] for _ in range(50)]
    assert popped == list(range(49, -1, -1))


def _entry(key, size):
    return CacheEntry(page_id=key, version=0, size=size, cost=1.0)


def _sized_heap(priorities, size=10):
    heap = AddressableHeap()
    for key, priority in priorities.items():
        heap.push(key, priority)
    return heap, {key: _entry(key, size) for key in priorities}


def test_pop_cheaper_pops_minima_until_enough_is_freed():
    heap, entries = _sized_heap({"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0})
    assert heap.pop_cheaper(15, 3.5, entries) == [("a", 1.0), ("b", 2.0)]
    assert set(heap.keys()) == {"c", "d"}
    assert heap.pop_cheaper(0, 3.5, entries) == []


def test_pop_cheaper_threshold_is_strict_and_first_probe_is_a_peek():
    heap, entries = _sized_heap({"a": 2.0, "b": 3.0})
    before = (dict(heap._live), heap._sequence, list(heap._heap))
    assert heap.pop_cheaper(10, 2.0, entries) is None  # min == threshold
    assert (dict(heap._live), heap._sequence, list(heap._heap)) == before


def test_pop_cheaper_unconditional_ignores_priorities():
    heap, entries = _sized_heap({"a": 5.0, "b": float("inf")})
    assert heap.pop_cheaper(20, None, entries) == [("a", 5.0), ("b", float("inf"))]
    assert len(heap) == 0
    # Running dry is a reject, conditional or not.
    heap.push("a", 5.0)
    assert heap.pop_cheaper(20, None, entries) is None
    assert heap.peek() == ("a", 5.0)


def test_pop_cheaper_rollback_renumbers_in_pop_order():
    """A failed attempt re-pushes what it popped with fresh sequence
    numbers, in pop order; a key its caller pushes back after a success
    queues up behind equal-priority keys that were never popped.  Tie
    order decides evictions: this is part of the result format, not an
    implementation detail."""
    heap, entries = _sized_heap({"a": 1.0, "b": 1.0, "c": 1.0, "d": 9.0})
    assert heap._sequence == 4
    # a and b are cheaper than 1.5 ... c too, but d is not: 40 bytes fail.
    assert heap.pop_cheaper(40, 1.5, entries) is None
    assert heap._live == {
        "a": (1.0, 5, "a"), "b": (1.0, 6, "b"), "c": (1.0, 7, "c"),
        "d": (9.0, 4, "d"),
    }
    heap, entries = _sized_heap({"a": 1.0, "b": 1.0, "c": 1.0})
    assert heap.pop_cheaper(20, 1.5, entries) == [("a", 1.0), ("b", 1.0)]
    heap.push("a", 1.0)
    heap.push("b", 1.0)
    # c was never popped and now precedes both.
    assert [heap.pop()[0] for _ in range(3)] == ["c", "a", "b"]


class _ReadOnlyRejectHeap(AddressableHeap):
    """Decides an attempt before popping anything, so a rejected attempt
    leaves the heap exactly as it was."""

    __slots__ = ()

    def pop_cheaper(self, needed, threshold, entries):
        cheap = sum(
            entries[key].size
            for key in self.keys()
            if threshold is None or self.priority(key) < threshold
        )
        if cheap < needed:
            return None
        return super().pop_cheaper(needed, threshold, entries)


_heap_operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 11), st.sampled_from([1.0, 2.0, 3.0])),
        st.tuples(st.just("discard"), st.integers(0, 11)),
        st.tuples(st.just("pop")),
        st.tuples(
            st.just("pop_cheaper"),
            st.integers(0, 60),
            st.sampled_from([None, 1.5, 2.0, 2.5, 3.5]),
        ),
    ),
    max_size=80,
)


@given(_heap_operations)
@settings(max_examples=200, deadline=None)
def test_a_rollback_keeps_every_pairwise_order(operations):
    """A rejected attempt popped every live record cheaper than the
    threshold (all of them, unconditionally), so no equal-valued record
    stayed behind and re-pushing in pop order changes no pop order: a
    heap whose rejects are no-ops answers every call the same way."""
    entries = {key: _entry(key, 5 * (1 + key % 4)) for key in range(12)}
    heaps = (AddressableHeap(), _ReadOnlyRejectHeap())
    for name, *args in operations:
        if name == "pop_cheaper":
            args.append(entries)
        if name == "pop" and not len(heaps[0]):
            continue
        real, read_only = (getattr(heap, name)(*args) for heap in heaps)
        assert real == read_only
    assert [heaps[0].pop() for _ in range(len(heaps[0]))] == [
        heaps[1].pop() for _ in range(len(heaps[1]))
    ]


def test_equal_valued_pages_follow_the_tie_rule():
    """docs/algorithms.md, "Equal values": candidates are *strictly*
    cheaper, eviction is all-or-nothing, and among equal values the page
    pushed (inserted or re-priced) earliest leaves first."""
    heap, entries = _sized_heap({"a": 5.0, "b": 5.0, "c": 5.0})
    # A page worth exactly 5.0 finds no candidate among its equals.
    assert heap.pop_cheaper(10, 5.0, entries) is None
    # Re-pricing is a push: b, re-priced to the same value, now leaves last.
    heap.push("b", 5.0)
    # 40 bytes cannot be freed from three 10-byte pages: nothing leaves,
    # and the rollback keeps the three in the order they were popped.
    assert heap.pop_cheaper(40, 6.0, entries) is None
    assert set(heap.keys()) == {"a", "b", "c"}
    # A dearer page that needs two of them takes the earliest pushed.
    assert heap.pop_cheaper(20, 6.0, entries) == [("a", 5.0), ("c", 5.0)]
    assert heap.peek() == ("b", 5.0)


def test_pop_cheaper_skips_dead_records():
    heap, entries = _sized_heap({"a": 1.0, "b": 2.0, "c": 3.0})
    heap.push("a", 10.0)  # dead record for a at the top
    heap.discard("b")
    assert heap.pop_cheaper(10, 5.0, entries) == [("c", 3.0)]


def test_compaction_inside_a_rollback_keeps_the_backing_list():
    """``compact`` rebuilds in place: a rollback push that trips the
    auto-compaction bound must not strand the list ``pop_cheaper`` (or
    a policy's inlined push) is holding."""
    heap = AddressableHeap()
    for key in range(100):
        heap.push(key, float(key))
    entries = {key: _entry(key, 1) for key in range(100)}
    for key in range(50, 100):
        heap.discard(key)  # 100 records, 50 live: one more push compacts
    backing = heap._heap
    assert heap.pop_cheaper(30, 20.0, entries) is None
    assert heap._heap is backing
    assert len(backing) < 100, "the rollback's first push should have compacted"
    assert sorted(backing) == sorted(heap._live.values())
    heap.compact()
    assert heap._heap is backing
    assert [heap.pop()[0] for _ in range(50)] == list(range(50))


def test_interleaved_operations_stay_consistent():
    heap = AddressableHeap()
    reference = {}
    import random

    rng = random.Random(42)
    for step in range(2000):
        action = rng.random()
        key = rng.randrange(40)
        if action < 0.5:
            priority = rng.uniform(-10, 10)
            heap.push(key, priority)
            reference[key] = priority
        elif action < 0.7 and reference:
            victim = rng.choice(sorted(reference))
            heap.discard(victim)
            reference.pop(victim, None)
        elif reference:
            key, priority = heap.pop()
            expected_min = min(reference.values())
            assert priority == pytest.approx(expected_min)
            assert reference.pop(key) == priority
    assert len(heap) == len(reference)


def test_update_heavy_churn_stays_bounded():
    """Auto-compaction: the backing list never exceeds 2x the live
    population (for heaps past the compaction floor), no matter how
    many priority updates pile up."""
    heap = AddressableHeap()
    live = 200
    for key in range(live):
        heap.push(key, float(key))
    for round_index in range(50):
        for key in range(live):
            heap.push(key, float(round_index * live + key))
        assert len(heap._heap) <= 2 * live
    assert len(heap) == live
    # Ordering survives the rebuilds.
    popped = [heap.pop()[0] for _ in range(live)]
    assert popped == sorted(range(live))


def test_push_pop_churn_stays_bounded():
    heap = AddressableHeap()
    for step in range(5000):
        heap.push(step % 100, float(step))
        if step % 3 == 0:
            heap.pop()
    assert len(heap._heap) <= max(64, 2 * len(heap) + 1)


def test_tiny_heaps_never_auto_compact():
    heap = AddressableHeap()
    for step in range(20):
        heap.push("k", float(step))
    # Below the floor the dead records are left alone (cheapest path).
    assert len(heap._heap) == 20
    assert heap.pop() == ("k", 19.0)
