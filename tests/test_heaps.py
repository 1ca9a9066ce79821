import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decapsp import IndexedHeap
from decapsp.heaps import heap_set
from helpers import heap_entries

INF = math.inf


def heap_of(items):
    h = IndexedHeap()
    for ident, key in items:
        h.insert(ident, key)
    return h


def test_update_both_directions():
    h = heap_of([(0, 10), (1, 20), (2, 30)])
    h.update(2, 5)
    assert h.min_key() == 5
    h.update(2, 50)
    assert h.min_key() == 10
    assert heap_entries(h) == {0: 10, 1: 20, 2: 50}
    h.update(0, 60)
    assert heap_entries(h) == {0: 60, 1: 20, 2: 50} and h.min_key() == 20


def test_insert_duplicate_raises():
    h = heap_of([(0, 1)])
    with pytest.raises(KeyError):
        h.insert(0, 2)


def test_delete():
    h = heap_of([(i, i) for i in range(5)])
    h.delete(0)
    with pytest.raises(KeyError):
        h.delete(99)
    assert heap_entries(h) == {i: i for i in range(1, 5)} and h.min_key() == 1
    h.delete(3)
    assert heap_entries(h) == {1: 1, 2: 2, 4: 4} and h.min_key() == 1


def test_an_emptied_heap_reads_inf():
    """A heap that delete leaves empty, like a new one, has minimum inf."""
    h = heap_of([(0, 4), (1, 2)])
    assert IndexedHeap().min_key() == INF
    h.delete(1)
    h.delete(0)
    assert not h and h.min_key() == INF


def snapshot(heaps):
    return {at: heap_entries(h) for at, h in heaps.items()}


def test_heap_set_lifecycle():
    """The first entry makes a key's heap, a finite key re-keys either way,
    inf deletes and drops the emptied heap; inf for an absent entry or map
    key raises KeyError and leaves the map as it was."""
    heaps = {}
    heap_set(heaps, "a", 1, 5)
    assert snapshot(heaps) == {"a": {1: 5}}
    heap_set(heaps, "a", 2, 7)
    heap_set(heaps, "a", 1, 9)  # up
    assert heaps["a"].min_key() == 7
    heap_set(heaps, "a", 1, 3)  # down
    assert heaps["a"].min_key() == 3 and snapshot(heaps) == {"a": {1: 3, 2: 7}}
    heap_set(heaps, "a", 1, INF)
    assert snapshot(heaps) == {"a": {2: 7}}
    for at, ident in (("a", 1), ("b", 2)):
        with pytest.raises(KeyError):
            heap_set(heaps, at, ident, INF)
        assert snapshot(heaps) == {"a": {2: 7}}
    heap_set(heaps, "a", 2, INF)
    assert heaps == {}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 20), st.integers(0, 100)), max_size=120), st.integers(0, 2**30))
def test_against_reference_model(ops, seed):
    """Random op soup vs a plain dict model: min_key matches the model after
    every operation, and the entries match it at the end."""
    rng = random.Random(seed)
    h = IndexedHeap()
    model = {}
    for op, ident, key in ops:
        if op == 0:  # update if present, else insert
            if ident in h:
                h.update(ident, key)
            else:
                h.insert(ident, key)
            model[ident] = key
        elif op == 1 and model:  # delete a present id
            victim = rng.choice(sorted(model))
            h.delete(victim)
            del model[victim]
        elif op == 2 and model:  # delete an id holding the minimum key
            victim = rng.choice(sorted(i for i, k in model.items() if k == min(model.values())))
            h.delete(victim)
            del model[victim]
        elif op == 3:
            assert (ident in h) == (ident in model)
        elif op == 4 and model:  # raise an argmin entry, which may rescan
            victim = min(model, key=model.get)
            model[victim] += key
            h.update(victim, model[victim])
        elif op == 5:
            assert heap_entries(h) == model
        assert h.min_key() == min(model.values(), default=INF)  # after every operation
    assert len(h) == len(model)
    assert heap_entries(h) == model


def test_heap_is_one_object():
    """A heap is its id -> key dict itself: no per-instance __dict__ and no
    inner dict, so heap_entries reads the heap as the mapping it is."""
    h = heap_of([(1, 5.0), (2, 3.0)])
    assert isinstance(h, dict) and not hasattr(h, "__dict__")
    assert h == {1: 5.0, 2: 3.0} == heap_entries(h)
    assert not any(isinstance(getattr(h, slot), dict) for slot in IndexedHeap.__slots__)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6),
                          st.one_of(st.integers(0, 50), st.just(INF))), max_size=150))
def test_heap_set_matches_a_plain_dict_model(writes):
    """heap_set writes (inf deletes a present entry) keep every heap's len,
    in, truthiness and min_key equal to those of a plain dict of dicts."""
    heaps, model = {}, {}
    for at, ident, key in writes:
        row = model.get(at, {})
        if key == INF and ident not in row:
            continue
        heap_set(heaps, at, ident, key)
        if key == INF:
            del row[ident]
        else:
            row[ident] = key
        if row:
            model[at] = row
        else:
            model.pop(at, None)
        assert heaps.keys() == model.keys()
        for a, want in model.items():
            heap = heaps[a]
            assert len(heap) == len(want) and bool(heap) == bool(want)
            assert all((i in heap) == (i in want) for i in range(7))
            assert heap.min_key() == min(want.values())
