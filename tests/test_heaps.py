import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decapsp import IndexedHeap


def test_pop_drains_in_key_order():
    h = IndexedHeap()
    h.insert(5, 2.0)
    h.insert(1, 2.0)
    h.insert(9, 1.0)
    h.insert(3, 2.0)
    drained = [h.pop() for _ in range(4)]
    assert [key for _, key in drained] == [1.0, 2.0, 2.0, 2.0]
    assert sorted(drained) == [(1, 2.0), (3, 2.0), (5, 2.0), (9, 1.0)]


def test_update_both_directions():
    h = IndexedHeap([(0, 10), (1, 20), (2, 30)])
    h.update(2, 5)
    assert h.min_key() == 5
    h.update(2, 50)
    assert h.min_key() == 10
    assert h.key_of(2) == 50
    assert [h.pop() for _ in range(3)] == [(0, 10), (1, 20), (2, 50)]


def test_insert_duplicate_raises():
    h = IndexedHeap([(0, 1)])
    with pytest.raises(KeyError):
        h.insert(0, 2)


def test_delete():
    h = IndexedHeap([(i, i) for i in range(5)])
    h.delete(0)
    with pytest.raises(KeyError):
        h.delete(99)
    assert len(h) == 4
    assert [h.pop() for _ in range(4)] == [(i, i) for i in range(1, 5)]


def test_build_matches_incremental():
    items = [(i, (i * 7919) % 31) for i in range(40)]
    built = IndexedHeap(items)
    inc = IndexedHeap()
    for ident, key in items:
        inc.insert(ident, key)
    drained_a = [built.pop() for _ in range(len(items))]
    drained_b = [inc.pop() for _ in range(len(items))]
    keys = sorted(key for _, key in items)
    assert [key for _, key in drained_a] == [key for _, key in drained_b] == keys
    assert sorted(drained_a) == sorted(drained_b) == items


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 20), st.integers(0, 100)), max_size=120), st.integers(0, 2**30))
def test_against_reference_model(ops, seed):
    """Random op soup vs a plain dict model; drain at the end must be sorted."""
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
        elif op == 2 and model:  # pop-min: some id holding the minimum key
            ident2, key2 = h.pop()
            assert model[ident2] == key2 == min(model.values())
            del model[ident2]
        elif op == 3:
            assert (ident in h) == (ident in model)
        elif op == 4 and model:  # the minimum, left in place
            assert h.min_key() == min(model.values())
            ident2, key2 = h.pop()
            assert model[ident2] == key2 == min(model.values())
            h.insert(ident2, key2)
        elif op == 5 and ident in model:
            assert h.key_of(ident) == model[ident]
    assert len(h) == len(model)
    drained = []
    while h:
        drained.append(h.pop())
    assert [key for _, key in drained] == sorted(model.values())
    assert dict(drained) == model
