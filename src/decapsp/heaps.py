"""Certificate heaps: id -> key dicts with a cached minimum, and maps of them.

Every structure reads a certificate heap only through min_key, so an entry
needs no place in an order: each heap is one dict from id to key plus the
least key.  insert and a lowering update move the cached minimum in O(1).
Only an update that raises an entry at the minimum, or a delete that removes
one, rescans the dict with min(); that scan is O(k) in the heap's k entries
but runs in C, where a binary heap would take O(log k) steps in Python.  A
delete or pop that leaves the dict empty sets the minimum to inf without a
scan, and heap_set then drops the heap: on the benchmark's seed-1
mult-drain run 3,666 of the 4,869 rescans that min() would otherwise make
are of a dict just emptied.  On the benchmark's seed-1 runs (mult-drain,
mixed-churn, mult-churn) 8.9-10.1% of operations rescan a heap they do not
leave empty, none of those heaps holds more than 50 entries, and rescans
visit 0.15-0.64 entries per operation on average.  Among entries of equal
key, pop returns some minimum entry, not a fixed one.  A one-entry heap
costs 296 bytes by sys.getsizeof on CPython 3.11: 48 for the object, 224
for its dict and 24 for a float key.

The certificate heaps live in dicts: mixed's overlap heaps in one keyed by
node pair, mult's nbr and adj heaps in one per first node, keyed by the
second.  heap_set is the only writer of these maps: it inserts, re-keys or,
for key inf, deletes one entry, so a caller states what the entry must be
and never which case it is in.  A key's heap is made by its first entry and
dropped with its last, so no map ever holds an empty heap and a missing key
means no entry.
"""

from __future__ import annotations

import math

INF = math.inf


class IndexedHeap:
    """Min-key store over hashable ids with updatable keys.

    Keys may be ints or floats (math.inf is fine).  Ids need only be
    hashable; they are never compared.  The class keeps a heap's name and
    pop because perfbench's HeapCounter imports it by that name and counts
    its insert, update, delete and pop calls, and the reference ES-tree in
    tests/helpers.py pops its queue.
    """

    __slots__ = ("_keys", "_min")

    def __init__(self):
        self._keys = {}
        self._min = INF

    def __len__(self):
        return len(self._keys)

    def __contains__(self, ident):
        return ident in self._keys

    def __bool__(self):
        return bool(self._keys)

    def min_key(self):
        if not self._keys:
            raise IndexError("min_key on empty heap")
        return self._min

    def insert(self, ident, key):
        keys = self._keys
        if ident in keys:
            raise KeyError(f"heap id {ident!r} already present")
        keys[ident] = key
        if key < self._min:
            self._min = key

    def update(self, ident, key):
        """Change the key of an existing entry (either direction)."""
        keys = self._keys
        old = keys[ident]
        keys[ident] = key
        if key < self._min:
            self._min = key
        elif old == self._min and key > old:
            self._min = min(keys.values())

    def pop(self):
        """Remove and return (id, key) of an entry of minimum key.  The
        entry is removed here, not through delete, so that HeapCounter
        counts a pop as one operation."""
        keys = self._keys
        if not keys:
            raise IndexError("pop on empty heap")
        key = self._min
        ident = next(i for i, k in keys.items() if k == key)
        del keys[ident]
        self._min = min(keys.values()) if keys else INF
        return ident, key

    def delete(self, ident):
        keys = self._keys
        key = keys.pop(ident)
        if key == self._min:
            self._min = min(keys.values()) if keys else INF


def heap_set(heaps, at, ident, key):
    """Make ident's entry in heaps[at] read key: insert it, re-key it, or,
    for key inf, delete it.  The heap is made by its first entry and dropped
    with its last.  Deleting an entry the map does not hold raises KeyError
    before anything changes."""
    if key == INF:
        heap = heaps[at]
        heap.delete(ident)
        if not heap:
            del heaps[at]
        return
    heap = heaps.get(at)
    if heap is None:
        heap = heaps[at] = IndexedHeap()
        heap.insert(ident, key)
    elif ident in heap:
        heap.update(ident, key)
    else:
        heap.insert(ident, key)
