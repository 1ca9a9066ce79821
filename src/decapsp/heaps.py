"""Certificate heaps: id -> key dicts with a cached minimum, and maps of them.

Every structure reads a certificate heap only through min_key, so an entry
needs no place in an order: each heap is one dict from id to key plus the
least key.  insert and a lowering update move the cached minimum in O(1).
Only an update that raises an entry at the minimum, or a delete that removes
one, rescans the dict with min(); that scan is O(k) in the heap's k entries
but runs in C, where a binary heap would take O(log k) steps in Python.  A
delete that leaves the dict empty sets the minimum to inf without a scan,
so an empty heap's minimum reads inf, and heap_set then drops the heap: on
the benchmark's seed-1 mult-drain run 3,666 of the 4,869 rescans that min()
would otherwise make are of a dict just emptied.  On the benchmark's seed-1
runs (mult-drain, mixed-churn, mult-churn) 8.9-10.1% of operations rescan a
heap they do not leave empty, none of those heaps holds more than 50
entries, and rescans visit 0.15-0.64 entries per operation on average.  A
heap is itself the dict: a dict subclass whose one slot holds the minimum,
so its entries, len, in and truthiness are the dict's own, in C.  A
one-entry heap costs 256 bytes by sys.getsizeof on CPython 3.11: 232 for
the object with its dict and 24 for a float key.

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


class IndexedHeap(dict):
    """Min-key store over hashable ids with updatable keys.

    Keys may be ints or floats (math.inf is fine).  Ids need only be
    hashable; they are never compared.  The heap is the id -> key dict
    itself, with the cached minimum in its one slot and no per-instance
    __dict__, so reads (len, in, iteration, dict(heap)) are the dict's
    own.  Only update shadows a dict method, dict.update, with the heap's
    meaning below.  A write through any dict method (item assignment,
    del, setdefault, clear) would skip the cached minimum, so only this
    class's methods write a heap, and among the certificate layers only
    heap_set calls them.  The class keeps its name because perfbench's
    HeapCounter imports it by that name and counts calls to its insert,
    update, delete and pop attributes, pop being the inherited dict.pop.
    So delete calls dict.pop(self, ident) directly: through self.pop, a
    counted pass would count each delete twice.
    """

    __slots__ = ("_min",)

    def __init__(self):
        self._min = INF

    def min_key(self):
        return self._min

    def insert(self, ident, key):
        if ident in self:
            raise KeyError(f"heap id {ident!r} already present")
        self[ident] = key
        if key < self._min:
            self._min = key

    def update(self, ident, key):
        """Change the key of an existing entry (either direction).  Shadows
        dict.update."""
        old = self[ident]
        self[ident] = key
        if key < self._min:
            self._min = key
        elif old == self._min and key > old:
            self._min = min(self.values())

    def delete(self, ident):
        key = dict.pop(self, ident)
        if key == self._min:
            self._min = min(self.values()) if self else INF


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
