"""Binary min-heap with a reverse location index, and maps of such heaps.

The per-pair certificate heaps need decrease/increase-key and
delete-by-id in O(log n), which heapq does not offer; the shortest-path
trees and their families keep no heap between calls.  Entries are ordered
by key alone, because every structure reads only min_key: among entries of
equal key, pop returns some minimum entry, not a fixed one.

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
    """Min-heap over hashable ids with updatable keys.

    Keys may be ints or floats (math.inf is fine).  Ids need only be
    hashable; they are never compared.
    """

    __slots__ = ("_keys", "_ids", "_pos")

    def __init__(self):
        self._keys = []
        self._ids = []
        self._pos = {}

    def __len__(self):
        return len(self._ids)

    def __contains__(self, ident):
        return ident in self._pos

    def __bool__(self):
        return bool(self._ids)

    def min_key(self):
        if not self._ids:
            raise IndexError("min_key on empty heap")
        return self._keys[0]

    def insert(self, ident, key):
        if ident in self._pos:
            raise KeyError(f"heap id {ident!r} already present")
        self._pos[ident] = len(self._ids)
        self._keys.append(key)
        self._ids.append(ident)
        self._sift_up(len(self._ids) - 1)

    def update(self, ident, key):
        """Change the key of an existing entry (either direction)."""
        i = self._pos[ident]
        old = self._keys[i]
        self._keys[i] = key
        if key < old:
            self._sift_up(i)
        else:
            self._sift_down(i)

    def pop(self):
        """Remove and return (id, key) of an entry of minimum key.

        Unused in the package; kept because perfbench's HeapCounter patches
        it by name and the reference ES-tree in tests/helpers.py pops its
        queue.
        """
        if not self._ids:
            raise IndexError("pop on empty heap")
        ident = self._ids[0]
        key = self._keys[0]
        self._remove_at(0)
        return ident, key

    def delete(self, ident):
        self._remove_at(self._pos[ident])

    def _remove_at(self, i):
        keys, ids, pos = self._keys, self._ids, self._pos
        del pos[ids[i]]
        last_key = keys.pop()
        last_id = ids.pop()
        if i < len(ids):
            keys[i] = last_key
            ids[i] = last_id
            pos[last_id] = i
            self._sift_down(i)
            self._sift_up(i)

    def _sift_up(self, i):
        keys, ids, pos = self._keys, self._ids, self._pos
        key, ident = keys[i], ids[i]
        while i > 0:
            parent = (i - 1) >> 1
            pk = keys[parent]
            if pk <= key:
                break
            keys[i] = pk
            ids[i] = ids[parent]
            pos[ids[i]] = i
            i = parent
        keys[i] = key
        ids[i] = ident
        pos[ident] = i

    def _sift_down(self, i):
        keys, ids, pos = self._keys, self._ids, self._pos
        n = len(ids)
        key, ident = keys[i], ids[i]
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            right = child + 1
            if right < n:
                if keys[right] < keys[child]:
                    child = right
            ck = keys[child]
            if key <= ck:
                break
            keys[i] = ck
            ids[i] = ids[child]
            pos[ids[i]] = i
            i = child
        keys[i] = key
        ids[i] = ident
        pos[ident] = i


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
