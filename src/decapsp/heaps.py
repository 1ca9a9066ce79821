"""Binary min-heap with a reverse location index, and maps of such heaps.

The per-pair certificate heaps need decrease/increase-key and
delete-by-id in O(log n), which heapq does not offer; the shortest-path
trees and their families keep no heap between calls.  Entries
are (key, id) pairs ordered lexicographically, so equal keys break ties
toward the smaller id and iteration order never depends on insertion
history.

The certificate heaps live in dicts keyed by node pair.  heap_insert and
heap_delete own their lifecycle: a pair's heap is made by its first insert
and dropped with its last entry, so no map ever holds an empty heap and a
missing pair means no entry.
"""

from __future__ import annotations


class IndexedHeap:
    """Min-heap over hashable ids with updatable keys.

    Keys may be ints or floats (math.inf is fine).  Ids must be mutually
    comparable because they are used as tie-breakers.
    """

    __slots__ = ("_keys", "_ids", "_pos")

    def __init__(self, items=None):
        # items: iterable of (id, key); built in O(len) via sift-down passes
        self._keys = []
        self._ids = []
        self._pos = {}
        if items:
            for ident, key in items:
                if ident in self._pos:
                    raise KeyError(f"duplicate heap id {ident!r}")
                self._pos[ident] = len(self._ids)
                self._keys.append(key)
                self._ids.append(ident)
            for i in range(len(self._ids) // 2 - 1, -1, -1):
                self._sift_down(i)

    def __len__(self):
        return len(self._ids)

    def __contains__(self, ident):
        return ident in self._pos

    def __bool__(self):
        return bool(self._ids)

    def key_of(self, ident):
        """Key of ident.  Unused in the package; kept for the reference
        ES-tree in tests/helpers.py, which reads its queue through it."""
        return self._keys[self._pos[ident]]

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
        """Remove and return (id, key) of the minimum.

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
            if pk < key or (pk == key and ids[parent] < ident):
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
                ck, rk = keys[child], keys[right]
                if rk < ck or (rk == ck and ids[right] < ids[child]):
                    child = right
            ck = keys[child]
            if key < ck or (key == ck and ident < ids[child]):
                break
            keys[i] = ck
            ids[i] = ids[child]
            pos[ids[i]] = i
            i = child
        keys[i] = key
        ids[i] = ident
        pos[ident] = i


def heap_insert(heaps, pair, ident, key):
    """Insert ident into heaps[pair], making the heap if pair has none."""
    heap = heaps.get(pair)
    if heap is None:
        heap = heaps[pair] = IndexedHeap()
    heap.insert(ident, key)


def heap_delete(heaps, pair, ident):
    """Delete ident from heaps[pair], dropping the heap once it is empty."""
    heap = heaps[pair]
    heap.delete(ident)
    if not heap:
        del heaps[pair]
