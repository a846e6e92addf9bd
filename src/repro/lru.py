"""Bounded memo tables for the delay engine.

:class:`LRUCache` is a bounded least-recently-used mapping with hit/miss
counters.  The delay analyzer's caches and the Theorem-1 plan cache
(:class:`repro.envelopes.operations.PlanCache`) are all instances of it;
their counters feed ``DelayAnalyzer.cache_stats()`` and perfbench's
``delay.cache.*`` metrics.

:class:`Interner` maps hashable keys to small ints that are never reused,
so hot dict keys hash one int instead of a nested tuple.

:class:`IdMemo` memoizes one value per live object, keyed by ``id()`` and
guarded by a weak reference.
"""

from __future__ import annotations

import collections
import itertools
import weakref
from typing import Any, Dict, Hashable, Optional, Tuple


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    The previous policy — ``clear()`` everything past the limit — meant one
    long sweep point crossing the threshold silently reverted every later
    probe to cold-cache cost.  LRU eviction keeps the hot working set
    resident; hit/miss/eviction counters feed ``TestLRUCache`` and
    perfbench's ``delay.cache.*`` metrics.
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_data")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("LRU cache needs a positive size")
        self.maxsize = int(maxsize)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "collections.OrderedDict[Hashable, Any]" = (
            collections.OrderedDict()
        )

    def get(self, key: Hashable, default: Any = None) -> Any:
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        while len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class Interner:
    """Hashable keys -> ints, bounded by least-recently-used eviction.

    Ids come from a counter and are never reused: after an eviction the
    same key gets a fresh id, so a table keyed by ids can miss (and
    recompute) but never return another key's entry.
    """

    __slots__ = ("_table", "_next")

    def __init__(self, maxsize: int) -> None:
        self._table = LRUCache(maxsize)
        self._next = itertools.count()

    def __call__(self, key: Hashable) -> int:
        ident: Optional[int] = self._table.get(key)
        if ident is None:
            ident = next(self._next)
            self._table.put(key, ident)
        return ident

    def __len__(self) -> int:
        return len(self._table)


class IdMemo:
    """One value per live object, keyed by ``id(obj)``.

    Each entry holds a weak reference to its object, so an entry whose
    object died (and whose id may since have been reused) never answers.
    Objects are assumed immutable: a value stays valid for its object's
    lifetime.  Dead entries are pruned when the table passes its limit,
    and the limit then becomes twice the live count (at least ``floor``),
    so pruning costs amortized O(1) per insertion however many objects
    stay alive.
    """

    __slots__ = ("floor", "_limit", "_data")

    def __init__(self, floor: int = 8192) -> None:
        if floor < 1:
            raise ValueError("IdMemo needs a positive floor")
        self.floor = int(floor)
        self._limit = self.floor
        self._data: Dict[int, Tuple["weakref.ref[Any]", Any]] = {}

    def get(self, obj: object) -> Optional[Any]:
        entry = self._data.get(id(obj))
        if entry is not None and entry[0]() is obj:
            return entry[1]
        return None

    def put(self, obj: object, value: Any) -> None:
        """Remember ``value`` for ``obj``; objects that cannot be weakly
        referenced are not memoized."""
        try:
            ref = weakref.ref(obj)
        except TypeError:
            return
        data = self._data
        data[id(obj)] = (ref, value)
        if len(data) > self._limit:
            live = {i: e for i, e in data.items() if e[0]() is not None}
            self._data = live
            self._limit = max(self.floor, 2 * len(live))

    def clear(self) -> None:
        self._data.clear()
        self._limit = self.floor

    def __len__(self) -> int:
        return len(self._data)
