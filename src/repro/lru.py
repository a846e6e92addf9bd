"""A bounded least-recently-used mapping with hit/miss counters.

The delay analyzer's caches and the Theorem-1 plan cache
(:class:`repro.envelopes.operations.PlanCache`) are all instances of
:class:`LRUCache`; their counters feed ``DelayAnalyzer.cache_stats()``
and perfbench's ``delay.cache.*`` metrics.
"""

from __future__ import annotations

import collections
from typing import Any, Dict, Hashable


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
