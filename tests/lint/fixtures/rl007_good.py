"""RL007 clean fixture: the sanctioned async idioms.

* claim-then-await: the shared handle is nulled *before* the await, so
  no stale read supports a later write;
* re-read after the await: the write rests on a read made after the
  suspension, not before it.
"""


class Service:
    async def stop(self):
        dispatcher = self._dispatcher
        self._dispatcher = None
        if dispatcher is not None:
            await dispatcher

    async def bump(self):
        await self._flush()
        count = self.counters.total
        self.counters.total = count + 1
