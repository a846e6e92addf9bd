"""RL007 must-flag fixture: a minimal await-spanning unguarded mutation.

Linted under a virtual path inside ``repro/service``.  The duplicate
check reads shared state, the ``await`` yields the event loop with no
lock held (any other task may admit the same id meanwhile), and the
write then acts on the stale read.
"""

import asyncio


class Service:
    async def admit(self, conn_id):
        if conn_id in self.state.active:
            return None
        await asyncio.sleep(0)
        self.state.active.add(conn_id)
        return conn_id

    async def bump(self):
        count = self.counters.total
        await self._flush()
        self.counters.total = count + 1
