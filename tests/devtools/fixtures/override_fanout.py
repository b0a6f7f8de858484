"""Fixture for the call graph's subclass-override fan-out.

Loaded as ``repro.serve.override_fixture``.  ``FanoutServer.store`` is
annotated with the base class and ``lookup`` runs on a worker thread
(handed to ``asyncio.to_thread``); the call through that attribute must
also reach the subclass override, and what the override calls, two
annotation-driven hops from the hand-off.
"""

import asyncio
from typing import Optional


class BaseStore:
    def load(self, key):
        return key


class PrefixedStore(BaseStore):
    def load(self, key):
        return super().load(self._prefixed(key))

    def _prefixed(self, key):
        return f"p/{key}"


class FanoutServer:
    def __init__(self, store: Optional[BaseStore] = None):
        self.store = store

    def lookup(self, key):
        assert self.store is not None
        return self.store.load(key)

    async def handle(self, key):
        return await asyncio.to_thread(self.lookup, key)
