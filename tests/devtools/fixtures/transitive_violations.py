"""Fixture for the ``transitive-blocking`` rule: blocking calls hidden
one ``def`` deep, which a check of each async body on its own would
miss.

Loaded as ``repro.serve.transitive_fixture``.  No async body here
contains a *direct* blocking call -- the rule's direct check reports
nothing on this module -- yet two handlers freeze the event loop
through sync helpers.  The offloaded and pure variants are clean.
"""

import asyncio
import json
import time


def nap_helper():
    time.sleep(0.01)


def deep_helper():
    nap_helper()


def read_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def pure_helper(value):
    return value * 2


class TransitiveServer:
    async def handle_sleep(self, request):
        deep_helper()  # VIOLATION: sleeps, two calls deep
        return request

    async def handle_config(self, path):
        return read_config(path)  # VIOLATION: blocks-io

    async def handle_offloaded(self, path):
        # Clean: the same helper, discharged onto a worker thread.
        return await asyncio.to_thread(read_config, path)

    async def handle_pure(self, value):
        return pure_helper(value)  # clean: no blocking effects
