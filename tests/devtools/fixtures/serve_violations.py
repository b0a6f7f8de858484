"""Fixture for transitive-blocking's direct check: blocking calls in async code.

Loaded by the analyzer tests under the module name
``repro.serve.fixture`` (in scope) and ``repro.runtime.fixture``
(out of scope, must be clean).  Never imported.
"""

import json
import os
import subprocess
import time
from pathlib import Path
from time import sleep as nap


async def bad_handler(path):
    time.sleep(0.1)  # VIOLATION: time.sleep in async
    nap(0.1)  # VIOLATION: aliased time.sleep
    with open(path) as fh:  # VIOLATION: sync open in async
        doc = json.load(fh)  # VIOLATION: json.load in async
    subprocess.run(["true"])  # VIOLATION: subprocess in async
    os.replace(path, path)  # VIOLATION: blocking os call in async
    text = Path(path).read_text()  # VIOLATION: Path I/O in async
    return doc, text


async def good_handler(loop, path):
    import asyncio

    await asyncio.sleep(0.1)  # fine: async sleep
    payload = json.dumps({"ok": True})  # fine: pure CPU

    def worker():  # nested sync def: a to_thread target, exempt
        time.sleep(0.1)
        with open(path) as fh:
            return json.load(fh)

    doc = await asyncio.to_thread(worker)
    return payload, doc


def sync_helper(path):
    """Module-level sync function: out of the rule's reach."""
    time.sleep(0.0)
    with open(path) as fh:
        return json.load(fh)


async def vocabulary_handler(cfg, path):
    """The direct check uses the effect model's blocking vocabulary."""
    import shutil

    shutil.rmtree(path)  # VIOLATION: shutil is blocking file I/O
    return cfg.read_text()  # fine: `cfg` is not a path-like receiver
