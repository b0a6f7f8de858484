"""Rule ``transitive-blocking``: no blocking work on serve's event loop.

The sweep server promises that its event loop never blocks: every
cache probe and simulation batch crosses into a worker thread via
``asyncio.to_thread``, so a slow disk or a long-running job cannot
stall the connection handlers, the single-flight table, or the
``/status`` follower streams.  One stray ``time.sleep`` or synchronous
file read on the loop silently freezes every connected client for its
duration -- the kind of bug that only shows up under load.

The rule reports two shapes, both inside an ``async def`` in scope
(``repro.serve`` by default):

* **direct** -- a ``sleeps``, ``blocks-io`` or ``spawns-subprocess``
  site of the effect model
  (:func:`repro.devtools.analyzer.effects.iter_sites`) written in the
  handler's own body: ``time.sleep`` (use ``asyncio.sleep``),
  synchronous file I/O (``open``, ``json.load``, ``os.replace``,
  ``Path.read_text``, ...), anything rooted at ``subprocess``.  Only
  the *nearest* enclosing function matters: a synchronous ``def`` or a
  ``lambda`` nested inside an ``async def`` is exempt, because that is
  exactly the shape of an ``asyncio.to_thread`` target.  Names resolve
  through the module's imports, so ``from time import sleep as nap``
  does not evade the rule.
* **through a helper** -- a resolved ``call`` edge to a sync project
  function whose inferred effect set contains a blocking effect.  The
  helper itself is legal (sync code may block), so the bug only exists
  at the async call site, and the message carries the full witness
  chain down to the operation that actually blocks::

      sync call to `_probe` blocks the event loop [blocks-io]:
      _handle_submit -> _probe -> ResultCache.load -> open

What does *not* fire, by construction:

* handing the same helper to ``asyncio.to_thread(helper, ...)`` -- a
  ``thread`` reference edge, not a ``call`` edge, and exactly the
  sanctioned discharge of the effect;
* a ``loop.call_soon_threadsafe(cb)`` hand-off (``loopsafe`` edge);
* calls to *async* callees: if the awaited coroutine blocks somewhere,
  the finding belongs at the frame that owns the blocking call, and
  this rule reports it there -- flagging every ``await`` up the stack
  would bury the signal.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.analyzer.callgraph import get_callgraph
from repro.devtools.analyzer.core import Finding, Project, Rule, register
from repro.devtools.analyzer.effects import (
    BLOCKING_EFFECTS,
    BLOCKS_IO,
    SLEEPS,
    SPAWNS_SUBPROCESS,
    effectful_calls,
    module_sites,
)

#: How to move each blocking effect off the loop.
ADVICE = {
    SLEEPS: "use `await asyncio.sleep(...)`",
    BLOCKS_IO: "move file I/O into a worker via `asyncio.to_thread`",
    SPAWNS_SUBPROCESS: "run subprocesses in a worker thread",
}


@register
class TransitiveBlockingRule(Rule):
    name = "transitive-blocking"
    description = (
        "async serve handlers must not block the event loop, directly "
        "(time.sleep, sync file I/O, subprocess) or through a sync "
        "helper; the finding message shows the call chain down to the "
        "blocking operation"
    )
    default_severity = "error"
    default_options = {
        "scope": ["repro.serve"],
    }

    def run(self, project: Project) -> Iterator[Finding]:
        scope = tuple(self.options["scope"])
        for mod in project.in_package(*scope):
            for site in module_sites(project, mod):
                handler = site.scope
                if site.effect in BLOCKING_EFFECTS and isinstance(
                    handler, ast.AsyncFunctionDef
                ):
                    yield self.finding(
                        project, mod, site.node,
                        f"blocking call {site.target}(...) inside async "
                        f"handler `{handler.name}`: {ADVICE[site.effect]}",
                        symbol=site.target,
                    )
        for info, call, callee, effect, chain in effectful_calls(
            project,
            get_callgraph(project).async_functions(*scope),
            BLOCKING_EFFECTS,
            skip=lambda fn: fn.is_async,
        ):
            yield self.finding(
                project, info.module, call.node,
                f"sync call to `{callee.name}` blocks the event "
                f"loop [{effect}]: {info.name} -> {chain}; run it "
                "in a worker via `asyncio.to_thread`",
                symbol=f"{info.name}->{callee.name}:{effect}",
            )
