"""Rule ``batch-api``: kernels must issue engine traffic in batches.

The timing engine has two tiers of primitives:

* scalar per-element calls (``mac_load``, ``load``, ``store``,
  ``accumulate_store``, ``mac_stream_load``, ``rmw``) -- the reference
  model, one Python frame per simulated access;
* vectorised batch calls (``mac_load_batch``, ``store_batch``, ...)
  that take a numpy address array and amortise the interpreter
  overhead across the whole batch.

A scalar primitive invoked inside a ``for``/``while`` loop in kernel or
baseline code re-introduces exactly the per-access overhead the batch
API exists to remove -- and it silently bypasses the
scalar-vs-batched equivalence tests, which only exercise code routed
through the batch entry points.  This rule flags every such call site.

Loop-invariant uses (a single scalar call *outside* any loop, e.g. a
one-off flush address) are deliberately not flagged, and neither are
the ``*_batch`` variants or non-engine methods that happen to share a
name in other namespaces: only attribute calls whose final attribute
matches a scalar primitive name, lexically nested inside a loop body,
are reported.

Scope: the compute kernels and the baseline accelerators
(``options["scope"]``).  The engine's own reference implementations of
the batch primitives (``repro.sim.engine``) legitimately loop over
scalar calls and are outside the scope list.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.analyzer.astutil import dotted_name
from repro.devtools.analyzer.core import Finding, Project, Rule, register

#: Per-element engine primitives that have a batched counterpart.
SCALAR_PRIMITIVES = {
    "mac_load",
    "mac_stream_load",
    "load",
    "store",
    "accumulate_store",
    "rmw",
}


@register
class BatchApiRule(Rule):
    name = "batch-api"
    description = (
        "no per-element engine primitive calls inside loops in kernel or "
        "baseline code; use the *_batch API"
    )
    default_severity = "error"
    default_options = {
        "scope": [
            "repro.hymm.kernels",
            "repro.baselines",
        ],
    }

    def run(self, project: Project) -> Iterator[Finding]:
        scope = tuple(self.options["scope"])
        for mod in project.in_package(*scope):
            yield from self._walk(project, mod, mod.tree, in_loop=False)

    # ------------------------------------------------------------------
    def _walk(self, project, mod, node: ast.AST, in_loop: bool) -> Iterator[Finding]:
        """Depth-first walk tracking lexical loop nesting.

        A nested function/lambda defined inside a loop body starts a
        fresh ``in_loop=False`` context only for its *signature*; its
        body keeps ``in_loop=True`` because closures created in loops
        (e.g. per-entry callbacks) still run once per iteration in the
        kernels' usage pattern -- and a false positive there is an easy
        inline ``allow`` away.
        """
        for child in ast.iter_child_nodes(node):
            child_in_loop = in_loop
            if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                child_in_loop = True
            elif isinstance(child, ast.Call):
                finding = self._check_call(project, mod, child, in_loop)
                if finding is not None:
                    yield finding
            yield from self._walk(project, mod, child, child_in_loop)

    def _check_call(self, project, mod, node: ast.Call, in_loop: bool):
        if not in_loop:
            return None
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        name = func.attr
        if name not in SCALAR_PRIMITIVES:
            return None
        # Only engine-shaped receivers: `engine.load(...)`,
        # `ctx.engine.store(...)`, `self.engine.rmw(...)`.  A plain
        # `list.store(...)` on an unrelated object would be noise; the
        # kernels always reach the engine through a name containing
        # "engine".
        receiver = dotted_name(func.value)
        if receiver is None or "engine" not in receiver.lower():
            return None
        yield_name = f"{receiver}.{name}"
        return self.finding(
            project, mod, node,
            f"per-element engine primitive {yield_name}() inside a loop: "
            f"issue the whole address array through {name}_batch() so the "
            f"batched fast path (and its equivalence tests) cover it",
            symbol=yield_name,
        )
