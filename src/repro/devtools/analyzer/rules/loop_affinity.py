"""Rule ``loop-affinity``: thread-side writes to loop-shared state.

PR 6's server deliberately splits work across two worlds: the asyncio
event loop owns the connection handlers, the single-flight table and
the metrics payloads, while cache probes and simulation batches run on
worker threads (``asyncio.to_thread``, the executor pool).  The
contract at the boundary is that worker-thread code either works on
private data or marshals back onto the loop with
``loop.call_soon_threadsafe`` -- a bare ``self.hits += 1`` from a
worker while the loop concurrently renders ``stats()`` is a data race
(``+=`` is a read-modify-write, not atomic), and the kind that stays
invisible until a sweep hammers the server from many clients.

The rule cross-references both worlds over the call graph:

1. *thread side*: every function in the closure of the scope's
   ``to_thread`` / executor / ``Thread(target=...)`` hand-offs
   (:meth:`CallGraph.thread_witness` -- ``loopsafe`` references and
   async callees are excluded by construction).  In each, collect
   attribute stores rooted at ``self`` (``self.hits += 1``,
   ``self._index[k] = v``, ``self.stats.corrupt += 1``) that are not
   under a ``with <...lock...>:`` block;
2. *loop side*: every function reachable from an ``async def`` in
   scope over plain call edges plus ``call_soon_threadsafe``
   references.  In each method, collect the ``self.<attr>`` slots it
   loads or stores.

A thread-side store whose ``(class, attribute)`` -- matched across the
class hierarchy, so a write in a base-class method meets a read in a
subclass method -- is also touched
loop-side is a finding at the store, with the thread chain from the
hand-off in the message.

Two sanctioned patterns pass by construction: mutations under a
``with self._lock:`` (any context manager whose name contains "lock"),
and callbacks hopped through ``loop.call_soon_threadsafe`` (those are
``loopsafe`` edges, never thread-reachable).  Mutations rooted at
non-``self`` parameters are out of scope here -- without an owning
class there is no loop-side slot to match against.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.analyzer.astutil import own_nodes, self_slot, store_targets
from repro.devtools.analyzer.callgraph import (
    KIND_CALL,
    KIND_LOOPSAFE,
    CallGraph,
    FunctionInfo,
    get_callgraph,
)
from repro.devtools.analyzer.core import Finding, Project, Rule, register


@register
class LoopAffinityRule(Rule):
    name = "loop-affinity"
    description = (
        "state shared with the event loop must not be mutated from "
        "worker-thread-reachable code without a lock or "
        "call_soon_threadsafe"
    )
    default_severity = "error"
    default_options = {
        "scope": ["repro.serve"],
    }

    def run(self, project: Project) -> Iterator[Finding]:
        scope = tuple(self.options["scope"])
        graph = get_callgraph(project)
        witness = graph.thread_witness(*scope)
        if not witness:
            return
        loop_touches = _loop_side_touches(graph, scope)
        if not loop_touches:
            return
        for qname in sorted(witness):
            info = graph.functions.get(qname)
            if info is None or info.class_name is None:
                continue
            owner = _owning_class(graph, info)
            if owner is None:
                continue
            related = graph.related_classes(owner)
            for attr, node, locked in _self_mutations(info.node):
                if locked:
                    continue
                reader = _loop_reader(loop_touches, related, attr)
                if reader is None:
                    continue
                chain = " -> ".join(
                    graph.short_name(q) for q in graph.thread_chain(qname, witness)
                )
                yield self.finding(
                    project, info.module, node,
                    f"`self.{attr}` is mutated on a worker thread "
                    f"({chain}) while the event loop touches it via "
                    f"`{graph.short_name(reader)}`; guard both sides with a "
                    "lock or marshal the update through "
                    "`loop.call_soon_threadsafe`",
                    symbol=f"{info.class_name}.{attr}",
                )


def _owning_class(graph: CallGraph, info: FunctionInfo) -> Optional[str]:
    """Qname of the class whose method table holds ``info``."""
    for cls in graph.classes.values():
        if cls.methods.get(info.name) == info.qname:
            return cls.qname
    return None


def _loop_side_touches(
    graph: CallGraph, scope: Tuple[str, ...]
) -> Dict[Tuple[str, str], str]:
    """(class qname, attr) -> one loop-side function touching it."""
    reachable: Set[str] = {i.qname for i in graph.async_functions(*scope)}
    worklist = list(reachable)
    while worklist:
        qname = worklist.pop()
        for site in graph.sites(qname):
            if site.kind not in (KIND_CALL, KIND_LOOPSAFE):
                continue
            if site.callee is not None and site.callee not in reachable:
                reachable.add(site.callee)
                worklist.append(site.callee)
    touches: Dict[Tuple[str, str], str] = {}
    for qname in sorted(reachable):
        info = graph.functions.get(qname)
        if info is None or info.class_name is None:
            continue
        owner = _owning_class(graph, info)
        if owner is None:
            continue
        for attr in _self_attrs(info.node):
            touches.setdefault((owner, attr), qname)
    return touches


def _loop_reader(
    touches: Dict[Tuple[str, str], str], related: Set[str], attr: str
) -> Optional[str]:
    for cls in related:
        reader = touches.get((cls, attr))
        if reader is not None:
            return reader
    return None


def _self_attrs(fn: ast.AST) -> Set[str]:
    """First-level ``self.<attr>`` slots loaded or stored in ``fn``'s
    own body (nested defs excluded -- they are separate graph nodes)."""
    attrs: Set[str] = set()
    for node in own_nodes(fn):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            attrs.add(node.attr)
    return attrs


def _self_mutations(fn: ast.AST) -> Iterator[Tuple[str, ast.AST, bool]]:
    """(attr, node, under_lock) for each ``self``-rooted store.

    The attribute is the *first-level* slot: ``self.stats.corrupt += 1``
    mutates the object held in slot ``stats``.
    """
    yield from _walk_mutations(list(ast.iter_child_nodes(fn)), False)


def _walk_mutations(
    nodes: List[ast.AST], locked: bool
) -> Iterator[Tuple[str, ast.AST, bool]]:
    for node in nodes:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                   ast.Lambda)
        ):
            continue
        if isinstance(node, ast.With):
            inner = locked or any(
                _is_lockish(item.context_expr) for item in node.items
            )
            yield from _walk_mutations(list(node.body), inner)
            continue
        for target in store_targets(node):
            attr = self_slot(target)
            if attr is not None:
                yield attr, node, locked
        yield from _walk_mutations(list(ast.iter_child_nodes(node)), locked)


def _is_lockish(expr: ast.AST) -> bool:
    if isinstance(expr, ast.Call):
        expr = expr.func
    text = ""
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute):
            text += node.attr.lower()
        elif isinstance(node, ast.Name):
            text += node.id.lower()
    return "lock" in text or "mutex" in text