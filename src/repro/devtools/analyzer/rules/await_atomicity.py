"""Rule ``await-atomicity``: check-then-act split across an ``await``.

Single-threaded asyncio removes data races but not *atomicity* bugs:
every ``await`` is a point where any other coroutine may run, so a
read of shared server state that is validated *before* an ``await``
can be stale by the time the write lands *after* it.  The canonical
shape is the single-flight registry race::

    entry = self._jobs.get(fingerprint)
    if entry is None:                    # check
        record = await self._probe(...)  # suspension point
        self._jobs[fingerprint] = entry  # act -- too late: a second
                                         # identical submit already
                                         # passed the same check

PR 6's server avoids this by registering the entry *before* its first
``await`` (see ``SweepServer._handle_submit``); this rule pins that
discipline down for every ``async def`` in scope.

Mechanics: within one async function (own body only -- nested defs are
separate graph nodes), the rule tracks, in source order,

* **checks** -- ``if`` / ``while`` / ternary tests that read a
  ``self.<attr>`` slot, directly or through a local alias
  (``prior = self._jobs.get(fp)`` ... ``if prior is None``);
* **suspension points** -- every ``await``;
* **acts** -- stores to the same slot (``self._jobs[fp] = e``,
  ``self.counter = n + 1``, ``self.x += 1``), including one level of
  interprocedural sight: ``self._register(entry)`` is an act on every
  slot the resolved method assigns.

A finding is an act whose *most recent* check of the same slot has an
``await`` between them.  Re-validating after the suspension therefore
clears the finding -- the fix the message suggests when hoisting the
act above the first ``await`` is not possible.  ``+=`` on its own (no
separate check) is not flagged: without interleaving threads an
``AugAssign`` executes atomically between suspension points.
"""

from __future__ import annotations

import ast
import bisect
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.analyzer.astutil import own_nodes, self_slot, store_targets
from repro.devtools.analyzer.callgraph import (
    KIND_CALL,
    CallGraph,
    FunctionInfo,
    get_callgraph,
)
from repro.devtools.analyzer.core import Finding, Project, Rule, register

Pos = Tuple[int, int]


@register
class AwaitAtomicityRule(Rule):
    name = "await-atomicity"
    description = (
        "shared server state checked before an await must not be "
        "written after it without re-validation (single-flight race)"
    )
    default_severity = "error"
    default_options = {
        "scope": ["repro.serve"],
    }

    def run(self, project: Project) -> Iterator[Finding]:
        scope = tuple(self.options["scope"])
        graph = get_callgraph(project)
        for info in graph.async_functions(*scope):
            yield from self._check_function(project, graph, info)

    def _check_function(
        self, project: Project, graph: CallGraph, info: FunctionInfo
    ) -> Iterator[Finding]:
        awaits: List[Pos] = []
        checks: Dict[str, List[Pos]] = {}
        acts: List[Tuple[str, ast.AST, Pos]] = []
        aliases: Dict[str, str] = {}
        site_stores = _site_stores(graph, info)

        for node in sorted(own_nodes(info.node), key=_pos):
            pos = _pos(node)
            if isinstance(node, ast.Await):
                awaits.append(pos)
            elif isinstance(node, (ast.If, ast.While, ast.IfExp)):
                for key in _keys_in_expr(node.test, aliases):
                    checks.setdefault(key, []).append(_pos(node.test))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                for target in store_targets(node):
                    key = self_slot(target)
                    if key is not None:
                        acts.append((key, node, pos))
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                ):
                    _bind_alias(aliases, node.targets[0].id, node.value)
            elif isinstance(node, ast.Call):
                for key in site_stores.get(id(node), ()):
                    acts.append((key, node, pos))

        if not awaits:
            return
        awaits.sort()
        reported: Set[Tuple[int, str]] = set()
        for key, node, act_pos in acts:
            last_check = _last_before(checks.get(key, []), act_pos)
            if last_check is None:
                continue
            split = _first_between(awaits, last_check, act_pos)
            if split is None:
                continue
            if (id(node), key) in reported:
                continue
            reported.add((id(node), key))
            yield self.finding(
                project, info.module, node,
                f"`self.{key}` is checked on line {last_check[0]} but "
                f"written here, across the await on line {split[0]} -- "
                "another coroutine may pass the same check in between; "
                "act before the first await or re-validate after it",
                symbol=f"{info.name}:{key}",
            )


def _site_stores(
    graph: CallGraph, info: FunctionInfo
) -> Dict[int, Set[str]]:
    """Call-node id -> self slots stored by the resolved ``self.meth``
    callee (one interprocedural level: a method of the same object)."""
    stores: Dict[int, Set[str]] = {}
    for site in graph.sites(info.qname):
        if site.kind != KIND_CALL or site.callee is None:
            continue
        if site.target is None or not site.target.startswith("self."):
            continue
        if site.target.count(".") != 1:  # self.meth only, not self.x.meth
            continue
        callee = graph.functions.get(site.callee)
        if callee is None:
            continue
        slots = _stored_slots(callee.node)
        if slots:
            stores[id(site.node)] = slots
    return stores


def _stored_slots(fn: ast.AST) -> Set[str]:
    slots = (self_slot(t) for node in own_nodes(fn) for t in store_targets(node))
    return {slot for slot in slots if slot is not None}


def _pos(node: ast.AST) -> Pos:
    return (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))


def _loaded_slot(expr: ast.AST) -> Optional[str]:
    """Slot read by ``self.a`` / ``self.a[...]`` / ``self.a.get(...)``."""
    return self_slot(expr.func if isinstance(expr, ast.Call) else expr)


def _bind_alias(aliases: Dict[str, str], var: str, value: ast.AST) -> None:
    slot = _loaded_slot(value)
    if slot is not None:
        aliases[var] = slot
    elif isinstance(value, ast.Name) and value.id in aliases:
        aliases[var] = aliases[value.id]
    else:
        aliases.pop(var, None)


def _keys_in_expr(expr: ast.AST, aliases: Dict[str, str]) -> Set[str]:
    keys: Set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                keys.add(node.attr)
        elif isinstance(node, ast.Name) and node.id in aliases:
            keys.add(aliases[node.id])
    return keys


def _last_before(positions: List[Pos], pos: Pos) -> Optional[Pos]:
    idx = bisect.bisect_left(sorted(positions), pos)
    if idx == 0:
        return None
    return sorted(positions)[idx - 1]


def _first_between(
    sorted_positions: List[Pos], lo: Pos, hi: Pos
) -> Optional[Pos]:
    idx = bisect.bisect_right(sorted_positions, lo)
    if idx < len(sorted_positions) and sorted_positions[idx] < hi:
        return sorted_positions[idx]
    return None
