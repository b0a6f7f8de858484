"""Rule ``stats-conservation``: cycle accounting stays conserved.

The paper's evaluation (Figs. 7-11) is derived entirely from
:class:`repro.sim.stats.SimStats` counters.  Two ways that accounting
silently rots:

* a counter field is declared (and serialised, and reported) but no
  simulator code ever writes it -- it reads as a legitimate zero
  forever.  Every non-derived field on ``SimStats`` must have at least
  one write site in the simulator packages (``repro.sim`` /
  ``repro.hymm`` / ``repro.baselines``), where a write is an
  assignment, an augmented assignment, a subscript store, or an
  in-place mutator call (``update``/``append``/``extend``/``add``) --
  anywhere except ``SimStats``'s own bulk-copy methods (``merge``,
  ``to_dict``/``from_dict``, ``copy``/``delta_since``),
  which touch every field by construction and would make the check
  vacuous;
* a breakdown is keyed with a tag outside the declared traffic-tag
  vocabulary (``TRAFFIC_TAGS`` in ``repro.sim.stats``) -- the Fig. 11
  stacking would grow a phantom component.  Every *literal* tag (a
  string subscript on a Counter field, or a literal ``tag=`` argument)
  must be in the declared set.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.devtools.analyzer import astutil
from repro.devtools.analyzer.core import Finding, Project, Rule, SourceModule, register

#: Mutator method names that count as writes when called on a field.
MUTATORS = {"update", "append", "extend", "add", "subtract", "clear", "insert"}

#: SimStats methods whose writes do not count (bulk copies by design).
EXEMPT_METHODS = {
    "merge", "to_dict", "from_dict", "__init__",
    "copy", "delta_since",
}


@register
class StatsConservationRule(Rule):
    name = "stats-conservation"
    description = (
        "every SimStats counter is written by simulator code, and every "
        "literal traffic tag is in the declared vocabulary"
    )
    default_severity = "error"
    default_options = {
        "stats_class": "SimStats",
        "tags_constant": "TRAFFIC_TAGS",
        "scope": ["repro.sim", "repro.hymm", "repro.baselines"],
    }

    def run(self, project: Project) -> Iterator[Finding]:
        located = project.dataclasses().get(self.options["stats_class"])
        if located is None:
            return
        stats_mod, stats_cls = located
        fields = astutil.dataclass_fields(stats_cls)
        counter_fields = {
            name for name, ann in fields
            if "Counter" in astutil.annotation_names(ann.annotation)
        }
        tags = self._declared_tags(stats_mod)

        writes: Set[str] = set()
        tag_findings: List[Finding] = []
        scope = tuple(self.options["scope"])
        field_names = {name for name, _ in fields}
        for mod in project.in_package(*scope):
            exempt = astutil.methods_named(mod.classes, stats_cls.name, EXEMPT_METHODS)
            for node in astutil.walk_excluding(mod.tree, exempt):
                writes |= _written_fields(node, field_names)
                if tags is not None:
                    tag_findings.extend(
                        self._check_tags(project, mod, node, counter_fields, tags)
                    )

        for name, ann in fields:
            if name not in writes:
                yield self.finding(
                    project, stats_mod, ann,
                    f"SimStats.{name} is declared (and serialised) but no "
                    f"simulator code in {'/'.join(scope)} ever writes it; "
                    f"it will read as a legitimate zero forever",
                    symbol=f"{stats_cls.name}.{name}:unwritten",
                )
        yield from tag_findings

    # ------------------------------------------------------------------
    def _declared_tags(self, stats_mod: SourceModule) -> Optional[Set[str]]:
        """The ``TRAFFIC_TAGS`` tuple/set literal, if declared."""
        constant = self.options["tags_constant"]
        for node in stats_mod.tree.body:
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            for tgt in targets:
                if isinstance(tgt, ast.Name) and tgt.id == constant:
                    if isinstance(value, ast.Call):
                        # frozenset({...}) / tuple([...])
                        value = value.args[0] if value.args else value
                    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                        return {
                            e.value
                            for e in value.elts
                            if isinstance(e, ast.Constant)
                            and isinstance(e.value, str)
                        }
        return None

    def _check_tags(
        self,
        project: Project,
        mod: SourceModule,
        node: ast.AST,
        counter_fields: Set[str],
        tags: Set[str],
    ) -> Iterator[Finding]:
        # stats.buffer_hits["bogus"] -- literal subscript on a counter.
        if isinstance(node, ast.Subscript):
            value = node.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr in counter_fields
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)
                and node.slice.value not in tags
            ):
                yield self.finding(
                    project, mod, node,
                    f"undeclared traffic tag {node.slice.value!r} on "
                    f"{value.attr}; declare it in TRAFFIC_TAGS or use an "
                    f"existing component",
                    symbol=f"tag:{node.slice.value}",
                )
        # engine.mac_load(addr, cls, tag="bogus") -- literal tag kwarg.
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                if (
                    kw.arg == "tag"
                    and isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, str)
                    and kw.value.value not in tags
                ):
                    yield self.finding(
                        project, mod, kw.value,
                        f"undeclared traffic tag {kw.value.value!r} passed "
                        f"as tag=; declare it in TRAFFIC_TAGS or use an "
                        f"existing component",
                        symbol=f"tag:{kw.value.value}",
                    )


def _written_fields(node: ast.AST, field_names: Set[str]) -> Set[str]:
    """Field names this single statement/expression node writes."""
    written: Set[str] = set()

    def attr_field(expr: ast.AST) -> Optional[str]:
        if isinstance(expr, ast.Attribute) and expr.attr in field_names:
            return expr.attr
        return None

    if isinstance(node, (ast.Assign, ast.AugAssign)):
        for tgt in astutil.store_targets(node):
            name = attr_field(tgt)
            if name is None and isinstance(tgt, ast.Subscript):
                name = attr_field(tgt.value)
            if name is not None:
                written.add(name)
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATORS:
            name = attr_field(func.value)
            if name is not None:
                written.add(name)
    return written
