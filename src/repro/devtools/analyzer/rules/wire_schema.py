"""Rule ``wire-schema``: every wire dataclass round-trips completely.

Objects crossing a process or disk boundary (pool transport, result
cache, manifests) travel as JSON dicts.  The runtime's correctness
rests on ``X.from_dict(X.to_dict())`` being the identity for every
dataclass reachable from the serialisation roots (``JobSpec`` and
``RunResult`` by default) -- a field added to a dataclass but forgotten
in ``to_dict`` silently truncates every cached record; one forgotten in
``from_dict`` resurrects records with default values.

Checks, per reachable dataclass:

* both ``to_dict`` and ``from_dict`` are defined;
* every dataclass field appears as a key in the dict literal
  ``to_dict`` returns (``dataclasses.asdict(self)`` counts as complete;
  extra metadata keys like ``schema_version`` are fine);
* every dataclass field appears as a keyword in the constructor call
  ``from_dict`` returns (``cls(**kwargs)`` counts as complete).

Reachability follows field *annotations*: a field typed
``Optional[HyMMConfig]`` pulls ``HyMMConfig`` (and transitively
``DRAMConfig``) into the wire set.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.devtools.analyzer import astutil
from repro.devtools.analyzer.core import Finding, Project, Rule, SourceModule, register


def reachable_wire_classes(
    project: Project, roots: List[str]
) -> Dict[str, Tuple[SourceModule, ast.ClassDef]]:
    """The wire set: root dataclasses plus every dataclass reachable
    through field annotations."""
    dataclasses = project.dataclasses()
    seen: Set[str] = set()
    frontier = [r for r in roots if r in dataclasses]
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        _, cls = dataclasses[name]
        for _, ann in astutil.dataclass_fields(cls):
            for ref in astutil.annotation_names(ann.annotation):
                if ref in dataclasses and ref not in seen:
                    frontier.append(ref)
    return {name: dataclasses[name] for name in sorted(seen)}


@register
class WireSchemaRule(Rule):
    name = "wire-schema"
    description = (
        "dataclasses reachable from the serialisation roots define "
        "to_dict/from_dict with full field coverage"
    )
    default_severity = "error"
    default_options = {"roots": ["JobSpec", "RunResult"]}

    def run(self, project: Project) -> Iterator[Finding]:
        roots = list(self.options["roots"])
        for name, (mod, cls) in reachable_wire_classes(project, roots).items():
            fields = [f for f, _ in astutil.dataclass_fields(cls)]
            methods = astutil.methods_of(cls)
            to_dict = methods.get("to_dict")
            from_dict = methods.get("from_dict")
            if to_dict is None:
                yield self.finding(
                    project, mod, cls,
                    f"wire dataclass {name} has no to_dict(); it is "
                    f"serialised across the process/cache boundary",
                    symbol=f"{name}.to_dict:missing",
                )
            else:
                yield from self._check_to_dict(project, mod, name, to_dict, fields)
            if from_dict is None:
                yield self.finding(
                    project, mod, cls,
                    f"wire dataclass {name} has no from_dict(); cached "
                    f"records of it cannot be rebuilt",
                    symbol=f"{name}.from_dict:missing",
                )
            else:
                yield from self._check_from_dict(
                    project, mod, name, from_dict, fields
                )

    # ------------------------------------------------------------------
    def _check_to_dict(
        self, project, mod, cls_name: str, fn: ast.FunctionDef, fields: List[str]
    ) -> Iterator[Finding]:
        complete, keys = _returned_keys(fn)
        if complete:
            return
        missing = [f for f in fields if f not in keys]
        if missing:
            yield self.finding(
                project, mod, fn,
                f"{cls_name}.to_dict() omits field(s) "
                f"{', '.join(missing)}; serialised records would silently "
                f"drop them",
                symbol=f"{cls_name}.to_dict:{','.join(missing)}",
            )

    def _check_from_dict(
        self, project, mod, cls_name: str, fn: ast.FunctionDef, fields: List[str]
    ) -> Iterator[Finding]:
        complete, kwargs = _constructed_kwargs(fn, cls_name)
        if complete:
            return
        missing = [f for f in fields if f not in kwargs]
        if missing:
            yield self.finding(
                project, mod, fn,
                f"{cls_name}.from_dict() never passes field(s) "
                f"{', '.join(missing)}; deserialised objects would get "
                f"defaults instead of the recorded values",
                symbol=f"{cls_name}.from_dict:{','.join(missing)}",
            )


def _returned_keys(fn: ast.FunctionDef) -> Tuple[bool, Set[str]]:
    """(complete, literal keys) across every return in ``to_dict``.

    ``complete`` is True when any return is ``asdict(...)``, contains a
    ``**``-splat, or is a non-literal expression the checker cannot see
    through (benefit of the doubt; the round-trip tests catch those).
    """
    keys: Set[str] = set()
    saw_literal = False
    for node in ast.walk(fn):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        value = node.value
        if isinstance(value, ast.Dict):
            saw_literal = True
            for key in value.keys:
                if key is None:  # **splat
                    return True, set()
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
        else:
            return True, set()
    return (not saw_literal), keys


def _constructed_kwargs(fn: ast.FunctionDef, cls_name: str) -> Tuple[bool, Set[str]]:
    """(complete, keyword names) of the constructor call ``from_dict``
    builds -- ``cls(...)`` or ``ClassName(...)``."""
    kwargs: Set[str] = set()
    saw_call = False
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        callee = astutil.dotted_name(node.func)
        if callee not in ("cls", cls_name):
            continue
        saw_call = True
        for kw in node.keywords:
            if kw.arg is None:  # cls(**kwargs)
                return True, set()
            kwargs.add(kw.arg)
        if node.args:
            # Positional construction: cannot attribute args to fields.
            return True, set()
    return (not saw_call), kwargs
