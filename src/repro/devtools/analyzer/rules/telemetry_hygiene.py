"""Rule ``telemetry-hygiene``: metrics stay cheap, named, and bounded.

The :mod:`repro.telemetry` registry protects scrape cost and export
sanity with runtime checks (name grammar, label-cardinality cap), but
the failure modes worth preventing are *static*: a metric name built
with an f-string explodes the registry one time series per request; a
name registered from two call sites either collides at import or --
worse -- silently splits its traffic between a per-server and the
process-global registry.  Three contracts, checked at registration
sites (calls to ``counter`` / ``gauge`` / ``histogram`` on a receiver
whose dotted name mentions ``registry``):

* **Literal names.**  The metric name argument must be a plain string
  literal -- never an f-string, concatenation, or variable -- matching
  the exposition grammar and carrying the repo prefix (``repro_`` by
  default), so ``grep`` finds every series and the registry's conflict
  detection actually fires on collisions.
* **One registration site per name.**  Each literal name may be
  registered from exactly one call site project-wide.  Get-or-create
  semantics make double registration *work* at runtime, which is
  exactly why it needs a static check: two sites drift apart (one
  edits the help text or buckets) and the second silently loses.
* **Bounded label cardinality.**  ``labelnames`` must be a literal
  tuple/list of at most ``max_label_names`` literal strings, and
  ``.labels(...)`` call sites anywhere in scope must not build label
  values inline from f-strings or string concatenation -- label values
  must come from bounded categorical sets (status names, phase modes),
  not identifiers.

Scope is the whole ``repro`` tree; the runtime cap
(:data:`repro.telemetry.metrics.MAX_LABEL_CARDINALITY`) remains the
backstop for dynamic values the static pass cannot see.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Tuple

from repro.devtools.analyzer.astutil import call_argument, dotted_name
from repro.devtools.analyzer.core import Finding, Project, Rule, register

#: Registry factory methods that create (or get) an instrument.
REGISTRATION_METHODS = {"counter", "gauge", "histogram"}

#: Prometheus metric-name grammar (mirrors the runtime check).
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


@register
class TelemetryHygieneRule(Rule):
    name = "telemetry-hygiene"
    description = (
        "metric names are literal, prefixed, registered from one site, "
        "with bounded literal label sets and no inline-built label values"
    )
    default_severity = "error"
    default_options = {
        "scope": ["repro"],
        #: Required metric-name prefix ("" disables the check).
        "prefix": "repro_",
        #: Maximum number of label names per instrument.
        "max_label_names": 4,
    }

    def run(self, project: Project) -> Iterator[Finding]:
        scope = tuple(self.options["scope"])
        prefix = str(self.options["prefix"])
        max_labels = int(self.options["max_label_names"])
        #: literal name -> (display path, line) of its first registration.
        seen: Dict[str, Tuple[str, int]] = {}
        for mod in project.in_package(*scope):
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr == "labels":
                    yield from self._check_labels_call(project, mod, node)
                    continue
                if func.attr not in REGISTRATION_METHODS:
                    continue
                receiver = dotted_name(func.value)
                if receiver is None or "registry" not in receiver.lower():
                    continue
                yield from self._check_registration(
                    project, mod, node, prefix, max_labels, seen
                )

    # ------------------------------------------------------------------
    def _check_registration(
        self,
        project: Project,
        mod,
        node: ast.Call,
        prefix: str,
        max_labels: int,
        seen: Dict[str, Tuple[str, int]],
    ) -> Iterator[Finding]:
        method = node.func.attr  # type: ignore[union-attr]
        name_node = call_argument(node, 0, "name")
        if name_node is None:
            yield self.finding(
                project, mod, node,
                f"registry.{method}(...) without a metric name",
                symbol=f"{method}:missing-name",
            )
            return
        literal = _literal_str(name_node)
        if literal is None:
            how = (
                "an f-string"
                if isinstance(name_node, ast.JoinedStr)
                else "a computed expression"
            )
            yield self.finding(
                project, mod, node,
                f"metric name passed to registry.{method}(...) is {how}; "
                f"names must be plain string literals so the series set "
                f"is static and greppable",
                symbol=f"{method}:dynamic-name",
            )
            return
        if not _NAME_RE.match(literal):
            yield self.finding(
                project, mod, node,
                f"metric name {literal!r} violates the exposition grammar "
                f"[a-zA-Z_:][a-zA-Z0-9_:]*",
                symbol=literal,
            )
        elif prefix and not literal.startswith(prefix):
            yield self.finding(
                project, mod, node,
                f"metric name {literal!r} lacks the {prefix!r} prefix "
                f"every exported series carries",
                symbol=literal,
            )
        first = seen.get(literal)
        if first is None:
            seen[literal] = (project.display_path(mod.path), node.lineno)
        else:
            yield self.finding(
                project, mod, node,
                f"metric {literal!r} is also registered at "
                f"{first[0]}:{first[1]}; get-or-create hides the "
                f"duplicate at runtime but the two sites will drift -- "
                f"register once and share the instrument",
                symbol=f"{literal}:duplicate",
            )
        yield from self._check_labelnames(project, mod, node, literal, max_labels)

    def _check_labelnames(
        self, project: Project, mod, node: ast.Call, name: str, max_labels: int
    ) -> Iterator[Finding]:
        for kw in node.keywords:
            if kw.arg != "labelnames":
                continue
            value = kw.value
            if not isinstance(value, (ast.Tuple, ast.List)):
                yield self.finding(
                    project, mod, node,
                    f"labelnames of {name!r} must be a literal tuple/list "
                    f"of strings (got a computed expression)",
                    symbol=f"{name}:labelnames",
                )
                return
            labels: List[str] = []
            for elt in value.elts:
                literal = _literal_str(elt)
                if literal is None:
                    yield self.finding(
                        project, mod, node,
                        f"labelnames of {name!r} contains a non-literal "
                        f"entry",
                        symbol=f"{name}:labelnames",
                    )
                    return
                labels.append(literal)
            if len(labels) > max_labels:
                yield self.finding(
                    project, mod, node,
                    f"{name!r} declares {len(labels)} label names "
                    f"(cap {max_labels}): cardinality multiplies per "
                    f"label -- drop dimensions or aggregate",
                    symbol=f"{name}:labelnames",
                )

    def _check_labels_call(
        self, project: Project, mod, node: ast.Call
    ) -> Iterator[Finding]:
        """``.labels(...)`` with an inline-built value: the static face
        of an unbounded-cardinality bug (one series per formatted
        string)."""
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.JoinedStr) or (
                isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add)
            ):
                yield self.finding(
                    project, mod, node,
                    "label value built inline (f-string/concatenation): "
                    "label values must come from a bounded categorical "
                    "set, not per-item identifiers",
                    symbol="labels:inline-value",
                )
                return


def _literal_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None
