"""Rule ``obs-hygiene``: tracing is opt-in and must stay free when off.

Two contracts keep :mod:`repro.obs` honest in model code (kernels and
baseline accelerators):

* **Events go through the Tracer API.**  Appending to a tracer's event
  list directly (``tracer._events.append(...)`` or ``tracer.events``)
  bypasses the schema the exporter and the validator agree on; the only
  legitimate emitters are ``span`` / ``instant`` / ``counter``.
* **Every emission is guarded.**  ``tracer.span(...)`` builds its args
  dict before the no-op body runs, so an unguarded call allocates on
  the hot path even with the :class:`~repro.obs.tracer.NullTracer`.
  Call sites must sit under ``if tracer.enabled:`` (or an equivalent
  conditional expression), which is a single attribute load on a class
  constant when tracing is off.

Scope is the model code the zero-overhead contract protects:
``repro.hymm`` and ``repro.baselines``.  The obs package itself and
the simulator core are exempt -- the tracer's own methods obviously
touch ``_events``, and the engine's guarded sites are covered by this
rule's pattern anyway (``repro.sim`` can be added to the scope once it
has no audited exceptions).

Unguarded emissions are the ``emits-trace`` sites of the effect model
(:func:`repro.devtools.analyzer.effects.iter_sites`), which carries
the ``enabled`` guard down its walk; the guard never crosses a ``def``
or ``lambda`` boundary.

The interprocedural pass closes the helper loophole: a scope function
calling a helper whose inferred effects include ``emits-trace`` (an
*unguarded* emission somewhere below, see
:mod:`repro.devtools.analyzer.effects`) is flagged at the call site
with the witness chain.  Callees living in the ``audited`` packages
(default: ``repro.obs`` and ``repro.sim``, whose emission sites are
internally guarded or are the Tracer implementation itself) are
exempt.
"""

from __future__ import annotations

from typing import Iterator

from repro.devtools.analyzer.astutil import attribute_accesses
from repro.devtools.analyzer.callgraph import get_callgraph
from repro.devtools.analyzer.core import Finding, Project, Rule, in_packages, register
from repro.devtools.analyzer.effects import (
    EMITS_TRACE,
    effectful_calls,
    is_tracer,
    module_sites,
)

#: Event-list attributes that only the tracer implementation may touch.
EVENT_FIELDS = {"events", "_events"}


@register
class ObsHygieneRule(Rule):
    name = "obs-hygiene"
    description = (
        "kernels and baselines emit trace events only via the Tracer "
        "API, with every call site guarded by `if tracer.enabled:`"
    )
    default_severity = "error"
    default_options = {
        "scope": [
            "repro.hymm",
            "repro.baselines",
        ],
        #: Packages whose emission sites are audited (internally
        #: guarded or the tracer implementation itself): calls into
        #: them never count as transitive unguarded emissions.
        "audited": [
            "repro.obs",
            "repro.sim",
        ],
    }

    def run(self, project: Project) -> Iterator[Finding]:
        scope = tuple(self.options["scope"])
        for mod in project.in_package(*scope):
            for site in module_sites(project, mod):
                if site.effect != EMITS_TRACE:
                    continue
                receiver = site.target.rpartition(".")[0]
                yield self.finding(
                    project, mod, site.node,
                    f"unguarded tracer call {site.target}(...): "
                    f"wrap in `if {receiver}.enabled:` so the NullTracer "
                    f"path stays allocation-free",
                    symbol=site.target,
                )
            for receiver, node in attribute_accesses(
                mod.tree, EVENT_FIELDS, is_tracer
            ):
                yield self.finding(
                    project, mod, node,
                    f"direct access to tracer event list "
                    f"{receiver}.{node.attr}: emit through the "
                    f"Tracer API (span/instant/counter)",
                    symbol=f"{receiver}.{node.attr}",
                )
        yield from self._check_transitive(project, scope)

    def _check_transitive(
        self, project: Project, scope: "tuple[str, ...]"
    ) -> Iterator[Finding]:
        """Unguarded emissions reached through a helper call."""
        # Audited callees are exempt; in-scope ones get a direct finding.
        exempt = (*self.options["audited"], *scope)
        for info, call, callee, _, chain in effectful_calls(
            project,
            get_callgraph(project).in_package(*scope),
            {EMITS_TRACE},
            skip=lambda fn: in_packages(fn.module.module, exempt),
        ):
            yield self.finding(
                project, info.module, call.node,
                f"`{callee.name}` emits trace events without an "
                f"`enabled` guard [emits-trace]: {info.name} -> "
                f"{chain}; guard the emission site itself",
                symbol=f"{info.name}->{callee.name}:emits-trace",
            )
