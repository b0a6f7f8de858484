"""Rule ``determinism``: no wall-clock or ambient randomness in sim code.

The runtime's core contract is that a sweep run with ``n_jobs=4`` is
bit-identical to the same sweep run serially, and that a cached result
equals a recomputed one.  That only holds if simulator/model code never
reads ambient nondeterministic state:

* **absolute wall-clock time** (``time.time``, ``datetime.now``, ...)
  -- timestamps differ between runs and machines;
* **process-global RNG state** (``random.random``, the legacy
  ``numpy.random.*`` functions, ``np.random.seed``) -- the global
  stream's position depends on unrelated code having run first, which
  differs between a pool worker and the parent process;
* **unseeded generators** (``np.random.default_rng()`` with no
  argument, ``random.Random()`` with no argument) -- fresh OS entropy
  per call;
* **hard-coded literal seeds** (``np.random.default_rng(0xC0FFEE)``)
  -- deterministic, but invisible to the :class:`JobSpec` fingerprint:
  two jobs that differ only in ``seed`` would simulate identically,
  silently.  Seeds must flow in from config / the job spec.

Duration measurement (``time.perf_counter`` / ``time.monotonic``) is
deliberately *not* flagged: elapsed-time metadata (``wall_seconds``,
``sort_ms``) measures the host, never feeds simulated results, and is
excluded from result comparisons.

Scope: the simulator/model packages (``options["scope"]``).  The
execution layer (``repro.runtime``), which legitimately timestamps
manifests and cache records, is outside the scope list.

Direct sites come from the effect model
(:func:`repro.devtools.analyzer.effects.iter_sites`): every
``reads-wall-clock`` and ``ambient-entropy`` site anywhere in an
in-scope module -- function bodies, module level, class bodies and
lambdas alike.  Only the literal-seed check stays lexical, since a
seeded generator has no effect.

The rule also checks *escapes*: a call from scope into an out-of-scope
helper whose inferred effects include ``reads-wall-clock`` or
``ambient-entropy`` is flagged at the call site with the witness
chain -- moving ``time.time()`` into a utility module no longer hides
it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.analyzer.astutil import call_argument, import_aliases, resolve_imported
from repro.devtools.analyzer.callgraph import get_callgraph
from repro.devtools.analyzer.core import Finding, Project, Rule, SourceModule, in_packages, register
from repro.devtools.analyzer.effects import (
    AMBIENT_READ,
    GENERATORS,
    GLOBAL_RNG,
    LEGACY_RNG,
    NONDETERMINISM_EFFECTS,
    READS_WALL_CLOCK,
    UNSEEDED_RNG,
    WALL_CLOCK_READ,
    effectful_calls,
    module_sites,
)

#: What to do about each hazard (keyed by :attr:`Site.what`).
ADVICE = {
    WALL_CLOCK_READ: "is nondeterministic across runs/hosts; simulated "
    "results must not depend on it",
    AMBIENT_READ: "is nondeterministic across runs/hosts; simulated "
    "results must not depend on it",
    GLOBAL_RNG: "uses the module-level generator; construct "
    "random.Random(seed) from the job seed",
    LEGACY_RNG: "mutates/reads process-global state; use "
    "numpy.random.default_rng(seed)",
    UNSEEDED_RNG: "draws fresh OS entropy per call; pass a seed that "
    "originates in the job spec/config",
}


@register
class DeterminismRule(Rule):
    name = "determinism"
    description = (
        "no wall-clock reads, global-RNG use, unseeded or literal-seeded "
        "generators in simulator/model packages"
    )
    default_severity = "error"
    default_options = {
        "scope": [
            "repro.sim",
            "repro.hymm",
            "repro.baselines",
            "repro.graphs",
            "repro.sparse",
            "repro.gcn",
        ],
    }

    def run(self, project: Project) -> Iterator[Finding]:
        scope = tuple(self.options["scope"])
        for mod in project.in_package(*scope):
            for site in module_sites(project, mod):
                if site.effect in NONDETERMINISM_EFFECTS:
                    yield self.finding(
                        project, mod, site.node,
                        f"{site.what}: {site.target} {ADVICE[site.what]}",
                        symbol=site.target.removesuffix("()"),
                    )
            yield from self._check_literal_seeds(project, mod)
        yield from self._check_escapes(project, scope)

    def _check_escapes(
        self, project: Project, scope: "tuple[str, ...]"
    ) -> Iterator[Finding]:
        """Calls out of scope into helpers that carry entropy/clock."""
        for info, call, callee, effect, chain in effectful_calls(
            project,
            get_callgraph(project).in_package(*scope),
            NONDETERMINISM_EFFECTS,
            # In-scope callees get their own findings.
            skip=lambda fn: in_packages(fn.module.module, scope),
        ):
            what = (
                "wall-clock time"
                if effect == READS_WALL_CLOCK
                else "ambient entropy"
            )
            yield self.finding(
                project, info.module, call.node,
                f"`{callee.name}` (outside the determinism scope) "
                f"reads {what} [{effect}]: {info.name} -> {chain}; "
                "simulated results must not depend on it",
                symbol=f"{info.name}->{callee.name}:{effect}",
            )

    def _check_literal_seeds(
        self, project: Project, mod: SourceModule
    ) -> Iterator[Finding]:
        aliases = import_aliases(mod.tree)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_imported(node.func, aliases)
            if target not in GENERATORS:
                continue
            seed = call_argument(node, 0, "seed", "x")
            if isinstance(seed, ast.Constant) and isinstance(
                seed.value, (int, float)
            ):
                yield self.finding(
                    project, mod, node,
                    f"hard-coded RNG seed {seed.value!r} in {target}(): "
                    f"invisible to the JobSpec fingerprint; thread the "
                    f"seed in from config/JobSpec",
                    symbol=f"{target}:literal-seed",
                )
