"""Rule ``config-hygiene``: no dead knobs on the hardware config.

Every field of :class:`repro.hymm.config.HyMMConfig` is a claim: "this
design parameter is modelled".  A field that nothing ever *reads* --
outside serialisation (``to_dict``/``from_dict``) and validation
(``__post_init__``) -- is a dead knob: ablation sweeps can flip it,
job fingerprints change with it, but the simulated machine ignores it,
which is precisely the silently-wrong-Fig.-7 failure mode this checker
exists to prevent.

A read is any ``<expr>.<field>`` attribute access in load context,
anywhere in the project (the config's own derived properties count:
``value_bytes`` is consumed through ``lines_per_row``).
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.devtools.analyzer import astutil
from repro.devtools.analyzer.core import Finding, Project, Rule, register

#: Methods of the config class whose reads do not count as consumption.
EXEMPT_METHODS = {"to_dict", "from_dict", "__post_init__"}


@register
class ConfigHygieneRule(Rule):
    name = "config-hygiene"
    description = (
        "every HyMMConfig field is consumed by model/simulator code, "
        "not just validated and serialised"
    )
    default_severity = "error"
    default_options = {"config_class": "HyMMConfig"}

    def run(self, project: Project) -> Iterator[Finding]:
        located = project.dataclasses().get(self.options["config_class"])
        if located is None:
            return
        cfg_mod, cfg_cls = located
        fields = astutil.dataclass_fields(cfg_cls)
        field_names = {name for name, _ in fields}

        reads: Set[str] = set()
        for mod in project.modules:
            exempt = astutil.methods_named(mod.classes, cfg_cls.name, EXEMPT_METHODS)
            for node in astutil.walk_excluding(mod.tree, exempt):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and node.attr in field_names
                ):
                    reads.add(node.attr)

        for name, ann in fields:
            if name not in reads:
                yield self.finding(
                    project, cfg_mod, ann,
                    f"{cfg_cls.name}.{name} is a dead knob: validated and "
                    f"serialised but never read by model/simulator code; "
                    f"consume it or delete it",
                    symbol=f"{cfg_cls.name}.{name}:dead-knob",
                )
