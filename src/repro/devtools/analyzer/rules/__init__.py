"""Built-in contract rules.

Importing this package registers every rule with
:data:`repro.devtools.analyzer.core.REGISTRY`.
"""

from repro.devtools.analyzer.rules import (  # noqa: F401
    await_atomicity,
    batch_api,
    buffer_internals,
    config_hygiene,
    determinism,
    loop_affinity,
    mutable_state,
    obs_hygiene,
    stats_conservation,
    telemetry_hygiene,
    transitive_blocking,
    wire_schema,
)
