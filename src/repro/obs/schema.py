"""In-repo structural validation of Chrome trace-event JSON exports.

The bench/CI pipelines must be able to say "this artifact is a valid
trace" without pulling in a JSON-schema dependency, so this is a small
hand-rolled checker for exactly the subset of the trace-event format
that :class:`repro.obs.tracer.ChromeTracer` emits, on either clock
(simulated cycles or wall-clock microseconds):

* root object with a ``traceEvents`` list;
* every event an object with ``name``/``cat``/``ph``/``ts``/``pid``/``tid``;
* ``ph`` one of ``X`` (complete, needs numeric ``dur >= 0``), ``i``
  (instant, needs scope ``s``), ``C`` (counter, needs numeric ``args``);
* timestamps are non-negative numbers (both clocks count up from zero:
  the simulated one from cycle 0, the wall one from the tracer's
  origin).

:func:`validate_trace` returns a list of human-readable problems --
empty means valid -- so callers can print every defect at once instead
of failing on the first.
"""

from __future__ import annotations

from typing import Any, List

#: Event phases ChromeTracer emits.
VALID_PHASES = ("X", "i", "C")

#: Valid scopes for instant ("i") events.
VALID_INSTANT_SCOPES = ("t", "p", "g")

_REQUIRED_FIELDS = ("name", "cat", "ph", "ts", "pid", "tid")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_event(event: Any, where: str) -> List[str]:
    """Problems with a single trace event (empty list when clean)."""
    if not isinstance(event, dict):
        return [f"{where}: event must be an object, got {type(event).__name__}"]
    problems: List[str] = []
    for field in _REQUIRED_FIELDS:
        if field not in event:
            problems.append(f"{where}: missing required field {field!r}")
    name = event.get("name")
    if "name" in event and (not isinstance(name, str) or not name):
        problems.append(f"{where}: name must be a non-empty string")
    if "cat" in event and not isinstance(event.get("cat"), str):
        problems.append(f"{where}: cat must be a string")
    ts = event.get("ts")
    if "ts" in event:
        if not _is_number(ts):
            problems.append(f"{where}: ts must be a number")
        elif float(ts) < 0:
            problems.append(f"{where}: ts must be >= 0, got {ts}")
    for field in ("pid", "tid"):
        if field in event and not isinstance(event.get(field), int):
            problems.append(f"{where}: {field} must be an integer")
    if "args" in event and not isinstance(event.get("args"), dict):
        problems.append(f"{where}: args must be an object")

    ph = event.get("ph")
    if "ph" not in event:
        return problems
    if ph not in VALID_PHASES:
        problems.append(
            f"{where}: ph must be one of {list(VALID_PHASES)}, got {ph!r}"
        )
        return problems
    if ph == "X":
        dur = event.get("dur")
        if not _is_number(dur):
            problems.append(f"{where}: complete event needs a numeric dur")
        elif float(dur) < 0:
            problems.append(f"{where}: dur must be >= 0, got {dur}")
    elif ph == "i":
        if event.get("s") not in VALID_INSTANT_SCOPES:
            problems.append(
                f"{where}: instant event needs scope s in "
                f"{list(VALID_INSTANT_SCOPES)}"
            )
    elif ph == "C":
        args = event.get("args")
        if not isinstance(args, dict) or not args:
            problems.append(f"{where}: counter event needs non-empty args")
        elif not all(_is_number(v) for v in args.values()):
            problems.append(f"{where}: counter args must all be numeric")
    return problems


def validate_trace(trace: Any) -> List[str]:
    """Problems with a full trace document (empty list when valid)."""
    if not isinstance(trace, dict):
        return [f"trace root must be an object, got {type(trace).__name__}"]
    problems: List[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        problems.append("trace must have a traceEvents list")
        return problems
    if "otherData" in trace and not isinstance(trace["otherData"], dict):
        problems.append("otherData must be an object when present")
    for i, event in enumerate(events):
        problems.extend(validate_event(event, f"traceEvents[{i}]"))
    return problems
