"""Per-rule tests: each fixture module carries known violations and the
rule must report them at exactly the right locations -- and nothing
else."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.analyzer.core import Project, run_rules
from repro.devtools.analyzer.rules.batch_api import BatchApiRule
from repro.devtools.analyzer.rules.buffer_internals import (
    ARENA_FIELDS,
    ARENA_METHODS,
    BufferInternalsRule,
)
from repro.devtools.analyzer.rules.config_hygiene import ConfigHygieneRule
from repro.devtools.analyzer.rules.determinism import DeterminismRule
from repro.devtools.analyzer.rules.mutable_state import MutableStateRule
from repro.devtools.analyzer.rules.obs_hygiene import ObsHygieneRule
from repro.devtools.analyzer.rules.stats_conservation import StatsConservationRule
from repro.devtools.analyzer.rules.telemetry_hygiene import TelemetryHygieneRule
from repro.devtools.analyzer.rules.transitive_blocking import (
    TransitiveBlockingRule,
)
from repro.devtools.analyzer.rules.wire_schema import (
    WireSchemaRule,
    reachable_wire_classes,
)

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(filename: str, module: str) -> Project:
    path = FIXTURES / filename
    return Project.load([path], root=FIXTURES, module_names={path: module})


def line_of(filename: str, snippet: str, occurrence: int = 1) -> int:
    """1-based line of the nth occurrence of ``snippet`` in a fixture."""
    text = (FIXTURES / filename).read_text(encoding="utf-8")
    seen = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if snippet in line:
            seen += 1
            if seen == occurrence:
                return lineno
    raise AssertionError(f"{snippet!r} (occurrence {occurrence}) not in {filename}")


def by_line(findings):
    return {f.line for f in findings}


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDeterminismRule:
    @pytest.fixture()
    def findings(self):
        project = load_fixture("det_violations.py", "repro.sim.det_fixture")
        return run_rules(project, [DeterminismRule()])

    def test_every_finding_location(self, findings):
        expected = {
            line_of("det_violations.py", "started = time.time()"),
            line_of("det_violations.py", "stamp = datetime.now()"),
            line_of("det_violations.py", "a = random.random()"),
            line_of("det_violations.py", "b = np.random.rand(4)"),
            line_of("det_violations.py", "np.random.seed(7)"),
            line_of("det_violations.py", "g1 = np.random.default_rng()"),
            line_of("det_violations.py", "g2 = np.random.default_rng(0xBEEF)"),
            line_of("det_violations.py", "g3 = random.Random()"),
            line_of("det_violations.py", "LOADED_AT = time.time()"),
            line_of("det_violations.py", "created = datetime.now()"),
            line_of("det_violations.py", "clock = lambda: time.time()"),
        }
        assert by_line(findings) == expected
        assert all(f.rule == "determinism" for f in findings)
        assert all(f.severity == "error" for f in findings)

    def test_perf_counter_and_seeded_rng_allowed(self, findings):
        allowed = {
            line_of("det_violations.py", "time.perf_counter()"),
            line_of("det_violations.py", "np.random.default_rng(seed)"),
        }
        assert not (by_line(findings) & allowed)

    def test_inline_suppression_honoured(self, findings):
        suppressed = line_of("det_violations.py", "analyzer: allow[determinism]")
        assert suppressed not in by_line(findings)

    def test_out_of_scope_module_is_clean(self):
        project = load_fixture("det_violations.py", "repro.runtime.det_fixture")
        assert run_rules(project, [DeterminismRule()]) == []

    def test_messages_name_the_hazard(self, findings):
        messages = " | ".join(f.message for f in findings)
        assert "wall-clock" in messages
        assert "hard-coded RNG seed" in messages
        assert "unseeded RNG" in messages
        assert "legacy global RNG" in messages


# ----------------------------------------------------------------------
# wire-schema
# ----------------------------------------------------------------------
class TestWireSchemaRule:
    @pytest.fixture()
    def project(self):
        return load_fixture("wire_violations.py", "repro.fake.wire_fixture")

    @pytest.fixture()
    def findings(self, project):
        return run_rules(project, [WireSchemaRule()])

    def test_reachability(self, project):
        reachable = reachable_wire_classes(project, ["JobSpec", "RunResult"])
        assert set(reachable) == {"JobSpec", "RunResult", "BadConfig"}

    def test_missing_pair_on_reachable_dataclass(self, findings):
        cls_line = line_of("wire_violations.py", "class BadConfig:")
        bad = [f for f in findings if f.line == cls_line]
        assert {f.symbol for f in bad} == {
            "BadConfig.to_dict:missing",
            "BadConfig.from_dict:missing",
        }

    def test_to_dict_field_parity(self, findings):
        fn_line = line_of("wire_violations.py", "def to_dict", occurrence=2)
        [finding] = [f for f in findings if f.line == fn_line]
        assert "notes" in finding.message
        assert finding.symbol == "RunResult.to_dict:notes"

    def test_from_dict_field_parity(self, findings):
        fn_line = line_of("wire_violations.py", "def from_dict", occurrence=2)
        [finding] = [f for f in findings if f.line == fn_line]
        assert "cycles" in finding.message

    def test_unreachable_dataclass_not_checked(self, findings):
        assert not any("Unreachable" in f.message for f in findings)

    def test_finding_count_is_exact(self, findings):
        assert len(findings) == 4


# ----------------------------------------------------------------------
# stats-conservation
# ----------------------------------------------------------------------
class TestStatsConservationRule:
    @pytest.fixture()
    def findings(self):
        project = load_fixture("stats_violations.py", "repro.sim.stats_fixture")
        return run_rules(project, [StatsConservationRule()])

    def test_unwritten_counter_flagged_at_declaration(self, findings):
        ghost_line = line_of("stats_violations.py", "ghost_counter: int = 0")
        ghost = [f for f in findings if f.line == ghost_line]
        assert len(ghost) == 1
        assert "ghost_counter" in ghost[0].message
        assert "ever writes it" in ghost[0].message

    def test_merge_writes_do_not_count(self, findings):
        # merge() writes every field; only ghost_counter must be flagged.
        unwritten = [f for f in findings if "unwritten" in f.symbol]
        assert len(unwritten) == 1

    def test_undeclared_tags_flagged(self, findings):
        expected = {
            line_of("stats_violations.py", '"bogus"'),
            line_of("stats_violations.py", '"phantom"'),
        }
        tag_findings = {f.line for f in findings if f.symbol.startswith("tag:")}
        assert tag_findings == expected

    def test_declared_tags_pass(self, findings):
        assert not any(f.symbol in ("tag:A", "tag:W") for f in findings)

    def test_exact_finding_count(self, findings):
        assert len(findings) == 3


# ----------------------------------------------------------------------
# config-hygiene
# ----------------------------------------------------------------------
class TestConfigHygieneRule:
    @pytest.fixture()
    def findings(self):
        project = load_fixture("config_violations.py", "repro.hymm.cfg_fixture")
        return run_rules(project, [ConfigHygieneRule()])

    def test_dead_knob_flagged(self, findings):
        knob_line = line_of("config_violations.py", "shiny_new_knob: float")
        [finding] = findings
        assert finding.line == knob_line
        assert "dead knob" in finding.message
        assert finding.symbol == "HyMMConfig.shiny_new_knob:dead-knob"

    def test_consumed_field_not_flagged(self, findings):
        assert not any("n_pes" in f.message for f in findings)


# ----------------------------------------------------------------------
# mutable-state
# ----------------------------------------------------------------------
class TestMutableStateRule:
    @pytest.fixture()
    def findings(self):
        project = load_fixture("mutable_violations.py", "repro.fake.mut_fixture")
        return run_rules(project, [MutableStateRule()])

    def test_every_hazard_flagged(self, findings):
        expected = {
            line_of("mutable_violations.py", "def bad_default(jobs=[])"),
            line_of("mutable_violations.py", "def bad_kwonly(*, memo={})"),
            line_of("mutable_violations.py", "SHARED = {}"),
            line_of("mutable_violations.py", "field(default=[])"),
            line_of("mutable_violations.py", "counts: Counter = Counter()"),
        }
        assert by_line(findings) == expected
        assert len(findings) == 5

    def test_clean_patterns_pass(self, findings):
        clean_lines = {
            line_of("mutable_violations.py", "field(default_factory=list)"),
            line_of("mutable_violations.py", "field(default_factory=dict)"),
            line_of("mutable_violations.py", "def clean(jobs=None"),
        }
        assert not (by_line(findings) & clean_lines)


# ----------------------------------------------------------------------
# batch-api
# ----------------------------------------------------------------------
class TestBatchApiRule:
    @pytest.fixture()
    def findings(self):
        project = load_fixture("batch_violations.py", "repro.baselines.batch_fixture")
        return run_rules(project, [BatchApiRule()])

    def test_every_scalar_call_in_loop_flagged(self, findings):
        expected = {
            line_of("batch_violations.py", "engine.mac_load(row,"),
            line_of("batch_violations.py", "ctx.engine.store(row + 1,"),
            line_of("batch_violations.py", "engine.accumulate_store(rows[i],"),
            line_of("batch_violations.py", "engine.rmw(row,"),
            line_of("batch_violations.py", "engine.mac_stream_load(row,"),
        }
        assert by_line(findings) == expected
        assert all(f.rule == "batch-api" for f in findings)
        assert all(f.severity == "error" for f in findings)

    def test_clean_patterns_pass(self, findings):
        clean = {
            line_of("batch_violations.py", 'engine.load(rows[0], "a", "A")'),
            line_of("batch_violations.py", 'engine.mac_load_batch(np.asarray(rows)'),
            line_of("batch_violations.py", "engine.mac_local(1)"),
            line_of("batch_violations.py", "engine.mac_load_batch(np.asarray([row])"),
            line_of("batch_violations.py", "rows.store(row)"),
            line_of("batch_violations.py", 'engine.stream(64, "A")'),
        }
        assert not (by_line(findings) & clean)

    def test_inline_suppression_honoured(self, findings):
        suppressed = line_of("batch_violations.py", "analyzer: allow[batch-api]")
        assert suppressed not in by_line(findings)

    def test_out_of_scope_module_is_clean(self):
        project = load_fixture("batch_violations.py", "repro.sim.engine_fixture")
        assert run_rules(project, [BatchApiRule()]) == []

    def test_messages_point_at_batch_variant(self, findings):
        messages = " | ".join(f.message for f in findings)
        assert "mac_load_batch()" in messages
        assert "store_batch()" in messages


# ----------------------------------------------------------------------
# buffer-internals
# ----------------------------------------------------------------------
class TestBufferInternalsRule:
    @pytest.fixture()
    def findings(self):
        project = load_fixture(
            "buffer_violations.py", "repro.baselines.buffer_fixture"
        )
        return run_rules(project, [BufferInternalsRule()])

    def test_every_arena_access_flagged(self, findings):
        expected = {
            line_of("buffer_violations.py", "buf._slot_of.get(0x40)"),
            line_of("buffer_violations.py", "buf._slot_ready[slot]"),
            line_of("buffer_violations.py", "engine.buffer._max_ready = 0.0"),
            line_of("buffer_violations.py", "buf._insert(0.0,"),
            line_of("buffer_violations.py", "engine.buffer._read_miss(0.0,"),
            line_of("buffer_violations.py", "buf._lru_ods[0].popitem"),
        }
        assert by_line(findings) == expected
        assert all(f.rule == "buffer-internals" for f in findings)
        assert all(f.severity == "error" for f in findings)

    def test_public_api_not_flagged(self, findings):
        clean = {
            line_of("buffer_violations.py", "buf.read(0.0,"),
            line_of("buffer_violations.py", "buf.write(issue,"),
            line_of("buffer_violations.py", 'buf.resident_lines("partial")'),
            line_of("buffer_violations.py", "buf.contains(0xC0)"),
            line_of("buffer_violations.py", 'buf.reclassify("partial", "out")'),
            line_of("buffer_violations.py", 'buf.flush(ready, "drain")'),
            line_of("buffer_violations.py", 'getattr(tracker, "_size", None)'),
        }
        assert not (by_line(findings) & clean)

    def test_inline_suppression_honoured(self, findings):
        suppressed = line_of(
            "buffer_violations.py", "analyzer: allow[buffer-internals]"
        )
        assert suppressed not in by_line(findings)

    def test_out_of_scope_module_is_clean(self):
        project = load_fixture(
            "buffer_violations.py", "repro.sim.engine_fixture"
        )
        assert run_rules(project, [BufferInternalsRule()]) == []

    def test_field_set_matches_live_buffer(self):
        """The rule's field list must track the real class: every listed
        field/method exists on a constructed CacheBuffer, so a rename in
        the buffer forces this list (and the rule) to follow."""
        from repro.sim.buffer import CacheBuffer
        from repro.sim.memory import DRAM, DRAMConfig
        from repro.sim.stats import SimStats

        stats = SimStats()
        buf = CacheBuffer(
            capacity_lines=16,
            line_bytes=64,
            dram=DRAM(DRAMConfig(), stats),
            stats=stats,
        )
        for name in ARENA_FIELDS | ARENA_METHODS:
            assert hasattr(buf, name), name

    def test_replay_scope_flags_reads_too(self):
        """In replay-mode modules even reading the arena is a
        violation: replay is read-only by construction, state flows
        through snapshot_state/restore_state only."""
        project = load_fixture("replay_violations.py", "repro.sim.replay")
        findings = run_rules(project, [BufferInternalsRule()])
        expected = {
            line_of("replay_violations.py", "buffer._max_ready"),
            line_of("replay_violations.py", "buffer._slot_ready[0] = 0.0"),
            line_of("replay_violations.py", "buffer._commit_hit_epoch"),
        }
        assert by_line(findings) == expected
        assert all("read-only" in f.message for f in findings)

    def test_replay_scope_public_snapshot_api_clean(self):
        project = load_fixture("replay_violations.py", "repro.sim.replay")
        findings = run_rules(project, [BufferInternalsRule()])
        clean = {
            line_of("replay_violations.py", "buffer.restore_state"),
            line_of("replay_violations.py", "engine.restore_state"),
            line_of("replay_violations.py", "buf.snapshot_state()"),
            line_of("replay_violations.py", "buffer.occupancy_by_class()"),
        }
        assert not (by_line(findings) & clean)

    def test_epoch_fields_in_rule_list(self):
        """The hit-run bulk commit and its bound LRU splices are covered."""
        assert "_lru_mte" in ARENA_FIELDS
        assert "_commit_hit_epoch" in ARENA_METHODS


# ----------------------------------------------------------------------
# obs-hygiene
# ----------------------------------------------------------------------
class TestObsHygieneRule:
    @pytest.fixture()
    def findings(self):
        project = load_fixture("obs_violations.py", "repro.hymm.obs_fixture")
        return run_rules(project, [ObsHygieneRule()])

    def test_every_finding_location(self, findings):
        expected = {
            line_of("obs_violations.py", 'tracer.span("tile", 0.0'),
            line_of("obs_violations.py", 'ctx.engine.tracer.instant("plan", 0.0'),
            line_of("obs_violations.py", 'tracer.counter("occupancy", 0.0'),
            line_of("obs_violations.py", "tracer._events.append"),
            line_of("obs_violations.py", "len(tracer.events)"),
            line_of("obs_violations.py", 'tracer.span("late"'),
        }
        assert by_line(findings) == expected

    def test_guarded_sites_not_flagged(self, findings):
        fine = {
            line_of("obs_violations.py", 'tracer.span("tile", t0'),
            line_of("obs_violations.py", 'ctx.engine.tracer.instant("plan", t0'),
            line_of("obs_violations.py", 'tracer.counter("occ", t0'),
        }
        assert fine.isdisjoint(by_line(findings))

    def test_non_tracer_receivers_not_flagged(self, findings):
        unrelated = {
            line_of("obs_violations.py", 'metrics.counter("jobs")'),
            line_of("obs_violations.py", 'metrics.span("outer"'),
        }
        assert unrelated.isdisjoint(by_line(findings))

    def test_guard_does_not_cross_function_boundary(self, findings):
        assert line_of("obs_violations.py", 'tracer.span("late"') in by_line(
            findings
        )

    def test_inline_suppression_honoured(self, findings):
        suppressed = line_of("obs_violations.py", "analyzer: allow[obs-hygiene]")
        assert suppressed not in by_line(findings)

    def test_out_of_scope_module_is_clean(self):
        project = load_fixture("obs_violations.py", "repro.sim.obs_fixture")
        assert run_rules(project, [ObsHygieneRule()]) == []

    def test_messages_name_the_fix(self, findings):
        messages = " | ".join(f.message for f in findings)
        assert "enabled" in messages
        assert "Tracer API" in messages

    def test_severity_is_error(self, findings):
        assert {f.severity for f in findings} == {"error"}


# ----------------------------------------------------------------------
# serve hygiene: blocking calls written directly in an async handler
# (the direct half of transitive-blocking)
# ----------------------------------------------------------------------
class TestServeHygieneRule:
    @pytest.fixture()
    def findings(self):
        project = load_fixture("serve_violations.py", "repro.serve.fixture")
        return run_rules(project, [TransitiveBlockingRule()])

    def test_every_finding_location(self, findings):
        expected = {
            line_of("serve_violations.py", "time.sleep(0.1)  # VIOLATION"),
            line_of("serve_violations.py", "nap(0.1)"),
            line_of("serve_violations.py", "with open(path) as fh:  # VIOLATION"),
            line_of("serve_violations.py", "doc = json.load(fh)"),
            line_of("serve_violations.py", 'subprocess.run(["true"])'),
            line_of("serve_violations.py", "os.replace(path, path)"),
            line_of("serve_violations.py", "Path(path).read_text()"),
            line_of("serve_violations.py", "shutil.rmtree(path)"),
        }
        assert by_line(findings) == expected
        assert all(f.rule == "transitive-blocking" for f in findings)

    def test_blocking_vocabulary_is_the_effect_models(self, findings):
        # Convenience-I/O methods block only on a path-like receiver,
        # as in the transitive effect summaries.
        flagged = {f.line: f.symbol for f in findings}
        shutil_line = line_of("serve_violations.py", "shutil.rmtree(path)")
        assert flagged[shutil_line] == "shutil.rmtree"
        assert line_of("serve_violations.py", "cfg.read_text()") not in flagged

    def test_async_safe_and_nested_sync_allowed(self, findings):
        allowed = {
            line_of("serve_violations.py", "await asyncio.sleep(0.1)"),
            line_of("serve_violations.py", 'json.dumps({"ok": True})'),
            line_of("serve_violations.py", "time.sleep(0.1)", occurrence=2),
            line_of("serve_violations.py", "with open(path) as fh:", occurrence=2),
        }
        assert not (by_line(findings) & allowed)

    def test_module_level_sync_function_exempt(self, findings):
        exempt = {
            line_of("serve_violations.py", "time.sleep(0.0)"),
            line_of("serve_violations.py", "with open(path) as fh:", occurrence=3),
        }
        assert not (by_line(findings) & exempt)

    def test_out_of_scope_module_is_clean(self):
        project = load_fixture("serve_violations.py", "repro.runtime.fixture")
        assert run_rules(project, [TransitiveBlockingRule()]) == []

    def test_messages_name_the_fix(self, findings):
        messages = " | ".join(f.message for f in findings)
        assert "asyncio.sleep" in messages
        assert "asyncio.to_thread" in messages
        assert "worker thread" in messages

    def test_severity_is_error(self, findings):
        assert {f.severity for f in findings} == {"error"}


# ----------------------------------------------------------------------
# telemetry-hygiene
# ----------------------------------------------------------------------
class TestTelemetryHygieneRule:
    @pytest.fixture()
    def findings(self):
        project = load_fixture(
            "telemetry_violations.py", "repro.fake.telem_fixture"
        )
        return run_rules(project, [TelemetryHygieneRule()])

    def test_every_finding_location(self, findings):
        expected = {
            line_of("telemetry_violations.py", 'registry.counter(f"repro_'),
            line_of("telemetry_violations.py", 'registry.gauge("repro_" + computed'),
            line_of("telemetry_violations.py", "registry.histogram(name"),
            line_of("telemetry_violations.py", "registry.counter()"),
            line_of("telemetry_violations.py", "repro_bad-name_total"),
            line_of("telemetry_violations.py", '"queue_depth"'),
            line_of("telemetry_violations.py", "duplicate registration site"),
            line_of("telemetry_violations.py", '"repro_l1_total"'),
            line_of("telemetry_violations.py", '"repro_l2_total"'),
            line_of("telemetry_violations.py", '"repro_l3_total"'),
            line_of("telemetry_violations.py", 'counter.labels(f"job-'),
            line_of("telemetry_violations.py", 'counter.labels("job-" +'),
        }
        assert by_line(findings) == expected
        assert all(f.rule == "telemetry-hygiene" for f in findings)

    def test_clean_patterns_pass(self, findings):
        fine = {
            line_of("telemetry_violations.py", "first registration site"),
            line_of("telemetry_violations.py", '"repro_ok_total"'),
            line_of("telemetry_violations.py", "good.labels(status)"),
            line_of("telemetry_violations.py", 'good.labels("hit")'),
            line_of("telemetry_violations.py", 'tracer.counter("occupancy"'),
        }
        assert fine.isdisjoint(by_line(findings))

    def test_duplicate_names_first_site(self, findings):
        dup = [f for f in findings if "also registered at" in f.message]
        assert len(dup) == 1
        first_line = line_of("telemetry_violations.py", "first registration site")
        assert f":{first_line}" in dup[0].message

    def test_inline_suppression_honoured(self, findings):
        suppressed = line_of(
            "telemetry_violations.py", "analyzer: allow[telemetry-hygiene]"
        )
        assert suppressed not in by_line(findings)

    def test_messages_name_the_fix(self, findings):
        messages = " | ".join(f.message for f in findings)
        assert "string literals" in messages
        assert "cardinality" in messages
        assert "bounded categorical set" in messages
        assert "prefix" in messages

    def test_severity_is_error(self, findings):
        assert {f.severity for f in findings} == {"error"}
