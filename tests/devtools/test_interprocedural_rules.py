"""Over/under-fire tests for the interprocedural rules.

Every violation in a fixture must be reported at exactly its marked
line, and every deliberately-clean variant must stay silent.  The
helper-hidden class locks in the motivating gap: a module whose
handlers block the event loop only through sync helpers, which
``transitive-blocking`` catches at both call sites.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.analyzer.core import Project, run_rules
from repro.devtools.analyzer.rules.await_atomicity import AwaitAtomicityRule
from repro.devtools.analyzer.rules.determinism import DeterminismRule
from repro.devtools.analyzer.rules.loop_affinity import LoopAffinityRule
from repro.devtools.analyzer.rules.obs_hygiene import ObsHygieneRule
from repro.devtools.analyzer.rules.transitive_blocking import (
    TransitiveBlockingRule,
)

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixtures(*name_pairs):
    """Load several fixture files under pretend dotted module names."""
    paths = {FIXTURES / f: m for f, m in name_pairs}
    return Project.load(sorted(paths), root=FIXTURES, module_names=paths)


def line_of(filename: str, snippet: str, occurrence: int = 1) -> int:
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
# await-atomicity
# ----------------------------------------------------------------------
class TestAwaitAtomicityRule:
    @pytest.fixture()
    def findings(self):
        project = load_fixtures(
            ("atomicity_violations.py", "repro.serve.atomicity_fixture")
        )
        return run_rules(project, [AwaitAtomicityRule()])

    def test_every_finding_location(self, findings):
        expected = {
            line_of("atomicity_violations.py", "self._jobs[key] = record  # VIOLATION"),
            line_of("atomicity_violations.py", "self._tickets[key] = object()"),
            line_of("atomicity_violations.py", "self._bump()  # VIOLATION"),
        }
        assert by_line(findings) == expected
        assert all(f.rule == "await-atomicity" for f in findings)

    def test_alias_check_is_tracked(self, findings):
        # ``entry = self._jobs.get(key); if entry is None:`` counts as a
        # check of self._jobs even though the test reads the alias.
        store = line_of(
            "atomicity_violations.py", "self._jobs[key] = record  # VIOLATION"
        )
        [f] = [f for f in findings if f.line == store]
        assert "self._jobs" in f.message
        assert "await" in f.message

    def test_interprocedural_store_is_attributed(self, findings):
        bump = line_of("atomicity_violations.py", "self._bump()  # VIOLATION")
        [f] = [f for f in findings if f.line == bump]
        assert "self.count" in f.message

    def test_clean_variants_stay_silent(self, findings):
        clean = {
            line_of("atomicity_violations.py", "act before the await"),
            line_of("atomicity_violations.py", "re-validated after the await"),
            line_of("atomicity_violations.py", "self.count += 1", occurrence=2),
            line_of("atomicity_violations.py", "self.count += 1", occurrence=3),
        }
        assert by_line(findings) & clean == set()


# ----------------------------------------------------------------------
# loop-affinity
# ----------------------------------------------------------------------
class TestLoopAffinityRule:
    @pytest.fixture()
    def findings(self):
        project = load_fixtures(
            ("affinity_violations.py", "repro.serve.affinity_fixture")
        )
        return run_rules(project, [LoopAffinityRule()])

    def test_only_the_shared_unlocked_counter_fires(self, findings):
        expected = {line_of("affinity_violations.py", "self.lookups += 1")}
        assert by_line(findings) == expected
        [f] = findings
        assert f.rule == "loop-affinity"
        assert f.symbol == "StatsTracker.lookups"

    def test_message_names_both_sides(self, findings):
        [f] = findings
        # The fix requires seeing the thread entry and the loop reader.
        assert "probe" in f.message
        assert "snapshot" in f.message

    def test_sanctioned_patterns_stay_silent(self, findings):
        clean = {
            # Lock-guarded store, loopsafe-scheduled callback, and a
            # thread-private attribute with no loop-side reader.
            line_of("affinity_violations.py", "self.safe_updates += 1"),
            line_of("affinity_violations.py", "self.finished += 1"),
            line_of("affinity_violations.py", "self.scratch = key"),
        }
        assert by_line(findings) & clean == set()


# ----------------------------------------------------------------------
# transitive-blocking
# ----------------------------------------------------------------------
class TestTransitiveBlockingRule:
    @pytest.fixture()
    def findings(self):
        project = load_fixtures(
            ("transitive_violations.py", "repro.serve.transitive_fixture")
        )
        return run_rules(project, [TransitiveBlockingRule()])

    def test_every_finding_location(self, findings):
        expected = {
            line_of("transitive_violations.py", "deep_helper()  # VIOLATION"),
            line_of("transitive_violations.py", "return read_config(path)"),
        }
        assert by_line(findings) == expected
        assert all(f.rule == "transitive-blocking" for f in findings)

    def test_message_renders_the_full_chain(self, findings):
        sleep_line = line_of(
            "transitive_violations.py", "deep_helper()  # VIOLATION"
        )
        [f] = [f for f in findings if f.line == sleep_line]
        # The handler never mentions time.sleep; the chain must.
        assert "handle_sleep -> deep_helper -> nap_helper -> time.sleep" in f.message
        assert "asyncio.to_thread" in f.message

    def test_offloaded_and_pure_handlers_stay_silent(self, findings):
        clean = {
            line_of("transitive_violations.py", "asyncio.to_thread(read_config"),
            line_of("transitive_violations.py", "return pure_helper(value)"),
        }
        assert by_line(findings) & clean == set()


# ----------------------------------------------------------------------
# Helper-hidden blocking: no async body blocks *directly*, yet two
# handlers freeze the loop through sync helpers
# ----------------------------------------------------------------------
class TestHelperHiddenBlockingGap:
    @pytest.fixture()
    def project(self):
        return load_fixtures(
            ("transitive_violations.py", "repro.serve.transitive_fixture")
        )

    def test_transitive_blocking_catches_what_it_misses(self, project):
        findings = run_rules(project, [TransitiveBlockingRule()])
        assert by_line(findings) == {
            line_of("transitive_violations.py", "deep_helper()  # VIOLATION"),
            line_of("transitive_violations.py", "return read_config(path)"),
        }


# ----------------------------------------------------------------------
# determinism: interprocedural escape pass
# ----------------------------------------------------------------------
class TestDeterminismEscapes:
    @pytest.fixture()
    def findings(self):
        project = load_fixtures(
            ("det_escape_violations.py", "repro.sim.det_escape_fixture"),
            ("det_escape_helper.py", "repro.util.det_helper"),
        )
        return run_rules(project, [DeterminismRule()])

    def test_escapes_fire_at_the_call_site(self, findings):
        expected = {
            line_of("det_escape_violations.py", "started = stamp()"),
            line_of("det_escape_violations.py", "stamp_indirect()"),
        }
        assert by_line(findings) == expected
        assert all(f.rule == "determinism" for f in findings)
        assert all(f.path.endswith("det_escape_violations.py") for f in findings)

    def test_helper_body_is_not_flagged_directly(self, findings):
        # The helper is outside the determinism scope: only calls into
        # it from scope code count.
        assert not any(f.path.endswith("det_escape_helper.py") for f in findings)

    def test_message_carries_the_witness_chain(self, findings):
        deep = line_of("det_escape_violations.py", "stamp_indirect()")
        [f] = [f for f in findings if f.line == deep]
        assert "stamp_indirect -> stamp -> time.time" in f.message

    def test_pure_helper_call_is_clean(self, findings):
        assert line_of("det_escape_violations.py", "return pure(config)") not in by_line(
            findings
        )


# ----------------------------------------------------------------------
# obs-hygiene: transitive unguarded emission
# ----------------------------------------------------------------------
class TestObsHygieneTransitive:
    @pytest.fixture()
    def findings(self):
        project = load_fixtures(
            ("obs_escape_violations.py", "repro.hymm.obs_escape_fixture"),
            ("obs_escape_helper.py", "repro.util.trace_helper"),
            ("obs_escape_audited.py", "repro.sim.audited_emitter"),
        )
        return run_rules(project, [ObsHygieneRule()])

    def test_guarded_call_to_unguarded_helper_fires(self, findings):
        # Guarding the *call* does not guard the helper's emission; the
        # guard has to sit at the emission site itself.
        expected = {
            line_of("obs_escape_violations.py", 'emit_unguarded(tracer, "spmm"')
        }
        assert by_line(findings) == expected
        [f] = findings
        assert f.rule == "obs-hygiene"
        assert "emit_unguarded" in f.message
        assert "emits-trace" in f.message

    def test_self_guarded_helper_and_audited_path_are_clean(self, findings):
        clean = {
            line_of("obs_escape_violations.py", "emit_guarded(tracer"),
            line_of("obs_escape_violations.py", "engine_emit(tracer"),
        }
        assert by_line(findings) & clean == set()
