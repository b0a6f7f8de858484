"""Call graph and effect engine: golden edges on fixtures, plus
spot-checks against the real ``src/`` tree so resolution keeps working
on the code the interprocedural rules actually audit."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.analyzer.callgraph import (
    KIND_CALL,
    KIND_LOOPSAFE,
    KIND_THREAD,
    get_callgraph,
)
from repro.devtools.analyzer.core import Project
from repro.devtools.analyzer.effects import (
    BLOCKS_IO,
    EMITS_TRACE,
    MUTATES_NONLOCAL,
    READS_WALL_CLOCK,
    SLEEPS,
    get_effects,
)

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent.parent / "src"


def load(*name_pairs):
    paths = {FIXTURES / f: m for f, m in name_pairs}
    return Project.load(sorted(paths), root=FIXTURES, module_names=paths)


def edges(graph, caller, kind=None):
    return {
        s.callee
        for s in graph.sites(caller)
        if s.callee is not None and (kind is None or s.kind == kind)
    }


class TestFixtureGraph:
    """Golden edge set over the transitive/affinity fixtures."""

    @pytest.fixture()
    def graph(self):
        project = load(
            ("transitive_violations.py", "repro.serve.transitive_fixture"),
            ("affinity_violations.py", "repro.serve.affinity_fixture"),
        )
        return get_callgraph(project)

    def test_module_function_calls_resolve(self, graph):
        t = "repro.serve.transitive_fixture"
        assert edges(graph, f"{t}.deep_helper", KIND_CALL) == {
            f"{t}.nap_helper"
        }
        assert (
            f"{t}.deep_helper"
            in edges(graph, f"{t}.TransitiveServer.handle_sleep", KIND_CALL)
        )

    def test_to_thread_makes_thread_edges_not_call_edges(self, graph):
        t = "repro.serve.transitive_fixture"
        offloaded = f"{t}.TransitiveServer.handle_offloaded"
        assert edges(graph, offloaded, KIND_THREAD) == {f"{t}.read_config"}
        assert edges(graph, offloaded, KIND_CALL) == set()

    def test_typed_attribute_receiver_resolves_methods(self, graph):
        a = "repro.serve.affinity_fixture"
        # self.tracker is typed via the __init__ parameter annotation.
        assert edges(graph, f"{a}.AffinityServer.metrics", KIND_CALL) == {
            f"{a}.StatsTracker.snapshot"
        }
        assert edges(graph, f"{a}.AffinityServer.handle", KIND_THREAD) == {
            f"{a}.StatsTracker.probe",
            f"{a}.StatsTracker.probe_locked",
            f"{a}.StatsTracker.worker",
        }

    def test_call_soon_threadsafe_is_loopsafe(self, graph):
        a = "repro.serve.affinity_fixture"
        assert edges(graph, f"{a}.StatsTracker.worker", KIND_LOOPSAFE) == {
            f"{a}.StatsTracker._finish"
        }

    def test_thread_reachability_stops_at_loopsafe(self, graph):
        a = "repro.serve.affinity_fixture"
        reachable = graph.thread_reachable("repro.serve")
        assert f"{a}.StatsTracker.probe" in reachable
        assert f"{a}.StatsTracker.worker" in reachable
        assert f"{a}.StatsTracker._finish" not in reachable
        assert f"{a}.StatsTracker.snapshot" not in reachable

    def test_typed_attribute_fans_out_to_subclass_override(self):
        graph = get_callgraph(
            load(("override_fanout.py", "repro.serve.override_fixture"))
        )
        o = "repro.serve.override_fixture"
        reachable = graph.thread_reachable("repro.serve")
        # self.store: Optional[BaseStore] fans out to the subclass
        # override, two annotation-driven hops from the to_thread site.
        assert f"{o}.BaseStore.load" in reachable
        assert f"{o}.PrefixedStore.load" in reachable
        assert f"{o}.PrefixedStore._prefixed" in reachable

    def test_async_flag_and_reverse_edges(self, graph):
        t = "repro.serve.transitive_fixture"
        assert graph.functions[f"{t}.TransitiveServer.handle_pure"].is_async
        assert not graph.functions[f"{t}.pure_helper"].is_async
        assert f"{t}.deep_helper" in graph.callers[f"{t}.nap_helper"]


class TestFixtureEffects:
    @pytest.fixture()
    def project(self):
        return load(
            ("transitive_violations.py", "repro.serve.transitive_fixture"),
            (
                "obs_escape_helper.py",
                "repro.util.trace_helper",
            ),
        )

    def test_direct_and_transitive_blocking(self, project):
        effects = get_effects(project)
        t = "repro.serve.transitive_fixture"
        assert SLEEPS in effects.of(f"{t}.nap_helper").direct
        deep = effects.of(f"{t}.deep_helper")
        assert SLEEPS in deep.all
        assert SLEEPS not in deep.direct  # inherited, not performed
        assert BLOCKS_IO in effects.of(f"{t}.read_config").direct
        assert not effects.of(f"{t}.pure_helper").all

    def test_thread_references_do_not_propagate_effects(self, project):
        effects = get_effects(project)
        t = "repro.serve.transitive_fixture"
        offloaded = effects.of(f"{t}.TransitiveServer.handle_offloaded")
        assert BLOCKS_IO not in offloaded.all

    def test_witness_chain_reaches_the_operation(self, project):
        effects = get_effects(project)
        t = "repro.serve.transitive_fixture"
        chain = effects.render_chain(f"{t}.deep_helper", SLEEPS)
        assert chain == "deep_helper -> nap_helper -> time.sleep"

    def test_guarded_emission_is_effect_free(self, project):
        effects = get_effects(project)
        h = "repro.util.trace_helper"
        assert EMITS_TRACE in effects.of(f"{h}.emit_unguarded").direct
        assert EMITS_TRACE not in effects.of(f"{h}.emit_guarded").all


class TestDeclaredStores:
    """``global``/``nonlocal`` cover their whole scope, whatever order
    the walk meets the declaration and the store in."""

    @pytest.fixture()
    def effects(self):
        return get_effects(
            load(("declared_stores.py", "repro.util.declared_fixture"))
        )

    def test_declared_stores_are_nonlocal(self, effects):
        d = "repro.util.declared_fixture"
        for name in (
            "bump_global", "bump_global_aug", "bump_in_branch",
            "make_adder.add",
        ):
            site = effects.of(f"{d}.{name}").direct.get(MUTATES_NONLOCAL)
            assert site is not None, name
            text = (FIXTURES / "declared_stores.py").read_text().splitlines()
            assert "# MUTATES" in text[site.node.lineno - 1], name

    def test_undeclared_and_nested_stores_stay_local(self, effects):
        d = "repro.util.declared_fixture"
        for name in (
            "shadowing_local", "inner_scope_keeps_its_own",
            "inner_scope_keeps_its_own.inner", "make_adder",
        ):
            assert MUTATES_NONLOCAL not in effects.of(f"{d}.{name}").all, name

    def test_callers_inherit_the_declared_store(self, effects):
        fx = effects.of("repro.util.declared_fixture.calls_mutator")
        assert MUTATES_NONLOCAL not in fx.direct
        assert fx.via[MUTATES_NONLOCAL] == (
            "repro.util.declared_fixture.bump_global"
        )


class TestWitnessDeterminism:
    def test_witnesses_take_the_first_callee_on_a_shortest_chain(self):
        effects = get_effects(
            load(("witness_order.py", "repro.serve.witness_fixture"))
        )
        w = "repro.serve.witness_fixture"
        assert effects.render_chain(f"{w}.combined", BLOCKS_IO) == (
            "combined -> via_alpha -> load -> open"
        )

    def test_output_is_identical_under_any_hash_seed(self, tmp_path):
        """The analyzer's findings are byte-identical across
        ``PYTHONHASHSEED`` values (set iteration never picks a
        witness)."""
        import os
        import subprocess
        import sys

        pkg = tmp_path / "src" / "repro" / "serve"
        pkg.mkdir(parents=True)
        for init in (pkg.parent / "__init__.py", pkg / "__init__.py"):
            init.write_text("", encoding="utf-8")
        (pkg / "witness.py").write_text(
            (FIXTURES / "witness_order.py").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        outputs = set()
        for seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(SRC))
            proc = subprocess.run(
                [sys.executable, "-m", "repro.devtools.analyzer",
                 str(tmp_path / "src"), "--format", "json"],
                capture_output=True, env=env, cwd=tmp_path, timeout=120,
            )
            assert proc.stdout, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        assert b"combined -> via_alpha -> load -> open" in outputs.pop()


class TestSrcSpotChecks:
    """The graph must keep resolving the real serve/runtime stack."""

    @pytest.fixture(scope="class")
    def project(self):
        return Project.load([SRC], root=SRC.parent)

    def test_cache_probe_is_a_thread_entry(self, project):
        graph = get_callgraph(project)
        entries = graph.thread_entries("repro.serve")
        assert "repro.serve.server.SweepServer._cache_lookup" in entries
        assert "repro.serve.server.SweepServer._run_batch" in entries

    def test_sharded_cache_load_is_thread_reachable(self, project):
        graph = get_callgraph(project)
        reachable = graph.thread_reachable("repro.serve")
        # self.cache: ResultCache resolves the probe, and the
        # record read it calls, from the to_thread site; the batch
        # lane's executor reaches the decoding reader.
        assert "repro.runtime.cache.ResultCache.load_document" in reachable
        assert "repro.runtime.cache.ResultCache.load" in reachable
        assert "repro.runtime.cache._read_record" in reachable

    def test_cache_load_effects(self, project):
        effects = get_effects(project)
        read = effects.of("repro.runtime.cache._read_record")
        assert BLOCKS_IO in read.direct  # open()
        # ResultCache._read counts the probe itself (self.hits += 1)
        # and inherits the blocking read through its _read_record call;
        # both readers -- load_document (the serve probe) and load --
        # inherit both from it.
        fx = effects.of("repro.runtime.cache.ResultCache._read")
        assert MUTATES_NONLOCAL in fx.direct
        assert {BLOCKS_IO, MUTATES_NONLOCAL} <= fx.all
        assert fx.via[BLOCKS_IO] == "repro.runtime.cache._read_record"
        for reader in ("load_document", "load"):
            got = effects.of(f"repro.runtime.cache.ResultCache.{reader}")
            assert {BLOCKS_IO, MUTATES_NONLOCAL} <= got.all
            assert got.via[MUTATES_NONLOCAL] == "repro.runtime.cache.ResultCache._read"

    def test_async_handlers_carry_no_wall_clock_into_sim(self, project):
        effects = get_effects(project)
        # The simulator entry point must not inherit wall-clock reads.
        fx = effects.of("repro.hymm.runner.run_job")
        assert READS_WALL_CLOCK not in fx.all
