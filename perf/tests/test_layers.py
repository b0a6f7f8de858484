import sys
import types

import pytest

import layers
import run


@pytest.fixture
def fake_module(monkeypatch):
    """A ``repro``-prefixed module with a function another module
    imported by name, and a small class hierarchy.  ``install`` also
    wraps the real ``TraceSession.record``; it is restored afterwards."""
    from repro.sim.replay import TraceSession

    monkeypatch.setattr(TraceSession, "record", TraceSession.record)
    mod = types.ModuleType("repro_perf_fake")

    class Base:
        def work(self, n):
            return self.inner(n)

        def inner(self, n):
            return n

    class Child(Base):
        def work(self, n):
            return super().work(n) + 1

    def helper(x):
        return x * 2

    mod.Base, mod.Child, mod.helper = Base, Child, helper
    user = types.ModuleType("repro_perf_fake_user")
    user.helper = helper
    monkeypatch.setitem(sys.modules, "repro_perf_fake", mod)
    monkeypatch.setitem(sys.modules, "repro_perf_fake_user", user)
    return mod, user


def test_missing_target_is_reported_not_raised(fake_module, capsys):
    rec = layers.install(
        layers.LayerRecorder(),
        wraps=[("ok.layer", "repro_perf_fake:helper"),
               ("gone.layer", "repro_perf_fake:Vanished.method"),
               ("gone.module", "repro_no_such_module:thing")],
        preload=(),
    )
    assert rec.missing == ["gone.layer", "gone.module"]
    assert "reports null" in capsys.readouterr().err


def test_wrappers_time_calls_and_rebind_imported_names(fake_module):
    mod, user = fake_module
    rec = layers.install(
        layers.LayerRecorder(),
        wraps=[("outer", "repro_perf_fake:Base.work"),
               ("inner", "repro_perf_fake:Base.inner"),
               ("helper", "repro_perf_fake:helper")],
        preload=(),
    )
    assert mod.Child().work(3) == 4
    assert user.helper(2) == 4
    totals = rec.dump()["layers"]
    # Child.work -> Base.work (same layer: counted once) -> inner.
    assert totals["outer"][2] == 1
    assert totals["inner"][2] == 1
    assert totals["helper"][2] == 1
    outer_total, outer_self = totals["outer"][0], totals["outer"][1]
    assert outer_self == pytest.approx(outer_total - totals["inner"][0])


class _FakeWorkload:
    def footprint(self):
        return 0, [], 0, []

    def primary(self, win):
        return 10.0


class _FakeWindow:
    def __init__(self, layers_dump=None):
        self.layers = [layers_dump] if layers_dump else []
        self.jobs = 7
        self.hits, self.misses, self.queue_waits = [], [], []
        self.import_s = [0.2]
        self.probe_p50_ms = 0.0
        self.batch_s = 0.0


def test_metrics_of_a_missing_layer_are_null():
    dump = {
        "layers": {"accel.prepare": [0.7, 0.7, 7, 7]},
        "requests": 0,
        "missing": ["sim.engine", "sim.requests"],
    }
    out = run.layer_metrics(_FakeWorkload(), _FakeWindow(), _FakeWindow(dump))
    assert out["sim.engine.s_per_job"] is None
    assert out["sim.engine.calls_per_job"] is None
    assert out["sim.requests_per_s"] is None
    assert out["accel.prepare.s_per_job"] == pytest.approx(0.1)
    assert out["graphs.load_dataset.s_per_job"] == 0.0


def test_layer_metrics_cover_every_declared_per_layer_metric():
    dump = {"layers": {}, "requests": 0, "missing": []}
    out = run.layer_metrics(_FakeWorkload(), _FakeWindow(), _FakeWindow(dump))
    declared = [m["name"] for m in run.load_benchmark()["per_layer"]]
    assert sorted(out) == sorted(declared)
