"""What a serve process loads: the command lines and the hit path stay
clear of numpy and the simulator, and the first miss loads them.

Each check runs in a fresh interpreter, since this test process has
long since imported everything.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro.obs.tracer import ChromeTracer
from repro.runtime import JobSpec, ResultCache, SweepExecutor
from repro.serve.client import ServeClient
from repro.serve.server import ServerThread
from repro.telemetry import install_recorder, validate_exposition

SRC = str(Path(repro.__file__).resolve().parents[1])
#: Modules a process that never simulates must not load.
HEAVY = ("numpy", "repro.sim.engine", "repro.hymm.kernels")


def run_python(code, *args, timeout=120):
    """Run ``code`` in a fresh interpreter with ``src`` importable;
    returns the JSON object its last stdout line holds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: Runs one CLI's ``main`` with ``sys.argv[2:]`` and prints the heavy
#: modules it left in ``sys.modules``.
CLI = """
    import contextlib, importlib, io, json, sys
    main = importlib.import_module(sys.argv[1]).main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(sys.argv[2:])
        except SystemExit as exc:
            code = exc.code
    print(json.dumps({
        "code": code,
        "out": out.getvalue(),
        "loaded": [m for m in ("numpy", "repro.sim.engine") if m in sys.modules],
    }))
"""


class TestCliImports:
    def test_serve_help_loads_no_workload_layer(self):
        report = run_python(CLI, "repro.serve.cli", "--help")
        assert report["code"] == 0 and "serve" in report["out"]
        assert report["loaded"] == []

    def test_obs_help_loads_no_workload_layer(self):
        report = run_python(CLI, "repro.obs.cli", "--help")
        assert report["code"] == 0 and "validate" in report["out"]
        assert report["loaded"] == []

    def test_healthz_and_metrics_clients_load_no_workload_layer(self):
        with ServerThread() as srv:
            endpoint = ["--host", srv.host, "--port", str(srv.port)]
            health = run_python(CLI, "repro.serve.cli", "healthz", *endpoint)
            metrics = run_python(CLI, "repro.serve.cli", "metrics", *endpoint)
        assert health["code"] == 0 and json.loads(health["out"])["ok"] is True
        assert metrics["code"] == 0 and "jobs" in json.loads(metrics["out"])
        assert health["loaded"] == [] and metrics["loaded"] == []


#: A server over the store at ``sys.argv[1]`` answering the specs in
#: ``sys.argv[2]`` (a JSON list) as summary-only hits, as
#: ``include_result`` hits and by ``/status include_result``; prints
#: the answers, ``/metrics`` and the heavy modules it loaded.
HIT_ONLY_SERVER = """
    import json, sys
    from repro.runtime.cache import ResultCache
    from repro.serve.client import ServeClient
    from repro.serve.server import ServerThread

    heavy = json.loads(sys.argv[3])
    with ServerThread(cache=ResultCache(sys.argv[1])) as srv:
        with ServeClient(srv.host, srv.port) as client:
            answers = []
            for spec in json.loads(sys.argv[2]):
                summary = client.submit(spec, wait=True)
                full = client.submit(spec, wait=True, include_result=True)
                status = client.status(full["job_id"], include_result=True)
                answers.append([summary, full, status])
            metrics = client.metrics()
    print(json.dumps({
        "answers": answers,
        "metrics": metrics,
        "loaded": [m for m in heavy if m in sys.modules],
    }))
"""


class TestHitOnlyServer:
    def test_hits_load_neither_numpy_nor_the_simulator(self, tmp_path):
        specs = [
            JobSpec("cora", kind, 0.05, n_layers=2)
            for kind in ("hymm", "op", "op-tiled")
        ]
        cache = ResultCache(tmp_path)
        assert SweepExecutor(cache=cache).run(specs).manifest.executed == 3
        report = run_python(
            HIT_ONLY_SERVER, str(tmp_path),
            json.dumps([s.to_dict() for s in specs]), json.dumps(HEAVY),
        )
        assert report["loaded"] == []
        assert report["metrics"]["executor_loaded"] is False
        assert report["metrics"]["cache"]["corrupt"] == 0
        for spec, (summary, full, status) in zip(specs, report["answers"]):
            expected = cache.load(spec).to_dict()
            for answer in (summary, full, status):
                assert answer["status"] == "done"
                assert answer["source"] == "cache-disk"
                assert answer["result_summary"]["cycles"] == expected["stats"]["cycles"]
            assert "result" not in summary
            for answer in (full, status):
                assert json.dumps(answer["result"], sort_keys=True) == json.dumps(
                    expected, sort_keys=True
                )


class TestExecutorLoad:
    def test_first_miss_loads_the_executor_under_a_span(self, tmp_path):
        spec = JobSpec("cora", "rwp", 0.05)
        recorder = ChromeTracer(clock="wall")
        previous = install_recorder(recorder)
        try:
            with ServerThread(cache=ResultCache(tmp_path)) as srv:
                with ServeClient(srv.host, srv.port) as client:
                    before = client.metrics()["executor_loaded"]
                    assert client.submit(spec.to_dict())["source"] == "executed"
                    assert client.submit(spec.to_dict())["source"] == "cache-disk"
                    after = client.metrics()["executor_loaded"]
                    exposition = client.metrics_prometheus()
        finally:
            install_recorder(previous)
        assert before is False and after is True
        loads = [
            e for e in recorder.trace_dict()["traceEvents"]
            if e.get("name") == "serve.load_executor"
        ]
        assert len(loads) == 1
        assert "repro_serve_executor_loaded 1" in exposition.splitlines()
        validate_exposition(exposition)
