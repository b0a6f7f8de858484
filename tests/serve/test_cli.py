"""``python -m repro.serve`` CLI: parser wiring and the client-side
subcommands against a live test server."""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.runtime import JobSpec, ResultCache
from repro.serve.cli import build_parser, main
from repro.serve.client import ServeClient
from repro.serve.server import ServerThread


@pytest.fixture(scope="module")
def spec():
    return JobSpec(dataset="cora", kind="rwp", scale=0.05)


@pytest.fixture()
def server(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    with ServerThread(cache=cache) as srv:
        yield srv


def endpoint(srv):
    return ["--host", srv.host, "--port", str(srv.port)]


class TestParser:
    def test_every_subcommand_parses(self):
        parser = build_parser()
        for argv in (
            ["serve", "--port", "0"],
            ["submit", "cora", "--kind", "rwp"],
            ["status", "abc", "--follow"],
            ["healthz"],
            ["metrics"],
            ["shutdown"],
            ["smoke"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.fn)

    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestSubmitStatus:
    def test_submit_prints_terminal_status(self, server, spec, capsys):
        rc = main(
            ["submit", "cora", "--kind", "rwp", "--scale", "0.05"]
            + endpoint(server)
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "done" in out
        assert "[executed]" in out

    def test_submit_json_round_trips(self, server, capsys):
        rc = main(
            ["submit", "cora", "--kind", "rwp", "--scale", "0.05", "--json"]
            + endpoint(server)
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "done"
        job_id = payload["job_id"]
        rc = main(["status", job_id, "--json"] + endpoint(server))
        assert rc == 0
        status = json.loads(capsys.readouterr().out)
        assert status["job_id"] == job_id

    def test_status_follow_prints_final(self, server, capsys):
        assert main(
            ["submit", "cora", "--kind", "rwp", "--scale", "0.05", "--json"]
            + endpoint(server)
        ) == 0
        submitted = json.loads(capsys.readouterr().out)
        rc = main(
            ["status", submitted["job_id"], "--follow"] + endpoint(server)
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "done" in out

    def test_healthz_and_metrics(self, server, capsys):
        assert main(["healthz"] + endpoint(server)) == 0
        health = json.loads(capsys.readouterr().out)
        assert health["status"] == "ok"
        assert main(["metrics"] + endpoint(server)) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert "jobs" in metrics

    def test_connection_refused_is_exit_2(self, capsys):
        rc = main(["healthz", "--host", "127.0.0.1", "--port", "1"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


def spawn_server(tmp_path, *args):
    """``repro.serve serve --port 0 *args`` in a child process whose
    ``TMPDIR`` is the fresh ``tmp_path / "tmp"``; returns the process
    and its ``(host, port)`` once it accepts."""
    ready = tmp_path / "ready"
    (tmp_path / "tmp").mkdir()
    env = dict(os.environ, TMPDIR=str(tmp_path / "tmp"))
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "serve", "--port", "0",
         "--ready-file", str(ready), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env,
    )
    deadline = time.monotonic() + 60
    while not ready.exists() or not ready.read_text().strip():
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            pytest.fail(f"server never came up: {proc.communicate()[1]}")
        time.sleep(0.05)
    host, port = ready.read_text().split()
    return proc, (host, int(port))


class TestServeProcess:
    def test_shutdown_with_idle_client_exits_cleanly(self, tmp_path):
        # An open, idle connection must not outlive shutdown as a
        # cancelled handler task (asyncio logs those as tracebacks).
        proc, (host, port) = spawn_server(tmp_path, "--no-cache")
        try:
            with socket.create_connection((host, port)):
                with ServeClient(host, port) as client:
                    assert client.shutdown()["stopping"] is True
                _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "Traceback" not in err, err
        assert not os.listdir(tmp_path / "tmp")

    def test_sigterm_removes_the_temporary_store(self, tmp_path, spec):
        proc, (host, port) = spawn_server(tmp_path, "--no-cache")
        try:
            with ServeClient(host, port) as client:
                assert client.submit(spec.to_dict())["status"] == "done"
            assert os.listdir(tmp_path / "tmp"), "the store lives in TMPDIR"
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "Traceback" not in err, err
        assert not os.listdir(tmp_path / "tmp")
