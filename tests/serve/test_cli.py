"""``python -m repro.serve`` CLI: parser wiring and the client-side
subcommands against a live test server."""

import json

import pytest

from repro.runtime import JobSpec, ResultCache
from repro.serve.cli import build_parser, main
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
            ["bench-hitpath", "--requests", "3"],
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
