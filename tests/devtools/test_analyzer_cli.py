"""End-to-end tests for ``python -m repro.devtools.analyzer``.

Each test builds a throwaway ``src/repro/...`` tree in tmp_path so the
CLI sees realistic module names, then drives ``cli.main`` directly and
asserts on exit codes and output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.devtools.analyzer import cli
from repro.devtools.analyzer.baseline import PLACEHOLDER_REASON, Baseline

DIRTY_MODULE = """\
import time


def stamp():
    return time.time()
"""

CLEAN_MODULE = """\
def stamp(now: float) -> float:
    return now
"""


def make_tree(root: Path, source: str) -> Path:
    pkg = root / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (root / "src" / "repro" / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "clock.py").write_text(source, encoding="utf-8")
    return root / "src"


def run_cli(args, capsys):
    code = cli.main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        src = make_tree(tmp_path, CLEAN_MODULE)
        code, out, _ = run_cli([src], capsys)
        assert code == 0
        assert "0 finding(s)" in out

    def test_error_findings_exit_one(self, tmp_path, capsys):
        src = make_tree(tmp_path, DIRTY_MODULE)
        code, out, _ = run_cli([src], capsys)
        assert code == 1
        assert "determinism" in out
        assert "clock.py" in out

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        src = make_tree(tmp_path, CLEAN_MODULE)
        code, _, err = run_cli([src, "--rules", "no-such-rule"], capsys)
        assert code == 2
        assert "no-such-rule" in err

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="pyproject config needs tomllib"
    )
    def test_unknown_rule_table_is_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # A leftover table for a removed rule must not configure
        # nothing, silently.
        src = make_tree(tmp_path, CLEAN_MODULE)
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-analyzer.rules.serve-hygiene]\nseverity = "error"\n',
            encoding="utf-8",
        )
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli([src], capsys)
        assert code == 2
        assert "unknown rule(s): serve-hygiene" in err

    def test_syntax_error_is_reported(self, tmp_path, capsys):
        src = make_tree(tmp_path, "def broken(:\n")
        code, _, err = run_cli([src], capsys)
        assert code == 2
        assert "cannot parse" in err
        # The offending path must be named, or a tree-wide run gives
        # the user nothing to fix.
        assert "clock.py" in err

    def test_empty_scope_is_clean_success(self, tmp_path, capsys):
        empty = tmp_path / "src"
        empty.mkdir()
        code, out, _ = run_cli([empty], capsys)
        assert code == 0
        assert "0 finding(s)" in out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli([tmp_path / "no-such-dir"], capsys)
        assert code == 2
        assert "no such path" in err


class TestJsonFormat:
    def test_findings_are_machine_readable(self, tmp_path, capsys):
        src = make_tree(tmp_path, DIRTY_MODULE)
        code, out, _ = run_cli([src, "--format", "json"], capsys)
        assert code == 1
        payload = json.loads(out)
        [finding] = payload["findings"]
        assert finding["rule"] == "determinism"
        assert finding["line"] == 5
        assert finding["severity"] == "error"
        assert finding["key"].startswith("determinism::")
        assert payload["baselined"] == []
        assert payload["stale_baseline_keys"] == []

    def test_clean_tree_emits_empty_list(self, tmp_path, capsys):
        src = make_tree(tmp_path, CLEAN_MODULE)
        code, out, _ = run_cli([src, "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["findings"] == []


class TestBaseline:
    def test_write_then_check_round_trips(self, tmp_path, capsys):
        src = make_tree(tmp_path, DIRTY_MODULE)
        baseline = tmp_path / "baseline.json"

        code, _, _ = run_cli([src, "--write-baseline", "--baseline", baseline], capsys)
        assert code == 0
        data = json.loads(baseline.read_text(encoding="utf-8"))
        assert data["version"] == 1
        assert all(e["reason"] == PLACEHOLDER_REASON for e in data["findings"])
        assert all(e["key"].startswith("determinism::") for e in data["findings"])

        # Same tree + baseline: the known finding is suppressed.
        code, out, _ = run_cli([src, "--baseline", baseline], capsys)
        assert code == 0
        assert "baselined" in out

    def test_new_finding_still_fails(self, tmp_path, capsys):
        src = make_tree(tmp_path, DIRTY_MODULE)
        baseline = tmp_path / "baseline.json"
        run_cli([src, "--write-baseline", "--baseline", baseline], capsys)

        # Baseline keys are line-insensitive, so a *different* hazard is
        # needed to register as new (a second time.time() shares the key).
        clock = src / "repro" / "sim" / "clock.py"
        clock.write_text(
            "from datetime import datetime\n" + DIRTY_MODULE
            + "\n\ndef stamp2():\n    return datetime.now()\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli([src, "--baseline", baseline], capsys)
        assert code == 1
        assert "datetime" in out
        assert "baselined" in out  # the original finding stays suppressed

    def test_stale_entries_are_reported(self, tmp_path, capsys):
        src = make_tree(tmp_path, DIRTY_MODULE)
        baseline = tmp_path / "baseline.json"
        run_cli([src, "--write-baseline", "--baseline", baseline], capsys)

        (src / "repro" / "sim" / "clock.py").write_text(CLEAN_MODULE, encoding="utf-8")
        code, out, _ = run_cli([src, "--baseline", baseline], capsys)
        assert code == 0
        assert "stale" in out

    def test_malformed_baseline_is_usage_error(self, tmp_path, capsys):
        src = make_tree(tmp_path, CLEAN_MODULE)
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"version": 1, "findings": [{"reason": "no key"}]}', encoding="utf-8")
        code, _, err = run_cli([src, "--baseline", baseline], capsys)
        assert code == 2
        assert "key" in err

    def test_baseline_reasons_survive_rewrite(self, tmp_path):
        b = Baseline(reasons={"determinism::a.py::x": "vetted 2026-08"})
        path = tmp_path / "b.json"
        b.dump(path)
        assert Baseline.load(path).reasons == b.reasons


class TestInlineSuppression:
    def test_allow_comment_silences_finding(self, tmp_path, capsys):
        src = make_tree(
            tmp_path,
            "import time\n\n\ndef stamp():\n"
            "    return time.time()  # analyzer: allow[determinism] -- test\n",
        )
        code, out, _ = run_cli([src], capsys)
        assert code == 0
        assert "0 finding(s)" in out


class TestInlineSuppressionStaleness:
    def test_unused_allow_comment_is_warned(self, tmp_path, capsys):
        src = make_tree(
            tmp_path,
            "def stamp(now: float) -> float:\n"
            "    return now  # analyzer: allow[determinism] -- obsolete\n",
        )
        code, out, _ = run_cli([src], capsys)
        assert code == 0  # warning severity: reported, not failing
        assert "stale-suppression" in out
        assert "allow[determinism]" in out

    def test_stale_warning_fails_strict(self, tmp_path, capsys):
        src = make_tree(
            tmp_path,
            "def stamp(now: float) -> float:\n"
            "    return now  # analyzer: allow\n",
        )
        code, out, _ = run_cli([src, "--strict"], capsys)
        assert code == 1
        assert "stale-suppression" in out

    def test_partial_rule_run_does_not_report_stale(self, tmp_path, capsys):
        # With --rules, unexecuted rules' suppressions would all look
        # unused; staleness reporting must stay off.
        src = make_tree(
            tmp_path,
            "def stamp(now: float) -> float:\n"
            "    return now  # analyzer: allow[wire-schema]\n",
        )
        code, out, _ = run_cli([src, "--rules", "determinism"], capsys)
        assert code == 0
        assert "stale-suppression" not in out

    def test_docstring_mention_is_not_a_suppression(self, tmp_path, capsys):
        # Only COMMENT tokens count: prose describing the syntax must
        # neither suppress nor be reported stale.
        src = make_tree(
            tmp_path,
            '"""Docs: write `# analyzer: allow[determinism]` inline."""\n'
            "import time\n\n\ndef stamp():\n    return time.time()\n",
        )
        code, out, _ = run_cli([src], capsys)
        assert code == 1  # the finding on time.time() is NOT suppressed
        assert "determinism" in out
        assert "stale-suppression" not in out

    def test_used_allow_comment_is_not_stale(self, tmp_path, capsys):
        src = make_tree(
            tmp_path,
            "import time\n\n\ndef stamp():\n"
            "    return time.time()  # analyzer: allow[determinism]\n",
        )
        code, out, _ = run_cli([src], capsys)
        assert code == 0
        assert "stale-suppression" not in out


class TestGithubFormat:
    def test_error_annotation_shape(self, tmp_path, capsys):
        src = make_tree(tmp_path, DIRTY_MODULE)
        code, out, _ = run_cli([src, "--format", "github"], capsys)
        assert code == 1
        [annotation] = [l for l in out.splitlines() if l.startswith("::")]
        assert annotation.startswith("::error file=")
        assert "clock.py" in annotation
        assert ",line=5," in annotation
        assert "title=analyzer determinism" in annotation

    def test_message_newlines_are_escaped(self):
        assert cli._escape_github("a\nb%c") == "a%0Ab%25c"

    def test_clean_tree_emits_no_annotations(self, tmp_path, capsys):
        src = make_tree(tmp_path, CLEAN_MODULE)
        code, out, _ = run_cli([src, "--format", "github"], capsys)
        assert code == 0
        assert "::error" not in out
        assert "::warning" not in out


class TestTimeBudget:
    def test_generous_budget_passes(self, tmp_path, capsys):
        src = make_tree(tmp_path, CLEAN_MODULE)
        code, _, err = run_cli([src, "--time-budget", "60"], capsys)
        assert code == 0
        assert "time-budget" not in err

    def test_exceeded_budget_fails(self, tmp_path, capsys):
        src = make_tree(tmp_path, CLEAN_MODULE)
        code, _, err = run_cli([src, "--time-budget", "0"], capsys)
        assert code == 1
        assert "over the --time-budget" in err


class TestListRules:
    def test_output_locked_to_registry(self, capsys):
        from repro.devtools.analyzer.core import REGISTRY

        code, out, _ = run_cli(["--list-rules"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == len(REGISTRY)
        for name, rule_cls in REGISTRY.items():
            [line] = [l for l in lines if l.startswith(name)]
            assert rule_cls.default_severity in line

    def test_interprocedural_rules_registered(self, capsys):
        code, out, _ = run_cli(["--list-rules"], capsys)
        assert code == 0
        for name in (
            "await-atomicity",
            "loop-affinity",
            "transitive-blocking",
            "determinism",
            "wire-schema",
            "stats-conservation",
            "config-hygiene",
            "mutable-state",
            "obs-hygiene",
        ):
            assert name in out
