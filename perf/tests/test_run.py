"""End-to-end runs of ``perf/run.py`` as a subprocess."""

import json
import shutil
import subprocess
import sys
import time

import workloads

RUN = workloads.PERF / "run.py"


def run(args, cwd=workloads.ROOT, timeout=120, script=RUN):
    return subprocess.run([sys.executable, str(script)] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)


def test_smoke_runs_every_workload_end_to_end_in_under_a_minute():
    started = time.monotonic()
    proc = run(["--smoke", "--seed", "0"], timeout=60)
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr[-2000:]
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] and final["failed"] == 0
    assert set(final["workloads"]) == set(workloads.WORKLOADS)
    declared = {m["name"] for m in json.loads(
        (workloads.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for report in final["workloads"].values():
        assert set(report["metrics"]) == declared
        assert all(m["value"] > 0 for m in report["metrics"].values())
    assert elapsed < 60


def _copy_benchmark(dest):
    """``BENCHMARK.json`` and ``perf/`` in ``dest``, as a checkout has them."""
    shutil.copy(workloads.ROOT / "BENCHMARK.json", dest)
    shutil.copytree(workloads.PERF, dest / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))


def test_tampered_expected_digest_fails_the_run(tmp_path):
    _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(workloads.SRC)
    path = tmp_path / "perf" / "expected.json"
    expected = json.loads(path.read_text())
    key = "cora@0.3/hymm/L2/s0"
    expected["digests"][key] = "0" * 64
    path.write_text(json.dumps(expected))
    proc = run(["--workload", "cold-lowmiss", "--smoke", "--seed", "0"],
               cwd=tmp_path, script=tmp_path / "perf" / "run.py")
    assert proc.returncode != 0
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] is False and final["failed"] >= 1
    assert key in proc.stderr


def test_without_the_product_it_fails_without_a_result(tmp_path):
    _copy_benchmark(tmp_path)
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "serve-hit", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
