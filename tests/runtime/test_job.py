"""JobSpec: fingerprint stability, sensitivity, serialisation."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import repro
from repro.hymm import HyMMConfig
from repro.runtime import SCHEMA_VERSION, JobSpec
from repro.runtime.job import code_digest, code_files

PACKAGE = pathlib.Path(repro.__file__).resolve().parent

#: ``repro`` source a job loads whose bytes are not hashed into its
#: key, each with the reason it cannot change a result.  A directory
#: entry (ending in ``/``) covers every file under it.
NOT_HASHED = {
    "__init__.py": "package init: lazy re-exports, computes nothing",
    "_lazy.py": "the lazy re-export helper",
    "bench/__init__.py": "package init: lazy re-exports",
    "obs/__init__.py": "package init: re-exports",
    "obs/tracer.py": "simulated-time tracing, which never changes a result",
    "runtime/__init__.py": "package init: lazy re-exports",
    "runtime/cache.py": "the store: record and trace layout is covered by "
                        "SCHEMA_VERSION",
    "runtime/job.py": "the key itself: every field is in the payload",
    "runtime/serialize.py": "the wire form, covered by SCHEMA_VERSION",
    "telemetry/": "wall-clock logs, metrics and spans, which only observe",
}


def _python(code, src, timeout=300):
    """Run ``code`` in a fresh interpreter importing ``repro`` from
    ``src``; returns its stripped stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True, timeout=timeout,
    ).stdout.strip()


def _spec(**overrides):
    base = dict(dataset="cora", kind="hymm", scale=0.05, n_layers=1, seed=0)
    base.update(overrides)
    return JobSpec(**base)


class TestFingerprint:
    def test_deterministic_within_process(self):
        assert _spec().fingerprint() == _spec().fingerprint()

    def test_hex_sha256(self):
        fp = _spec().fingerprint()
        assert len(fp) == 64
        int(fp, 16)  # valid hex

    def test_stable_across_processes(self):
        """The cache key must be reproducible from a cold interpreter."""
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        code = (
            "from repro.runtime import JobSpec;"
            "print(JobSpec(dataset='cora', kind='hymm', scale=0.05).fingerprint())"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == JobSpec(
            dataset="cora", kind="hymm", scale=0.05
        ).fingerprint()

    @pytest.mark.parametrize("field,value", [
        ("dataset", "flickr"),
        ("kind", "rwp"),
        ("scale", 0.1),
        ("n_layers", 2),
        ("seed", 1),
        ("sort_mode", "none"),
        ("feature_length", 64),
        ("config", HyMMConfig()),
    ])
    def test_every_field_changes_fingerprint(self, field, value):
        assert _spec().fingerprint() != _spec(**{field: value}).fingerprint()

    def test_none_config_differs_from_default_config(self):
        """config=None means "accelerator default" (baselines use split
        buffers), a different point from an explicit HyMMConfig()."""
        assert _spec(config=None).fingerprint() != _spec(
            config=HyMMConfig()
        ).fingerprint()

    def test_config_override_changes_fingerprint(self):
        a = _spec(config=HyMMConfig())
        b = a.with_overrides(dmb_bytes=64 * 1024)
        assert a.fingerprint() != b.fingerprint()

    def test_payload_embeds_schema_version(self):
        assert _spec().canonical_payload()["schema_version"] == SCHEMA_VERSION


class TestCodeKey:
    def test_payload_embeds_code_digest(self):
        assert _spec().canonical_payload()["code"] == code_digest()
        files = code_files(str(PACKAGE))
        assert {"sim/engine.py", "bench/workloads.py",
                "runtime/execute.py"} <= set(files)
        assert files == sorted(files)

    def test_every_module_a_job_loads_is_hashed_or_allowed(self, tmp_path):
        """A fresh interpreter runs a tiny job of every kind, through
        the executor's path: each ``repro`` file it loads is hashed into
        the key or listed in ``NOT_HASHED`` with its reason."""
        code = f"""
import json, pathlib, sys
import repro
from repro.runtime import JobSpec, execute_job
for kind in ("hymm", "rwp", "op", "op-deferred", "op-tiled", "gcod", "cwp"):
    execute_job(JobSpec("cora", kind, 0.05), cache_dir={str(tmp_path)!r})
root = pathlib.Path(repro.__file__).resolve().parent
print(json.dumps(sorted(
    pathlib.Path(module.__file__).resolve().relative_to(root).as_posix()
    for name, module in list(sys.modules.items())
    if name == "repro" or name.startswith("repro.")
)))
"""
        loaded = json.loads(_python(code, PACKAGE.parent).splitlines()[-1])
        hashed = set(code_files(str(PACKAGE)))
        unkeyed = [
            name for name in loaded
            if name not in hashed and name not in NOT_HASHED
            and not any(name.startswith(d) for d in NOT_HASHED if d.endswith("/"))
        ]
        assert unkeyed == []
        assert hashed & set(loaded)

    def test_source_bytes_change_the_fingerprint(self, tmp_path):
        """On a copy of the package: the copy keys a job as this tree
        does, an edit to an unhashed file keeps the key, and an edit to
        a hashed one changes it."""
        src = tmp_path / "src"
        shutil.copytree(PACKAGE, src / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code = ("from repro.runtime import JobSpec;"
                "print(JobSpec('cora', 'hymm', 0.05).fingerprint())")
        fingerprint = JobSpec("cora", "hymm", 0.05).fingerprint()
        assert _python(code, src) == fingerprint
        with open(src / "repro" / "serve" / "server.py", "a") as fh:
            fh.write("\n# an edit outside the hashed source\n")
        assert _python(code, src) == fingerprint
        with open(src / "repro" / "sim" / "engine.py", "a") as fh:
            fh.write("\n# an edit to the simulator\n")
        assert _python(code, src) != fingerprint


class TestValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            _spec(scale=0.0)
        with pytest.raises(ValueError):
            _spec(n_layers=0)
        with pytest.raises(ValueError):
            _spec(dataset="")
        with pytest.raises(ValueError):
            _spec(kind="")


class TestSerialisation:
    def test_round_trip_plain(self):
        spec = _spec()
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_round_trip_with_config(self):
        spec = _spec(config=HyMMConfig(dmb_bytes=64 * 1024, lru=False),
                     sort_mode="random")
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_config_from_dict_rejects_unknown_fields(self):
        data = HyMMConfig().to_dict()
        data["warp_drive"] = True
        with pytest.raises(ValueError):
            HyMMConfig.from_dict(data)

    def test_describe_mentions_kind_and_dataset(self):
        assert "hymm" in _spec().describe()
        assert "cora" in _spec().describe()
