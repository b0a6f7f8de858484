"""``scripts/check_store.py`` passes a clean store and fails each planted
layout fault, reading the compressed records through the store's own
reader."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro.runtime import JobSpec, ResultCache, SweepExecutor
from repro.runtime.cache import BLOB_SUFFIX, BlobStore
from repro.runtime.serialize import array_to_dict
from tests.store_records import edited_record, read_record

SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "check_store.py"


@pytest.fixture(scope="module")
def check_store():
    spec = importlib.util.spec_from_file_location("check_store", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.fixture(scope="module")
def clean_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("store")
    specs = [JobSpec("cora", kind, 0.05, n_layers=2) for kind in ("rwp", "hymm")]
    sweep = SweepExecutor(n_jobs=1, cache=ResultCache(root)).run(specs)
    assert sweep.manifest.executed == len(specs)
    return root


def _records(root):
    return sorted(root.glob("??/??/*.json"))


def _traces(root, phase_suffix):
    return [p for p in sorted((root / "traces").rglob("*.json"))
            if read_record(p)["phase"].endswith(phase_suffix)]


def test_clean_store_passes(clean_store):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(clean_store)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stderr
    assert proc.stdout.split()[0] == "records"


def _inline_array(root):
    with edited_record(_records(root)[0]) as record:
        record["result"]["outputs"][0] = array_to_dict(np.ones((2, 2)))


def _unnamed_blob(root):
    BlobStore(root / "blobs").put(np.arange(5.0))


def _combination_output(root):
    ref = read_record(_records(root)[0])["result"]["outputs"][0]
    with edited_record(_traces(root, ".aggregation")[0]) as record:
        record["combination"]["output"] = ref


def _trace_without_output(root):
    with edited_record(_traces(root, ".aggregation")[0]) as record:
        del record["output"]


def _combination_state(key):
    def plant(root):
        with edited_record(_traces(root, ".aggregation")[0]) as record:
            record["combination"][key] = record[key]

    plant.__name__ = f"_combination_{key}"
    return plant


def _plain_json_record(root):
    path = _records(root)[0]
    path.write_text(json.dumps(read_record(path)), encoding="utf-8")


def _blobs(root):
    return sorted((root / "blobs").glob(f"??/*{BLOB_SUFFIX}"))


def _stray_npy(root):
    blob = _blobs(root)[0]
    shutil.copy(blob, root / blob.name)


def _raw_npy(root):
    """A blob in the raw layout of job schema 7 and earlier."""
    np.save(_blobs(root)[0].with_suffix(".npy"), np.zeros(3))


def _flipped_blob(root):
    blob = _blobs(root)[0]
    data = bytearray(blob.read_bytes())
    data[-1] ^= 0x01
    blob.write_bytes(bytes(data))


def _blob_not_zlib(root):
    data = b"not a zlib stream"
    digest = hashlib.sha256(data).hexdigest()
    path = root / "blobs" / digest[:2] / f"{digest}{BLOB_SUFFIX}"
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(data)


def _reference_mismatch(root):
    with edited_record(_records(root)[0]) as record:
        record["result"]["outputs"][0]["shape"] = [1, 2]


def _misplaced_trace(root):
    shutil.copy(_traces(root, ".aggregation")[0], root / "traces" / "loose.json")


def _no_blob_dir(root):
    shutil.rmtree(root / "blobs")


@pytest.mark.parametrize("plant,message", [
    (_inline_array, "inline array"),
    (_unnamed_blob, "no result or trace record names"),
    (_combination_output, "naming 2 output blobs"),
    (_trace_without_output, "naming 0 output blobs"),
    (_combination_state("buffer"), "stores combination state ['buffer']"),
    (_combination_state("engine"), "stores combination state ['engine']"),
    (_combination_state("dram_next_free"),
     "stores combination state ['dram_next_free']"),
    (_plain_json_record, "unreadable"),
    (_stray_npy, "blob outside"),
    (_raw_npy, "raw .npy file"),
    (_flipped_blob, "does not hash to its name"),
    (_blob_not_zlib, "does not inflate"),
    (_reference_mismatch, "names it as float32[1, 2]"),
    (_misplaced_trace, "trace record outside"),
    (_no_blob_dir, "is missing"),
])
def test_planted_fault_fails(
    tmp_path, clean_store, check_store, capsys, plant, message
):
    root = tmp_path / "store"
    shutil.copytree(clean_store, root)
    assert check_store([str(root)]) == 0
    capsys.readouterr()
    plant(root)
    assert check_store([str(root)]) == 1
    assert message in capsys.readouterr().err
