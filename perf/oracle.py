"""Correctness gate: stats digests, the GCN oracle and expected digests.

Every job result the benchmark touches is checked after the timed
window:

* its stats digest -- SHA-256 of the canonical JSON of
  ``stats.to_dict()`` and every phase snapshot -- must equal the one
  committed in ``expected.json`` when that file has the job (it holds
  every job a ``--seed 0`` run makes, normal and ``--smoke``);
* its per-layer outputs must match ``GCNModel.forward()`` of the same
  workload at the tier-1 tolerance.

``python perf/run.py --regen-expected`` rewrites ``expected.json``, and
refuses to unless the scalar and batched engines give the same digest
for every job.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from typing import Dict, Iterable, List, Optional

import numpy as np

#: Tier-1 tolerance of simulated outputs against the NumPy oracle.
RTOL, ATOL = 1e-2, 1e-3

#: The seed ``expected.json`` is generated for.
EXPECTED_SEED = 0


def digest(result) -> str:
    """Stats digest of one ``RunResult``."""
    doc = {
        "stats": result.stats.to_dict(),
        "phase_snapshots": {
            name: snap.to_dict() for name, snap in result.phase_snapshots.items()
        },
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def label(spec) -> str:
    """Stable human key of one job ("cora@1/hymm/L2/s3")."""
    return f"{spec.dataset}@{spec.scale:g}/{spec.kind}/L{spec.n_layers}/s{spec.seed}"


def model_for(spec):
    """The workload model the product builds for ``spec``."""
    from repro.bench.workloads import make_model

    return make_model(spec.dataset, spec.scale, n_layers=spec.n_layers,
                      seed=spec.seed, feature_length=spec.feature_length)


def outputs_match(result, expected: List[np.ndarray]) -> bool:
    if len(result.outputs) != len(expected):
        return False
    return all(
        got.shape == want.shape and np.allclose(got, want, rtol=RTOL, atol=ATOL)
        for got, want in zip(result.outputs, expected)
    )


def load_result(cache_dir, spec):
    """Read one result back from ``cache_dir`` through the public cache
    classes: the flat ``ResultCache`` a sweep writes, then the sharded
    one the server writes (when the product still has it)."""
    import repro.runtime as runtime

    result = runtime.ResultCache(cache_dir).load(spec)
    sharded = getattr(runtime, "ShardedResultCache", None)
    if result is None and sharded is not None:
        result = sharded(cache_dir).load(spec)
    return result


class Gate:
    """Counts checked operations and failures of one run."""

    def __init__(self, expected: Dict[str, str], seed: int) -> None:
        self.expected = expected
        #: With the seed ``expected.json`` was made for, a job missing
        #: from it is a failure, not a skip.
        self.strict = seed == EXPECTED_SEED
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._forward: Dict[tuple, List[np.ndarray]] = {}

    def oracle(self, spec) -> List[np.ndarray]:
        key = (spec.dataset, spec.scale, spec.n_layers, spec.seed,
               spec.feature_length)
        if key not in self._forward:
            self._forward[key] = model_for(spec).forward()
        return self._forward[key]

    def count(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
            print(f"perf: FAIL {what}", file=sys.stderr)
        return ok

    def check_result(self, spec, result) -> Optional[str]:
        """Digest and oracle checks of one result; returns its digest."""
        name = label(spec)
        if not self.count(result is not None, f"{name}: no result in the store"):
            return None
        got = digest(result)
        want = self.expected.get(name)
        if want is not None or self.strict:
            self.count(got == want, f"{name}: digest {got[:12]} != expected "
                       f"{(want or 'none')[:12]}")
        self.count(outputs_match(result, self.oracle(spec)),
                   f"{name}: outputs differ from GCNModel.forward()")
        return got


def load_expected(path) -> Dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("seed") != EXPECTED_SEED:
        raise ValueError(f"{path}: expected digests are for seed "
                         f"{doc.get('seed')}, not {EXPECTED_SEED}")
    return dict(doc["digests"])


def regen(specs: Iterable, path) -> int:
    """Write ``expected.json`` for ``specs``; refuses (returns 1) unless
    the scalar and batched engines agree on every digest."""
    from repro.runtime import make_accelerator

    digests: Dict[str, str] = {}
    disagree = []
    for spec in specs:
        model = model_for(spec)
        per_engine = {}
        for engine in ("batched", "scalar"):
            acc = make_accelerator(spec.kind, spec.config, spec.sort_mode,
                                   seed=spec.seed)
            acc.config = dataclasses.replace(acc.config, engine=engine)
            result = acc.run_inference(model, replay_session=None)
            per_engine[engine] = digest(result)
            if not outputs_match(result, model.forward()):
                disagree.append(f"{label(spec)}: {engine} outputs != oracle")
        if per_engine["batched"] != per_engine["scalar"]:
            disagree.append(f"{label(spec)}: scalar and batched digests differ")
        digests[label(spec)] = per_engine["batched"]
        print(f"  {label(spec)} {per_engine['batched'][:16]}", file=sys.stderr)
    if disagree:
        for line in disagree:
            print(f"perf: regen refused: {line}", file=sys.stderr)
        return 1
    doc = {"seed": EXPECTED_SEED, "digests": dict(sorted(digests.items()))}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {path}", file=sys.stderr)
    return 0
