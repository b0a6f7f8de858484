"""Job specification: one simulation point with a stable fingerprint.

A :class:`JobSpec` pins down everything that determines a simulation's
outcome -- the workload (dataset, scale, layers, seeds), the
accelerator (kind, optional config, optional sort mode) -- and nothing
that doesn't (worker count, cache location).  Its fingerprint is a
SHA-256 over the canonical JSON form of those fields plus the result
schema version and :func:`code_digest`, a hash of the source that
computes results, so two processes (or two sessions, or two CI runs)
of the same code computing the fingerprint of the same point always
agree, and any change that could alter results (a field, the result
schema, a byte of that source) changes the key.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

import repro
from repro.hymm.config import HyMMConfig

#: Packages (every ``.py`` under each) and modules of ``repro`` whose
#: source determines a job's result: the simulator, the accelerators,
#: the model and dataset code, the workload builder, and the map from
#: a job's kind to its accelerator.
CODE_PACKAGES = ("baselines", "gcn", "graphs", "hymm", "sim", "sparse")
CODE_MODULES = ("bench/workloads.py", "runtime/execute.py")

#: Version of the JobSpec/RunResult wire format.  Bump whenever the
#: canonical payload or the serialised result layout changes; every
#: fingerprint (and therefore every cache key) changes with it.
#: v2: HyMM's "random" sort permutation is now drawn from the job's
#: ``seed`` instead of a constant, so cached random-sort points from
#: v1 no longer describe what the simulator would compute.
#: v3: ``RunResult`` gained per-phase SimStats snapshots
#: (``phase_snapshots``), so v2 cache records lack fields the current
#: deserialiser requires.
#: v4: cache records keep output matrices as content-addressed ``.npy``
#: blobs (``{"blob", "dtype", "shape"}``) instead of inline base64.
#: v5: ``RunResult`` keeps one per-phase counter record
#: (``phase_snapshots`` plus ``phase_occupancy``); v4 records carry
#: ``phase_cycles``/``phase_stats`` and lack ``phase_occupancy``.
#: v6: cache records are zlib-compressed JSON under the same names, and
#: ``RunResult.extra`` no longer carries the node permutation.
#: v7: the payload keys the code by :func:`code_digest`, a hash of the
#: result-computing source, in place of the package version.
SCHEMA_VERSION = 7


def code_files(root: str) -> List[str]:
    """The result-determining source files under the package directory
    ``root``, as sorted ``/``-separated paths relative to it."""
    names = list(CODE_MODULES)
    for pkg in CODE_PACKAGES:
        for base, _, files in os.walk(os.path.join(root, pkg)):
            rel = os.path.relpath(base, root).replace(os.sep, "/")
            names += [f"{rel}/{name}" for name in files if name.endswith(".py")]
    return sorted(names)


@functools.lru_cache(maxsize=1)
def code_digest() -> str:
    """SHA-256 over the path and bytes of each of this package's
    :func:`code_files`, read without importing them, once per process."""
    root = os.path.dirname(repro.__file__)
    digest = hashlib.sha256()
    buf = bytearray(1 << 16)
    for name in code_files(root):
        with open(os.path.join(root, name), "rb") as fh:
            digest.update(f"{name}\0{os.fstat(fh.fileno()).st_size}\0".encode())
            while n := fh.readinto(buf):
                digest.update(memoryview(buf)[:n])
    return digest.hexdigest()


@dataclass(frozen=True)
class JobSpec:
    """One (workload, accelerator) simulation point.

    ``config=None`` means "the accelerator's own default configuration"
    (HyMM's unified buffer, the baselines' split buffers) and is a
    *different* point from an explicit ``HyMMConfig()``.  ``sort_mode``
    and ``feature_length`` default to ``None`` = the model/accelerator
    defaults, so ordinary bench points fingerprint identically whether
    or not the caller spells them out.
    """

    dataset: str
    kind: str
    scale: float
    n_layers: int = 1
    seed: int = 0
    config: Optional[HyMMConfig] = None
    sort_mode: Optional[str] = None
    feature_length: Optional[int] = None
    #: Telemetry correlation ID (minted at /submit, carried into worker
    #: processes so log records and spans join up).  Deliberately
    #: EXCLUDED from the canonical payload: two submits of the same
    #: point must share a fingerprint -- and a cache key -- no matter
    #: which request carried them.
    corr_id: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.dataset:
            raise ValueError("dataset must be non-empty")
        if not self.kind:
            raise ValueError("kind must be non-empty")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.n_layers <= 0:
            raise ValueError("n_layers must be positive")

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------
    def canonical_payload(self) -> Dict[str, Any]:
        """The exact dict the fingerprint hashes (useful in tests and
        for debugging cache keys)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "code": code_digest(),
            "dataset": self.dataset,
            "kind": self.kind,
            "scale": self.scale,
            "n_layers": self.n_layers,
            "seed": self.seed,
            "config": None if self.config is None else self.config.to_dict(),
            "sort_mode": self.sort_mode,
            "feature_length": self.feature_length,
        }

    def fingerprint(self) -> str:
        """Stable SHA-256 hex digest of the canonical payload."""
        blob = json.dumps(
            self.canonical_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Serialisation (manifests, cache records)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "dataset": self.dataset,
            "kind": self.kind,
            "scale": self.scale,
            "n_layers": self.n_layers,
            "seed": self.seed,
            "config": None if self.config is None else self.config.to_dict(),
            "sort_mode": self.sort_mode,
            "feature_length": self.feature_length,
            "corr_id": self.corr_id,
        }
        if self.corr_id is None:
            # A spec that never passed through /submit serialises
            # byte-identically to the pre-telemetry format.
            del doc["corr_id"]
        return doc

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        cfg = data.get("config")
        return cls(
            dataset=data["dataset"],
            kind=data["kind"],
            scale=data["scale"],
            n_layers=data.get("n_layers", 1),
            seed=data.get("seed", 0),
            config=None if cfg is None else HyMMConfig.from_dict(cfg),
            sort_mode=data.get("sort_mode"),
            feature_length=data.get("feature_length"),
            corr_id=data.get("corr_id"),
        )

    def with_overrides(self, **config_overrides) -> "JobSpec":
        """A copy whose config applies ``config_overrides`` on top of the
        current config (or on top of ``HyMMConfig()`` if none)."""
        base = self.config if self.config is not None else HyMMConfig()
        return replace(self, config=base.with_overrides(**config_overrides))

    def describe(self) -> str:
        """Short human label for progress lines ("hymm/cora@0.05")."""
        label = f"{self.kind}/{self.dataset}@{self.scale:g}"
        if self.sort_mode is not None:
            label += f" sort={self.sort_mode}"
        if self.config is not None:
            label += " [custom cfg]"
        return label
