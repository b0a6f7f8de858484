"""Workload construction and the scale policy for benches.

Cycle-accurate simulation in Python is slow, so benches default to
per-dataset scale factors chosen to finish the full suite in minutes
while keeping every dataset's working set well above the DMB capacity
(so the locality effects the paper measures remain visible).  Setting
``REPRO_FULL_SCALE=1`` reruns at paper scale (Yelp and Flickr stay
reduced -- a 717k-node simulation is hours in Python; the cap is
documented in EXPERIMENTS.md).
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Optional, Tuple

from repro.gcn.model import GCNModel
from repro.graphs.registry import load_dataset

#: Table II order.
BENCH_DATASETS: Tuple[str, ...] = (
    "cora",
    "amazon-photo",
    "amazon-computers",
    "coauthor-cs",
    "coauthor-physics",
    "flickr",
    "yelp",
)

#: Default (fast) scales per dataset.
_FAST_SCALES = {
    "cora": 1.0,
    "amazon-photo": 0.4,
    "amazon-computers": 0.25,
    "coauthor-cs": 0.3,
    "coauthor-physics": 0.15,
    "flickr": 0.08,
    "yelp": 0.02,
}

#: Paper-scale run; the two largest graphs stay capped.
_FULL_SCALES = {
    "cora": 1.0,
    "amazon-photo": 1.0,
    "amazon-computers": 1.0,
    "coauthor-cs": 1.0,
    "coauthor-physics": 1.0,
    "flickr": 0.5,
    "yelp": 0.05,
}


def full_scale_requested() -> bool:
    """Whether the environment asks for paper-scale runs."""
    return os.environ.get("REPRO_FULL_SCALE", "") not in ("", "0")


def bench_scale(name: str) -> float:
    """The scale factor benches use for one dataset."""
    table = _FULL_SCALES if full_scale_requested() else _FAST_SCALES
    try:
        return table[name]
    except KeyError:
        raise KeyError(f"no bench scale for dataset {name!r}") from None


@lru_cache(maxsize=1)
def make_model(
    name: str,
    scale: float,
    n_layers: int = 1,
    seed: int = 0,
    feature_length: Optional[int] = None,
) -> GCNModel:
    """Build (and memoise) the GCN workload for one dataset.

    The memo holds one workload, the one in flight: a long-lived process
    (a serve process, a pool worker, a ``repro.bench`` run) keeps no
    model of a finished job.  Callers that run many jobs group them by
    workload (:class:`~repro.runtime.executor.SweepExecutor` does, in
    both lanes), so a sweep still builds each model once.

    ``feature_length`` overrides the registry's feature width (used by
    design-space sweeps); ``None`` keeps the dataset default.
    """
    kwargs = {} if feature_length is None else {"feature_length": feature_length}
    dataset = load_dataset(name, scale=scale, seed=seed, **kwargs)
    return GCNModel(dataset, n_layers=n_layers, seed=seed + 17)
