"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gcn import GCNModel
from repro.graphs import GraphDataset, load_dataset
from repro.graphs.synthetic import power_law_graph, sparse_feature_matrix
from repro.hymm import HyMMConfig
from repro.sim import DRAM, DRAMConfig, SimStats
from repro.sparse import COOMatrix


@pytest.fixture(autouse=True)
def _isolated_runtime(tmp_path, monkeypatch):
    """Keep the persistent result cache out of the real home directory
    and reset the process-wide runtime defaults after every test (which
    also removes the runner's private store, if the test made one)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "hymm-cache"))
    yield
    from repro.bench import runner

    runner.configure_runtime(n_jobs=1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_coo():
    """A fixed 4x5 sparse matrix with known structure."""
    dense = np.array(
        [
            [1.0, 0.0, 2.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 3.0, 0.0],
            [4.0, 5.0, 0.0, 0.0, 6.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
        ],
        dtype=np.float32,
    )
    return COOMatrix.from_dense(dense)


@pytest.fixture
def small_graph():
    """A deterministic 64-node power-law graph."""
    return power_law_graph(64, 256, seed=7)


@pytest.fixture
def tiny_dataset():
    """A very small dataset for fast end-to-end runs."""
    adjacency = power_law_graph(48, 192, seed=3)
    features = sparse_feature_matrix(48, 32, density=0.2, seed=4)
    return GraphDataset("tiny", adjacency, features, hidden_dim=16)


@pytest.fixture
def cora_small():
    """A scaled-down Cora instance (deterministic)."""
    return load_dataset("cora", scale=0.05, seed=0)


@pytest.fixture
def tiny_model(tiny_dataset):
    return GCNModel(tiny_dataset, n_layers=1, seed=9)


@pytest.fixture
def config():
    return HyMMConfig()


@pytest.fixture
def stats():
    return SimStats()


@pytest.fixture
def dram(stats):
    return DRAM(DRAMConfig(), stats)
