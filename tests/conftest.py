import numpy as np
import pytest

from daodet.lid import LidProfile
from daodet.neighbors import NeighborGraph


def fake_graph(indices, distances, n_features=2) -> NeighborGraph:
    """Graph with hand-picked rows, for formula-level tests."""
    indices = np.asarray(indices, dtype=np.int64)
    distances = np.asarray(distances, dtype=np.float64)
    return NeighborGraph(
        indices=indices,
        distances=distances,
        kmax=indices.shape[1],
        n_features=n_features,
    )


def dao_kernel_data(rng, clip_bites):
    """A 60x12 fake graph and LIDs for DAO kernel tests. With ``clip_bites``
    the kdists spread over 26 decades and the ids reach the 4*d cap at d = 32,
    so some id * ln ratio exceeds the kernel's clip."""
    n, kmax = 60, 12
    indices = np.array([rng.choice(np.delete(np.arange(n), i), kmax, replace=False)
                        for i in range(n)])
    if clip_bites:
        distances = np.sort(np.exp(rng.uniform(-30.0, 30.0, (n, kmax))), axis=1)
        ids = rng.uniform(1.0, 128.0, n)
        ids[:10] = 128.0
    else:
        distances = np.sort(rng.uniform(0.5, 2.0, (n, kmax)), axis=1)
        ids = rng.uniform(0.5, 16.0, n)
    return fake_graph(indices, distances), ids


def fake_profile(ids, estimator="mle", k_used=2) -> LidProfile:
    ids = np.asarray(ids, dtype=np.float64)
    return LidProfile(estimator=estimator, k_used=k_used, ids=ids, log_ids=np.log(ids))


@pytest.fixture
def rng():
    return np.random.default_rng(20240612)
