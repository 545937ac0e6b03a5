"""Real wall-clock microbenchmarks of the three parallel primitives
(§III: score, match, contract) plus the CSR build and connected
components, on the rmat analogue.  These time the actual vectorized
NumPy kernels — the Python analogue of the paper's per-kernel
engineering — and complement the simulated-platform exhibits."""

import pytest

from repro.core import (
    ModularityScorer,
    contract,
    match_locally_dominant,
)
from repro.graph import CSRAdjacency, connected_components


@pytest.fixture(scope="module")
def rmat(datasets):
    return datasets["rmat-24-16"]


@pytest.fixture(scope="module")
def scored(rmat):
    return ModularityScorer().score(rmat)


@pytest.fixture(scope="module")
def matched(rmat, scored):
    return match_locally_dominant(rmat, scored)


def test_kernel_scoring(benchmark, rmat):
    scores = benchmark(ModularityScorer().score, rmat)
    assert len(scores) == rmat.n_edges


def test_kernel_matching(benchmark, rmat, scored):
    res = benchmark(match_locally_dominant, rmat, scored)
    assert res.n_pairs > 0


def test_kernel_contraction(benchmark, rmat, matched):
    new, _ = benchmark(contract, rmat, matched)
    assert new.n_vertices < rmat.n_vertices


def test_kernel_csr_build(benchmark, rmat):
    csr = benchmark(CSRAdjacency.from_edgelist, rmat.edges)
    assert csr.xadj[-1] == 2 * rmat.n_edges


def test_kernel_connected_components(benchmark, rmat):
    labels, k = benchmark(
        connected_components, rmat.n_vertices, rmat.edges.ei, rmat.edges.ej
    )
    assert k >= 1
