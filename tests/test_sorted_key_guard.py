"""Guard: detection and stream batches stay off NumPy's hash and lexsort paths.

Without ``return_inverse``, ``np.unique`` takes a hash path that grows
super-linearly with the key count, and ``np.lexsort`` on integer pairs
is several times slower than one ``repro.util.arrays.sort_keys`` sort
of their fused key.  These
tests record every call to either function while a small ``repro detect``
runs from a text file and from an ``.npz`` (load, ``validate`` and
detection), and while ``DetectionService`` ingests a graph and one more
batch.  No ``np.lexsort`` call and no ``np.unique`` call on an array as
large as the graph may happen.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.generators import rmat_graph
from repro.graph import save_npz, write_edgelist
from repro.stream.service import DetectionService, StreamConfig


@pytest.fixture
def recorded(monkeypatch):
    """Wrap ``np.unique`` and ``np.lexsort``; yield the list of calls."""
    calls = []
    unique, lexsort = np.unique, np.lexsort

    def recording_unique(ar, *args, **kwargs):
        calls.append(("unique", np.asarray(ar).size))
        return unique(ar, *args, **kwargs)

    def recording_lexsort(keys, *args, **kwargs):
        calls.append(("lexsort", len(keys[0]) if len(keys) else 0))
        return lexsort(keys, *args, **kwargs)

    monkeypatch.setattr(np, "unique", recording_unique)
    monkeypatch.setattr(np, "lexsort", recording_lexsort)
    return calls


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(11, seed=4)


def _assert_sorted_key_paths(calls, n_edges):
    assert [c for c in calls if c[0] == "lexsort"] == []
    assert [c for c in calls if c[0] == "unique" and c[1] >= n_edges] == []


@pytest.mark.parametrize("suffix", [".txt", ".npz"])
def test_detect_from_file(graph, suffix, tmp_path, recorded, capsys):
    path = tmp_path / f"g{suffix}"
    (write_edgelist if suffix == ".txt" else save_npz)(graph, path)
    recorded.clear()
    assert main(["detect", str(path), "-o", str(tmp_path / "labels")]) == 0
    assert graph.n_edges > 10_000
    _assert_sorted_key_paths(recorded, graph.n_edges)


def test_service_ingest_and_batch(graph, tmp_path, recorded):
    e = graph.edges
    with DetectionService(tmp_path, StreamConfig()) as svc:
        svc.open()
        svc.ingest(e.ei, e.ej, e.w)
        svc.ingest(np.array([0, 5, 7]), np.array([9, 5, 3]))
        assert svc.store.n_edges >= graph.n_edges
    _assert_sorted_key_paths(recorded, graph.n_edges)
