"""Guard: a repaired stream batch does not measure over the whole store.

A batch's modularity and coverage come from the community graph its
frontier repair already built, in O(communities).  Rebuilding the
store's graph (``EdgeStore.as_graph``, a sort of every row) and walking
it with ``modularity`` / ``coverage`` is reserved for the two places
that need it: a batch with no rows, which has no repair graph, and
``DetectionService.verify``.  These tests record every call to the
three functions while a service ingests batches after its bootstrap.
"""

import numpy as np
import pytest

import repro.stream.service as service
from repro.generators import planted_partition_graph
from repro.stream.delta import OP_DELETE, EdgeStore
from repro.stream.service import DetectionService, StreamConfig

#: The whole-store measures, as (owner, attribute).
_SEAMS = ((EdgeStore, "as_graph"), (service, "modularity"), (service, "coverage"))


class _StoreRescan(Exception):
    """Raised by a forbidden call; the repair's retry loop does not catch it."""


def _record(monkeypatch, calls, *, forbid):
    """Wrap every seam to log its name, then raise (``forbid``) or delegate."""
    for owner, name in _SEAMS:
        real = getattr(owner, name)

        def call(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            if forbid:
                raise _StoreRescan(f"{_name} rescanned the store")
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)


@pytest.fixture
def bootstrapped(tmp_path):
    """A service whose bootstrap ingested a 400-vertex planted graph."""
    g = planted_partition_graph(400, seed=3)
    e = g.edges
    cfg = StreamConfig(drift_threshold=None, repair_deadline_s=None)
    with DetectionService(tmp_path, cfg) as svc:
        svc.open()
        svc.ingest(e.ei, e.ej, e.w)
        yield svc


def test_repaired_batches_do_not_rescan(bootstrapped, monkeypatch):
    svc = bootstrapped
    calls = []
    _record(monkeypatch, calls, forbid=True)
    rng = np.random.default_rng(5)
    for _ in range(5):
        i = rng.integers(0, 420, size=8)  # ids past 399 grow the store
        j = rng.integers(0, 420, size=8)
        j[0] = i[0]
        op = np.ones(8, dtype=np.int8)
        op[-1] = OP_DELETE
        res = svc.ingest(i, j, rng.uniform(0.5, 2.0, size=8), op)
        assert res.applied and not res.rerun
        assert np.isfinite(res.modularity)
    assert calls == []


def test_empty_batch_measures_from_scratch(bootstrapped, monkeypatch):
    svc = bootstrapped
    calls = []
    _record(monkeypatch, calls, forbid=False)
    before = svc.quality
    none = np.empty(0, np.int64)
    res = svc.ingest(none, none)
    assert calls == ["as_graph", "modularity", "coverage"]
    assert (res.modularity, res.coverage) == pytest.approx(before, abs=1e-9)
