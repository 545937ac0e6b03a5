"""Shared fixtures for the test suite, plus a per-test timeout guard.

The timeout guard exists for the fault-injection suite: it stalls
pipeline phases and kills the streaming service under test, and a
recovery bug there hangs rather than fails.  ``pytest-timeout`` is not a
dependency of this repo, so a minimal SIGALRM-based equivalent lives
here — a ``@pytest.mark.timeout(seconds)`` marker (or the
``REPRO_TEST_TIMEOUT`` environment variable as a suite-wide default)
aborts a stuck test with a traceback instead of wedging CI.  SIGALRM is
main-thread/Unix only, which covers how this suite runs everywhere it
is supported; elsewhere the guard degrades to a no-op.
"""

from __future__ import annotations

import os
import signal
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.generators import (
    complete_graph,
    karate_club,
    path_graph,
    ring_of_cliques,
    star_graph,
    two_triangles,
)
from repro.graph import from_edges

_HAS_SIGALRM = hasattr(signal, "SIGALRM")


def _test_timeout_s(item: pytest.Item) -> float | None:
    marker = item.get_closest_marker("timeout")
    if marker is not None and marker.args:
        return float(marker.args[0])
    env = os.environ.get("REPRO_TEST_TIMEOUT", "")
    if env:
        try:
            return float(env)
        except ValueError:
            return None
    return None


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item: pytest.Item):
    seconds = _test_timeout_s(item) if _HAS_SIGALRM else None
    if not seconds or seconds <= 0:
        return (yield)

    def _expired(signum, frame):
        raise TimeoutError(
            f"{item.nodeid} exceeded its {seconds:g}s timeout"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ------------------------------------------------ atomic-write faults
@dataclass
class _WriteFault:
    """One armed corruption, matched by substring of the final path."""

    match: str
    mode: str  # "torn" | "bitflip"
    keep: float = 0.5  # torn: fraction of committed bytes surviving
    offset: int | None = None  # bitflip: byte to flip (default: middle)
    fired: bool = False


class AtomicWriteFaults:
    """Corrupts files *after* ``atomic_write`` commits them.

    Simulates what the atomic-rename contract cannot prevent — media
    corruption of a file at rest — so reader-side validation (CRCs,
    schema checks, quarantine) can be exercised against every consumer
    through one fixture.  Each armed fault fires once, on the first
    committed path containing its ``match`` substring.
    """

    def __init__(self) -> None:
        self.faults: list[_WriteFault] = []
        self.corrupted: list[Path] = []

    def torn(self, match: str, *, keep: float = 0.5) -> None:
        """Arm a truncation: only ``keep`` of the bytes survive."""
        self.faults.append(_WriteFault(match, "torn", keep=keep))

    def bitflip(self, match: str, *, offset: int | None = None) -> None:
        """Arm a single flipped byte (default: mid-file)."""
        self.faults.append(_WriteFault(match, "bitflip", offset=offset))

    def _apply(self, path: Path) -> None:
        for f in self.faults:
            if f.fired or f.match not in str(path):
                continue
            f.fired = True
            data = path.read_bytes()
            if not data:
                return
            if f.mode == "torn":
                path.write_bytes(data[: int(len(data) * f.keep)])
            else:
                k = f.offset if f.offset is not None else len(data) // 2
                corrupt = bytearray(data)
                corrupt[k] ^= 0xFF
                path.write_bytes(bytes(corrupt))
            self.corrupted.append(path)
            return


@pytest.fixture
def atomic_write_faults(monkeypatch):
    """Intercept every ``atomic_write`` in the tree with fault injection.

    Patches the canonical writer *and* every ``repro`` module that
    bound it by name, so all durable-artifact writers (checkpoints,
    snapshots, ledgers, traces, status files, WAL
    manifests) route through the corruptor.  A module first imported
    during the test binds the faulty writer itself; teardown restores
    those too, so no later test writes through a spent fault.
    """
    import repro.util.atomicio as aio

    plan = AtomicWriteFaults()
    real = aio.atomic_write

    @contextmanager
    def faulty(path, *, mode="w", encoding=None):
        with real(path, mode=mode, encoding=encoding) as fh:
            yield fh
        plan._apply(Path(os.fspath(path)))

    # the scan includes repro.util.atomicio, the canonical writer's home
    for module in _repro_modules():
        if getattr(module, "atomic_write", None) is real:
            monkeypatch.setattr(module, "atomic_write", faulty)
    yield plan
    for module in _repro_modules():
        if getattr(module, "atomic_write", None) is faulty:
            module.atomic_write = real


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "repro"
    ]


@pytest.fixture
def karate():
    return karate_club()


@pytest.fixture
def triangles():
    return two_triangles()


@pytest.fixture
def cliques():
    return ring_of_cliques(5, 4)


@pytest.fixture
def star():
    return star_graph(10)


@pytest.fixture
def path():
    return path_graph(8)


@pytest.fixture
def k5():
    return complete_graph(5)


@pytest.fixture
def random_graph_factory():
    """Factory producing small Erdős–Rényi-ish graphs with weights."""

    def make(n=30, m=60, seed=0, weighted=True, n_vertices=None):
        rng = np.random.default_rng(seed)
        i = rng.integers(0, n, size=m)
        j = rng.integers(0, n, size=m)
        keep = i != j
        w = rng.integers(1, 10, size=m).astype(float) if weighted else None
        return from_edges(
            i[keep],
            j[keep],
            w[keep] if w is not None else None,
            n_vertices=n_vertices or n,
        )

    return make
