"""Pluggable execution backends for chunked phase execution.

The supervised pool (:mod:`repro.parallel.pool`) gives one phase —
modularity scoring — multi-process execution.  This module turns that
capability into a first-class, selectable service: an
:class:`ExecutionBackend` maps an idempotent chunk function over a
shared-memory output block, and *any* phase kernel holding a
:class:`~repro.core.engine.RunContext` can request it via
``ctx.backend.map_chunks(...)`` instead of hard-coding a pool.

Two backends ship:

* ``serial`` — chunks run in the calling process, in order.  Zero
  process overhead, always available, and the reference for parity
  tests (backend choice never changes results, only the execution
  profile).
* ``process-pool`` — chunks run on the supervised fork-based
  :class:`~repro.parallel.pool.SharedArrayPool` with the full recovery
  ladder (retry/backoff, deadlines, parent-side validation, in-process
  degradation; see docs/RESILIENCE.md).

Every ``map_chunks`` call is wrapped in a ``"backend_map"`` span carrying
the backend identity and worker count, and mirrored to the
``backend.<name>.maps`` counter and ``backend.<name>.workers`` gauge, so
which backend executed which phase is always visible in the trace and
the benchmark ledger.

Backends register by name (:func:`register_backend`) exactly like phase
kernels in :mod:`repro.core.registry`; the CLI's ``--backend`` choices
come from :func:`backend_names`.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

from repro.obs.trace import NullTracer, Tracer, as_tracer
from repro.parallel.pool import SharedArrayPool
from repro.resilience.faults import FaultPlan
from repro.resilience.report import RecoveryReport
from repro.resilience.retry import RetryPolicy

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "register_backend",
    "backend_names",
    "create_backend",
    "as_backend",
]

#: Chunk function signature shared with :class:`SharedArrayPool`:
#: ``fn((shm_name, lo, hi))`` writes the ``[lo, hi)`` slice of the shared
#: output block and nothing else (idempotence is what makes re-execution
#: and backend swapping safe).
ChunkFn = Callable[[tuple[str, int, int]], None]


@runtime_checkable
class ExecutionBackend(Protocol):
    """Protocol every execution backend implements.

    Attributes
    ----------
    name:
        Registry identity, stamped on spans and metrics.
    n_workers:
        Degree of parallelism the backend executes with (1 for serial).
    """

    name: str
    n_workers: int

    def map_chunks(
        self,
        fn: ChunkFn,
        shm_name: str,
        n_items: int,
        *,
        tracer: Tracer | NullTracer | None = None,
        policy: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
        validate: Callable[[int, int], bool] | None = None,
        report: RecoveryReport | None = None,
    ) -> RecoveryReport:
        """Apply ``fn`` across chunk ranges of ``[0, n_items)``."""
        ...  # pragma: no cover - protocol stub


class _PoolBackedBackend:
    """Shared implementation: both built-ins delegate to the supervised
    pool (which runs inline when ``n_workers == 1``), so the recovery
    ladder, chunk spans and worker metrics behave identically and only
    the degree of parallelism differs."""

    name = "pool-backed"

    def __init__(
        self, n_workers: int | None = None, *, chunks_per_worker: int = 1
    ) -> None:
        self._pool = SharedArrayPool(
            n_workers, chunks_per_worker=chunks_per_worker
        )
        self.n_workers = self._pool.n_workers
        self.chunks_per_worker = self._pool.chunks_per_worker

    def map_chunks(
        self,
        fn: ChunkFn,
        shm_name: str,
        n_items: int,
        *,
        tracer: Tracer | NullTracer | None = None,
        policy: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
        validate: Callable[[int, int], bool] | None = None,
        report: RecoveryReport | None = None,
    ) -> RecoveryReport:
        tr = as_tracer(tracer)
        with tr.span(
            "backend_map",
            backend=self.name,
            n_workers=self.n_workers,
            chunks_per_worker=self.chunks_per_worker,
        ) as sp:
            rep = self._pool.run(
                fn,
                shm_name,
                n_items,
                tracer=tracer,
                policy=policy,
                faults=faults,
                validate=validate,
                report=report,
            )
            sp.set(items=n_items, retries=rep.retries)
        tr.counter(f"backend.{self.name}.maps").inc()
        tr.gauge(f"backend.{self.name}.workers").set(self.n_workers)
        return rep

    def rechunked(self, factor: int = 2) -> "_PoolBackedBackend":
        """A new backend of the same kind with ``factor``× the chunk
        count (i.e. chunk size divided by ``factor``).

        The run guardian's "halve-chunks" degradation rung uses this to
        shrink the unit of retried/validated work without changing the
        degree of parallelism.
        """
        if factor < 1:
            raise ValueError("factor must be >= 1")
        return self._with_chunks(self.chunks_per_worker * factor)

    def _with_chunks(self, chunks_per_worker: int) -> "_PoolBackedBackend":
        return type(self)(
            self.n_workers, chunks_per_worker=chunks_per_worker
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n_workers={self.n_workers}, "
            f"chunks_per_worker={self.chunks_per_worker})"
        )


class SerialBackend(_PoolBackedBackend):
    """In-process chunk execution — the always-available default."""

    name = "serial"

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        chunks_per_worker: int = 1,
    ) -> None:
        # A serial backend is serial regardless of the requested width;
        # accepting (and ignoring) n_workers keeps one factory signature
        # across all backends.
        super().__init__(1, chunks_per_worker=chunks_per_worker)


class ProcessPoolBackend(_PoolBackedBackend):
    """Supervised fork-based worker-process execution.

    ``n_workers=None`` sizes the pool to the machine's CPU count.  The
    retry/deadline/degradation behavior is
    :class:`~repro.parallel.pool.SharedArrayPool`'s (see
    docs/RESILIENCE.md); a per-backend default :class:`RetryPolicy` can
    be set at construction and is used whenever ``map_chunks`` is not
    given one explicitly.
    """

    name = "process-pool"

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        policy: RetryPolicy | None = None,
        chunks_per_worker: int = 1,
    ) -> None:
        super().__init__(n_workers, chunks_per_worker=chunks_per_worker)
        self.policy = policy

    def _with_chunks(self, chunks_per_worker: int) -> "ProcessPoolBackend":
        return ProcessPoolBackend(
            self.n_workers,
            policy=self.policy,
            chunks_per_worker=chunks_per_worker,
        )

    def map_chunks(
        self,
        fn: ChunkFn,
        shm_name: str,
        n_items: int,
        *,
        tracer: Tracer | NullTracer | None = None,
        policy: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
        validate: Callable[[int, int], bool] | None = None,
        report: RecoveryReport | None = None,
    ) -> RecoveryReport:
        return super().map_chunks(
            fn,
            shm_name,
            n_items,
            tracer=tracer,
            policy=policy if policy is not None else self.policy,
            faults=faults,
            validate=validate,
            report=report,
        )


# ---------------------------------------------------------------- registry
_BACKENDS: dict[str, Callable[..., ExecutionBackend]] = {}


def register_backend(
    name: str,
    factory: Callable[..., ExecutionBackend],
    *,
    replace: bool = False,
) -> None:
    """Register a backend factory; called as ``factory(n_workers=...)``."""
    if not name:
        raise ValueError("backend name must be non-empty")
    if name in _BACKENDS and not replace:
        raise ValueError(
            f"backend {name!r} is already registered "
            "(pass replace=True to override)"
        )
    _BACKENDS[name] = factory


def backend_names() -> tuple[str, ...]:
    """Registered backend names, sorted (CLI choices)."""
    return tuple(sorted(_BACKENDS))


def create_backend(
    name: str, *, n_workers: int | None = None
) -> ExecutionBackend:
    """Instantiate the backend registered under ``name``."""
    try:
        factory = _BACKENDS[name]
    except KeyError:
        available = ", ".join(backend_names()) or "none"
        raise ValueError(
            f"unknown backend {name!r} (available: {available})"
        ) from None
    return factory(n_workers=n_workers)


def as_backend(
    backend: "ExecutionBackend | str | None",
    *,
    n_workers: int | None = None,
) -> ExecutionBackend:
    """Normalize a backend argument to a usable instance.

    ``None`` resolves to :class:`SerialBackend` unless ``n_workers`` asks
    for real parallelism, in which case it resolves to
    :class:`ProcessPoolBackend` — the historical behavior of the
    ``--workers`` flag.  A string resolves through the registry; an
    instance passes through unchanged.
    """
    if backend is None:
        if n_workers is not None and n_workers > 1:
            return ProcessPoolBackend(n_workers)
        return SerialBackend()
    if isinstance(backend, str):
        return create_backend(backend, n_workers=n_workers)
    return backend


register_backend("serial", SerialBackend)
register_backend(
    "process-pool", lambda n_workers=None: ProcessPoolBackend(n_workers)
)
