"""Kernel registry: scorers, matchers and contractors unified by name.

The pipeline's three phase kinds — ``scorer`` (edge scoring, §III
step 1), ``matcher`` (greedy maximal matching, §III step 2) and
``contractor`` (graph contraction, §III step 3) — each have several
interchangeable implementations: the paper's new/legacy ablation pairs,
the problem-specific scorers the algorithm is "agnostic" towards, and
whatever a user plugs in.  This module is the single naming authority
for all of them, so ablations and user kernels select by string through
one mechanism instead of per-kind lookup tables scattered through the
driver, the CLI and the bench harness.

A registered entry is a zero-argument **factory** producing the kernel
object for one run, plus a :class:`KernelInfo` descriptor (a one-line
description) that ``repro kernels`` lists:

* ``scorer`` factories return an :class:`~repro.core.scoring.EdgeScorer`
  instance (a fresh one per call, so per-run state such as a recovery
  report never leaks between runs);
* ``matcher`` factories return a matching callable with the
  :func:`~repro.core.matching.match_locally_dominant` signature;
* ``contractor`` factories return a contraction callable with the
  :func:`~repro.core.contraction.contract` signature.

User extension::

    from repro.core.registry import KernelInfo, register_kernel

    class MyScorer:
        name = "my-metric"
        def score(self, graph, recorder=None): ...

    register_kernel("scorer", "my-metric", MyScorer)
    detect_communities(graph, scorer="my-metric")

``register_kernel`` stays backward-compatible for bare factories: when
no ``info`` is given a default descriptor with an empty description is
attached.

The built-in kernels are registered at import time; discovery
(:func:`kernel_names`, :func:`kernel_catalog`) is what the CLI uses to
populate its ``--scorer`` / ``--matcher`` / ``--contractor`` choices
and the ``repro kernels`` listing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.contraction import contract, contract_hash_chains
from repro.core.matching import match_full_sweep, match_locally_dominant
from repro.core.scoring import ConductanceScorer, ModularityScorer, WeightScorer

__all__ = [
    "KERNEL_KINDS",
    "KernelInfo",
    "register_kernel",
    "unregister_kernel",
    "kernel_names",
    "kernel_catalog",
    "create_kernel",
]

#: The phase kinds the registry knows about.
KERNEL_KINDS = ("scorer", "matcher", "contractor")


@dataclass(frozen=True)
class KernelInfo:
    """Descriptor of one registered kernel.

    The ``repro kernels`` CLI subcommand renders these for
    discoverability.

    Attributes
    ----------
    kind, name:
        The registry key this descriptor belongs to.
    description:
        One-line summary for the ``repro kernels`` listing.
    """

    kind: str
    name: str
    description: str = ""


@dataclass(frozen=True)
class _Entry:
    factory: Callable[[], object]
    info: KernelInfo = field(repr=False, default=None)  # type: ignore[assignment]


_REGISTRY: dict[tuple[str, str], _Entry] = {}


def _check_kind(kind: str) -> None:
    if kind not in KERNEL_KINDS:
        raise ValueError(
            f"unknown kernel kind {kind!r} "
            f"(expected one of {', '.join(KERNEL_KINDS)})"
        )


def register_kernel(
    kind: str,
    name: str,
    factory: Callable[[], object],
    *,
    replace: bool = False,
    info: KernelInfo | None = None,
) -> None:
    """Register a kernel factory under ``(kind, name)``.

    ``factory`` is called with no arguments each time the kernel is
    instantiated for a run.  Re-registering an existing name raises
    unless ``replace=True`` (so a typo cannot silently shadow a
    built-in).  ``info`` attaches the descriptor; a bare registration
    (the historical two-argument form) gets a default one with an empty
    description, so pre-existing user kernels keep working.
    """
    _check_kind(kind)
    if not name:
        raise ValueError("kernel name must be non-empty")
    if info is not None and (info.kind != kind or info.name != name):
        raise ValueError(
            f"KernelInfo is keyed ({info.kind!r}, {info.name!r}) but the "
            f"registration is ({kind!r}, {name!r})"
        )
    key = (kind, name)
    if key in _REGISTRY and not replace:
        raise ValueError(
            f"{kind} {name!r} is already registered "
            "(pass replace=True to override)"
        )
    _REGISTRY[key] = _Entry(
        factory, info if info is not None else KernelInfo(kind, name)
    )


def unregister_kernel(kind: str, name: str) -> None:
    """Remove a kernel registration (KeyError when absent)."""
    _check_kind(kind)
    del _REGISTRY[(kind, name)]


def kernel_names(kind: str) -> tuple[str, ...]:
    """Registered kernel names of one kind, sorted (CLI choices)."""
    _check_kind(kind)
    return tuple(sorted(n for k, n in _REGISTRY if k == kind))


def kernel_catalog(kind: str | None = None) -> list[KernelInfo]:
    """Every registered descriptor, sorted by (kind, name).

    ``kind`` restricts the listing to one phase kind.  This is the
    ``repro kernels`` data source.
    """
    if kind is not None:
        _check_kind(kind)
    return [
        _REGISTRY[key].info
        for key in sorted(_REGISTRY)
        if kind is None or key[0] == kind
    ]


def create_kernel(kind: str, name: str) -> object:
    """Instantiate the kernel registered under ``(kind, name)``.

    Raises ``ValueError`` naming the kind and the available options when
    the name is unknown — the message the driver and CLI surface for a
    bad ``matcher=``/``contractor=``/``scorer=`` argument.
    """
    _check_kind(kind)
    try:
        entry = _REGISTRY[(kind, name)]
    except KeyError:
        available = ", ".join(kernel_names(kind)) or "none"
        raise ValueError(
            f"unknown {kind} {name!r} (available: {available})"
        ) from None
    return entry.factory()


# ------------------------------------------------------------- built-ins
register_kernel(
    "scorer",
    "modularity",
    ModularityScorer,
    info=KernelInfo(
        "scorer",
        "modularity",
        description="CNM merge gain (the paper's default objective)",
    ),
)
register_kernel(
    "scorer",
    "conductance",
    ConductanceScorer,
    info=KernelInfo(
        "scorer",
        "conductance",
        description="negative conductance of the merged pair",
    ),
)
register_kernel(
    "scorer",
    "weight",
    WeightScorer,
    info=KernelInfo(
        "scorer",
        "weight",
        description="raw edge weight (heaviest-first agglomeration)",
    ),
)
register_kernel(
    "matcher",
    "worklist",
    lambda: match_locally_dominant,
    info=KernelInfo(
        "matcher",
        "worklist",
        description="the paper's improved worklist matching (§IV-B new)",
    ),
)
register_kernel(
    "matcher",
    "sweep",
    lambda: match_full_sweep,
    info=KernelInfo(
        "matcher",
        "sweep",
        description="legacy full-sweep matching (§IV-B old)",
    ),
)
register_kernel(
    "contractor",
    "bucket",
    lambda: contract,
    info=KernelInfo(
        "contractor",
        "bucket",
        description="vectorized bucket-sort contraction (§IV-C new)",
    ),
)
register_kernel(
    "contractor",
    "chains",
    lambda: contract_hash_chains,
    info=KernelInfo(
        "contractor",
        "chains",
        description="legacy hash-of-linked-lists contraction (§IV-C old)",
    ),
)
