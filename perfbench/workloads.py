"""Seeded inputs for the benchmark workloads, and the checks on outputs.

The program under test never sees a seed: it receives only the files
written here.  Every generated file is digested so that two commits can
be shown to have run identical bytes.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

WORKLOADS = ("detect-rmat", "detect-planted", "stream-trickle")

#: Input sizes.  "full" is what the benchmark measures; "tiny" keeps the
#: self-tests to seconds.  R-MAT uses the paper's parameters
#: (a=.55, b=c=.1, d=.25, edge factor 16).
SIZES = {
    "full": {
        "rmat_scale": 15,
        "planted_vertices": 50_000,
        "stream_vertices": 10_000,
        "stream_batches": 100,
    },
    "tiny": {
        "rmat_scale": 9,
        "planted_vertices": 2_000,
        "stream_vertices": 1_500,
        "stream_batches": 12,
    },
}
WARMUP_RMAT_SCALE = 7
WARMUP_PLANTED_VERTICES = 300

#: Each workload keeps one graph structure (and one event sequence) for
#: every seed and lets the seed relabel the vertices.  With a
#: seeded planted structure the heavy-tailed community sizes move
#: level-0 matching passes, and so wall time, by a factor of two between
#: seeds, which would drown the change a commit makes; a seeded R-MAT
#: structure spreads modularity over 3% instead of 1%; seeded stream
#: events spread the trickle's wall time.  A relabelling
#: still changes every byte of the input and every tie-break the kernels
#: make.
STRUCTURE_SEED = 2012

EVENTS_PER_BATCH = 8
DELETE_SHARE = 0.15


class CheckError(Exception):
    """An output failed a correctness check."""


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _relabelled(graph, seed: int):
    """``graph`` under a seed-drawn vertex numbering, and the numbering."""
    from repro.graph import from_edges

    n = graph.n_vertices
    perm = np.random.default_rng(seed).permutation(n)
    e = graph.edges
    loops = np.flatnonzero(graph.self_weights)
    i = np.concatenate([perm[e.ei], perm[loops]])
    j = np.concatenate([perm[e.ej], perm[loops]])
    w = np.concatenate([e.w, graph.self_weights[loops]])
    return from_edges(i, j, w, n_vertices=n), perm


def _relabelled_planted(n_vertices: int, seed: int):
    """The fixed planted structure, relabelled, with its planted labels."""
    from repro.generators import planted_partition_graph

    g, planted = planted_partition_graph(n_vertices, seed=STRUCTURE_SEED, return_labels=True)
    graph, perm = _relabelled(g, seed)
    labels = np.empty_like(planted)
    labels[perm] = planted
    return graph, labels


def make_inputs(workload: str, seed: int, size: str, work_dir: str) -> dict:
    """Write the workload's inputs under ``work_dir``; return its manifest.

    The manifest names every file a child reads and records the sha256
    and size of each file the program reads.
    """
    from repro.generators import planted_partition_graph, rmat_graph
    from repro.graph import save_npz, write_edgelist

    s = SIZES[size]
    if workload == "stream-trickle":
        events = os.path.join(work_dir, "events.npz")
        np.savez(events, **_stream_events(s["stream_vertices"], s["stream_batches"], seed))
        return {"kind": "stream", "events": events, "digests": _digests(events=events)}
    if workload == "detect-rmat":
        graph, _ = _relabelled(rmat_graph(s["rmat_scale"], 16, seed=STRUCTURE_SEED), seed)
        warmup = rmat_graph(WARMUP_RMAT_SCALE, 16, seed=seed)
        ext, write = ".txt", write_edgelist
    elif workload == "detect-planted":
        graph, _ = _relabelled_planted(s["planted_vertices"], seed)
        warmup = planted_partition_graph(WARMUP_PLANTED_VERTICES, seed=seed)
        ext, write = ".npz", save_npz
    else:
        raise ValueError(f"unknown workload {workload!r}")
    files = {name: os.path.join(work_dir, name + ext) for name in ("input", "warmup")}
    write(graph, files["input"])
    write(warmup, files["warmup"])
    # The canonical arrays the output checks recompute modularity from.
    reference = os.path.join(work_dir, "reference.npz")
    e = graph.edges
    np.savez(reference, ei=e.ei, ej=e.ej, w=e.w, self_w=graph.self_weights)
    return {
        "kind": "detect",
        **files,
        "reference": reference,
        "n_edges": int(graph.n_edges),
        "digests": _digests(**files),
    }


def _digests(**files: str) -> dict:
    return {
        name: {"sha256": sha256_file(p), "bytes": os.path.getsize(p)}
        for name, p in files.items()
    }


def _stream_events(n_vertices: int, n_batches: int, seed: int) -> dict:
    """A base planted graph plus ``n_batches`` community-local batches.

    Each batch picks one planted community (size-biased, via a random
    vertex) and carries about ``EVENTS_PER_BATCH`` events: inserts of
    new pairs inside that community and, for about ``DELETE_SHARE`` of
    them, deletes of still-live base edges inside it.  Like the graphs,
    the events are drawn once; ``seed`` relabels the vertices of both.
    """
    from repro.generators import planted_partition_graph

    base, labels = planted_partition_graph(n_vertices, seed=STRUCTURE_SEED, return_labels=True)
    e = base.edges
    rng = np.random.default_rng([STRUCTURE_SEED, 1])
    members = np.argsort(labels, kind="stable")
    starts = np.searchsorted(labels[members], np.arange(labels.max() + 2))
    # Intra-community base edges, grouped by community in a seeded
    # order; deletes consume each group front to back, so every delete
    # names a live edge.
    intra = np.flatnonzero(labels[e.ei] == labels[e.ej])
    intra = intra[rng.permutation(len(intra))]
    intra = intra[np.argsort(labels[e.ei[intra]], kind="stable")]
    intra_start = np.searchsorted(labels[e.ei[intra]], np.arange(labels.max() + 2))
    used = np.zeros(labels.max() + 1, dtype=np.int64)

    ev_i, ev_j, ev_op, ptr = [], [], [], [0]
    for _ in range(n_batches):
        c = labels[rng.integers(n_vertices)]
        lo, size = starts[c], starts[c + 1] - starts[c]
        n_del = min(
            int(rng.binomial(EVENTS_PER_BATCH, DELETE_SHARE)),
            int(intra_start[c + 1] - intra_start[c] - used[c]),
        )
        dels = intra[intra_start[c] + used[c]: intra_start[c] + used[c] + n_del]
        used[c] += n_del
        n_ins = EVENTS_PER_BATCH - n_del
        a = rng.integers(size, size=n_ins)
        b = (a + rng.integers(1, size, size=n_ins)) % size  # never a loop
        ev_i += [members[lo + a], e.ei[dels]]
        ev_j += [members[lo + b], e.ej[dels]]
        ev_op += [np.ones(n_ins, np.int8), -np.ones(n_del, np.int8)]
        ptr.append(ptr[-1] + n_ins + n_del)
    graph, perm = _relabelled(base, seed)
    events = {
        "base_i": graph.edges.ei,
        "base_j": graph.edges.ej,
        "base_w": graph.edges.w,
        "ev_i": perm[np.concatenate(ev_i)],
        "ev_j": perm[np.concatenate(ev_j)],
        "ev_op": np.concatenate(ev_op),
        "batch_ptr": np.asarray(ptr, dtype=np.int64),
    }
    # The store every correct service must end with, folded here
    # independently of the program: distinct live edges and total weight.
    i = np.concatenate([events["base_i"], events["ev_i"]]).astype(np.int64)
    j = np.concatenate([events["base_j"], events["ev_j"]]).astype(np.int64)
    signed = np.concatenate([events["base_w"], events["ev_op"].astype(np.float64)])
    _, inverse = np.unique(np.minimum(i, j) * n_vertices + np.maximum(i, j), return_inverse=True)
    weight = np.bincount(inverse, signed)
    events["expected_edges"] = np.int64(np.count_nonzero(weight > 0.5))
    events["expected_weight"] = np.float64(weight[weight > 0.5].sum())
    return events


# ------------------------------------------------------------------ checks
def modularity_of(labels, ei, ej, w, self_w) -> float:
    """Newman modularity, written independently of the program.

    ``W`` counts every undirected edge once and a self loop once; a
    community's volume counts an internal edge twice.
    """
    labels = np.asarray(labels, dtype=np.int64)
    k = int(labels.max()) + 1 if len(labels) else 0
    total = float(w.sum() + self_w.sum())
    li, lj = labels[ei], labels[ej]
    same = li == lj
    internal = np.bincount(li[same], w[same], k) + np.bincount(labels, self_w, k)
    volume = (
        np.bincount(li, w, k) + np.bincount(lj, w, k) + 2.0 * np.bincount(labels, self_w, k)
    )
    return float((internal / total - (volume / (2.0 * total)) ** 2).sum())


def read_labels(path: str, n_vertices: int) -> np.ndarray:
    """Labels from a ``vertex<TAB>label`` file, or :class:`CheckError`.

    The file must hold exactly one line per vertex, vertices ``0..n-1``
    in order, and dense labels ``0..k-1``.
    """
    try:
        rows = np.loadtxt(path, dtype=np.int64, delimiter="\t", ndmin=2)
    except ValueError as exc:
        raise CheckError(f"labels file unreadable: {exc}") from None
    if rows.shape != (n_vertices, 2):
        raise CheckError(f"labels file has shape {rows.shape}, expected ({n_vertices}, 2)")
    if not np.array_equal(rows[:, 0], np.arange(n_vertices)):
        raise CheckError("labels file does not list vertices 0..n-1 in order")
    labels = rows[:, 1]
    present = np.zeros(int(labels.max()) + 1 if n_vertices else 0, dtype=bool)
    if n_vertices and labels.min() < 0:
        raise CheckError("negative label")
    present[labels] = True
    if not present.all():
        raise CheckError("labels are not dense")
    return labels


def check_labels_file(path: str, reference: str, reported: float, tolerance: float) -> float:
    """Check a labels file against the input; return its modularity.

    Raises :class:`CheckError` unless the file is well formed and the
    modularity recomputed from it matches ``reported`` within
    ``tolerance``.
    """
    with np.load(reference) as ref:
        ei, ej, w, self_w = ref["ei"], ref["ej"], ref["w"], ref["self_w"]
    labels = read_labels(path, len(self_w))
    q = modularity_of(labels, ei, ej, w, self_w)
    if not abs(q - reported) <= tolerance:
        raise CheckError(f"modularity from labels {q!r} != reported {reported!r}")
    return q
