"""Graph file I/O.

Three formats cover the paper's data pipeline:

* **edge list** — the SNAP dataset collection format used for
  soc-LiveJournal1 (whitespace-separated ``src dst [weight]`` lines,
  ``#`` comments);
* **METIS / DIMACS-challenge adjacency** — the 10th DIMACS Implementation
  Challenge's exchange format (the paper follows the challenge rules);
* **npz** — a fast binary round-trip of the internal representation for
  benchmark caching.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from typing import BinaryIO, Iterable

import numpy as np

from repro.errors import GraphFormatError, GraphFormatWarning
from repro.graph.build import from_edges
from repro.graph.csr import CSRAdjacency
from repro.graph.edgelist import EdgeList
from repro.graph.graph import CommunityGraph
from repro.types import MAX_VERTICES, VERTEX_DTYPE, WEIGHT_DTYPE
from repro.util.log import get_logger
from repro.util.memprobe import physical_memory_bytes

__all__ = [
    "read_edgelist",
    "write_edgelist",
    "read_metis",
    "write_metis",
    "save_npz",
    "load_npz",
]

_log = get_logger("graph.io")


# --------------------------------------------------------------- edge lists
def _parse_vertex(path: object, lineno: int, token: str) -> int:
    try:
        v = int(token)
    except ValueError:
        raise GraphFormatError(
            f"{path}:{lineno}: bad vertex id {token!r}"
        ) from None
    if v < 0:
        raise GraphFormatError(
            f"{path}:{lineno}: negative vertex id {token!r}"
        )
    if v >= MAX_VERTICES:
        raise GraphFormatError(
            f"{path}:{lineno}: vertex id {token!r} is not below {MAX_VERTICES}"
        )
    return v


def _parse_weight(path: object, lineno: int, token: str) -> float:
    try:
        w = float(token)
    except ValueError:
        raise GraphFormatError(
            f"{path}:{lineno}: bad edge weight {token!r}"
        ) from None
    if not math.isfinite(w):
        raise GraphFormatError(
            f"{path}:{lineno}: non-finite edge weight {token!r}"
        )
    return w


def _read_lines(
    path: str | os.PathLike, weighted: bool | None, strict: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The line-by-line edge-list reader behind :func:`read_edgelist`.

    It is the only path for input the bulk parse declines, and the
    reference the bulk parse is tested against.
    """
    srcs: list[int] = []
    dsts: list[int] = []
    wgts: list[float] = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            # Until a line is accepted each line decides the weighting for
            # itself, so a skipped line cannot fix it for the whole file.
            line_weighted = len(parts) >= 3 if weighted is None else weighted
            try:
                if len(parts) < 2 or (line_weighted and len(parts) < 3):
                    raise GraphFormatError(
                        f"{path}:{lineno}: malformed edge line {line!r}"
                    )
                src = _parse_vertex(path, lineno, parts[0])
                dst = _parse_vertex(path, lineno, parts[1])
                wgt = (
                    _parse_weight(path, lineno, parts[2]) if line_weighted else 1.0
                )
            except GraphFormatError:
                if strict:
                    raise
                skipped += 1
                continue
            weighted = line_weighted
            srcs.append(src)
            dsts.append(dst)
            if weighted:
                wgts.append(wgt)
    if skipped:
        warnings.warn(
            f"{path}: skipped {skipped} malformed edge line(s)",
            GraphFormatWarning,
            stacklevel=3,
        )
    i = np.asarray(srcs, dtype=VERTEX_DTYPE)
    j = np.asarray(dsts, dtype=VERTEX_DTYPE)
    w = np.asarray(wgts, dtype=WEIGHT_DTYPE) if weighted else None
    return i, j, w


#: Bytes the bulk parse reads as digits and whitespace.  Beyond them a
#: data row may hold only ``+ - . e E``, which make the weight column float.
_PLAIN_BYTES = b"0123456789 \t\r\n"

#: The end of loadtxt's message for a token in a vertex id column.
_BAD_ID = re.compile(r"to int64 at row \d+, column [12]\.")

#: Suffixes of the files loadtxt's opener decompresses.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


class _Declined(Exception):
    """The bulk parse cannot vouch for the file; the message says why."""


def _seek_first_data_line(fh: BinaryIO) -> tuple[int, int]:
    """Skip leading blank and comment lines; return the column count of
    the first data line (0 when there is none) and the number of lines
    skipped, positioned at its start.
    """
    skipped = 0
    while True:
        start = fh.tell()
        line = fh.readline()
        if not line:
            return 0, skipped
        body = line.removesuffix(b"\n").removesuffix(b"\r")
        if b"\r" in body:
            # A lone CR ends a line for the text-mode reader.
            raise _Declined("lone CR")
        try:
            text = body.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise _Declined("invalid UTF-8") from None
        if text and not text.startswith(("#", "%")):
            fh.seek(start)
            return len(text.split()), skipped
        skipped += 1


def _read_bulk(
    path: str | os.PathLike, weighted: bool | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """NumPy's C text reader over the data rows; raises :class:`_Declined`
    unless :func:`_read_lines` would accept every line with the same result.
    """
    # Absolute, so loadtxt's opener never takes it for a URL, but not
    # normalised: "link/.." must resolve through the link.
    fname = os.path.join(os.getcwd(), os.fsdecode(path))
    if fname.endswith(_COMPRESSED):
        raise _Declined("compressed-file suffix")
    with open(fname, "rb") as fh:
        if not fh.seekable():
            # A pipe could not be read a second time by the fallback.
            raise _Declined("unseekable input")
        cols, skiprows = _seek_first_data_line(fh)
        if not cols:
            w = np.empty(0, WEIGHT_DTYPE) if weighted else None
            return np.empty(0, VERTEX_DTYPE), np.empty(0, VERTEX_DTYPE), w
        if cols not in (2, 3):
            raise _Declined(f"{cols} columns")
        if weighted is None:
            weighted = cols == 3
        elif weighted and cols < 3:
            raise _Declined("no weight column")
        data = fh.read()
        size = fh.tell()
    rest = data.translate(None, _PLAIN_BYTES)
    bad = rest.translate(None, b"+-.eE")
    if bad:
        byte = bad[0]
        if byte >= 0x80:
            raise _Declined("non-ASCII byte")
        if byte in b"#%":
            raise _Declined("comment after data")
        raise _Declined(f"unsupported byte {chr(byte)!r}")
    if b"\r" in data and b"\r" in data.replace(b"\r\n", b""):
        raise _Declined("lone CR")
    del data
    # Plain digits read as int64 in every column; otherwise the weights
    # read as float64, which keeps the sign of -0.
    fields = [("i", np.int64), ("j", np.int64), ("w", np.float64 if rest else np.int64)]
    try:
        with warnings.catch_warnings():
            # Before NumPy 2, loadtxt reads 3.0 in an int column with a
            # DeprecationWarning instead of raising.
            warnings.simplefilter("error", DeprecationWarning)
            # A path is the fastest form: loadtxt reads it in its own chunks.
            values = np.loadtxt(
                fname, np.dtype(fields[:cols]), comments=None,
                skiprows=skiprows, ndmin=1, encoding="utf-8",
            )
    except (ValueError, DeprecationWarning) as exc:
        # loadtxt's message names the row, column and token.
        why = str(exc)
        raise _Declined(
            "ragged columns" if "columns" in why
            else "non-integer vertex id" if _BAD_ID.search(why)
            else "unparsable token"
        ) from None
    if os.stat(fname).st_size != size:
        raise _Declined("file changed while read")
    i = np.ascontiguousarray(values["i"])
    j = np.ascontiguousarray(values["j"])
    if (i < 0).any() or (j < 0).any():
        raise _Declined("negative vertex id")
    if (i >= MAX_VERTICES).any() or (j >= MAX_VERTICES).any():
        raise _Declined("vertex id too large")
    w = values["w"].astype(WEIGHT_DTYPE) if weighted else None
    if weighted and not np.isfinite(w).all():
        raise _Declined("non-finite weight")
    return i, j, w


#: 64-bit words per vertex a detection run holds: 3 for the graph, 4 for
#: score and match state, 1 lock and 1 of contraction scratch.  This is
#: the per-vertex part of :func:`repro.core.memory.algorithm_memory_words`
#: (the paper's §IV accounting).
_WORDS_PER_VERTEX = 9


def _check_vertex_count(path: object, i: np.ndarray, j: np.ndarray) -> None:
    """Refuse a file whose vertex count the host's memory cannot hold."""
    memory = physical_memory_bytes()
    if memory is None or not len(i):
        return
    largest = max(int(i.max()), int(j.max()))
    if (largest + 1) * _WORDS_PER_VERTEX * 8 > memory:
        raise GraphFormatError(
            f"{path}: largest vertex id {largest} makes {largest + 1} "
            f"vertices; at {_WORDS_PER_VERTEX} words each they need more "
            f"than this host's {memory} bytes of memory"
        )


def read_edgelist(
    path: str | os.PathLike,
    *,
    weighted: bool | None = None,
    strict: bool = True,
) -> CommunityGraph:
    """Read a SNAP-style whitespace edge list.

    ``weighted=None`` auto-detects a third column from the first data line.
    Vertex ids must be non-negative integers below
    :data:`~repro.types.MAX_VERTICES`; they are used directly (the graph
    gets ``max_id + 1`` vertices).  A larger id is a malformed line.  A
    file whose vertex count needs more memory than the host has, at
    9 words per vertex (the per-vertex part of
    :func:`repro.core.memory.algorithm_memory_words`), is refused with a
    :class:`~repro.errors.GraphFormatError` naming its largest id and
    vertex count, before the graph is built; the check is skipped where
    the host's physical memory cannot be read.

    Malformed lines raise :class:`~repro.errors.GraphFormatError` naming
    the file, 1-based line number, and offending token.  With
    ``strict=False`` bad lines are skipped instead and a single
    :class:`~repro.errors.GraphFormatWarning` reports how many were
    dropped — scraped social-network dumps routinely carry a few
    truncated lines that shouldn't abort an hours-long benchmark load.
    The first *accepted* line decides the auto-detected weighting, so a
    skipped line never does.

    The file is first parsed in bulk: leading blank and comment lines
    are skipped, and NumPy's C text reader (``np.loadtxt``) parses the
    rest.  The bulk parse returns only what the line-by-line reader
    would return for the same file, bit for bit; otherwise it declines,
    logs the reason at INFO on the ``repro.graph.io`` logger (``repro -v``
    shows it), and the file is read again line by line, which raises the
    usual errors and applies ``strict=False``.  It declines on a pipe, on
    a path ending in ``.gz``, ``.bz2``, ``.xz`` or ``.lzma`` (which
    ``np.loadtxt`` would decompress), on any byte other than ASCII digits,
    ``+ - . e E``, space, tab and newlines after the first data line (so
    on comments there, non-ASCII text, ``_``, ``inf``/``nan`` and hex), a
    lone CR, invalid UTF-8 in a leading comment, lines whose column counts
    differ or are not 2 or 3 (or 2 when ``weighted=True``), any token
    NumPy cannot parse as its column's type (a vertex id that is not an
    int64, such as ``3.0``, ``1e3`` or one of 20 digits), negative ids,
    non-finite weights, ids not below ``MAX_VERTICES``, and a file whose
    size changes while it is read.
    """
    try:
        i, j, w = _read_bulk(path, weighted)
    except _Declined as why:
        _log.info("%s: bulk parse declined (%s); reading line by line", path, why)
        i, j, w = _read_lines(path, weighted, strict)
    _check_vertex_count(path, i, j)
    return from_edges(i, j, w)


def _format_weight(w: float) -> str:
    """Text that reads back as exactly ``w``: the ``:g`` form when that is
    exact (so integer weights keep their short form), else ``repr``."""
    text = f"{w:g}"
    return text if float(text) == w else repr(w)


#: Edges converted to Python objects at a time by :func:`write_edgelist`.
_WRITE_CHUNK_ROWS = 1 << 16


def write_edgelist(
    graph: CommunityGraph, path: str | os.PathLike, *, weights: bool = True
) -> None:
    """Write each edge once (stored orientation); self weights as loops.

    Edges are converted to Python ints and floats in chunks of
    ``_WRITE_CHUNK_ROWS`` rows, so the writer holds one chunk of Python
    objects rather than three lists as long as the graph.
    """
    e = graph.edges
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# repro community graph: {graph.n_vertices} vertices, {graph.n_edges} edges\n")
        for lo in range(0, e.n_edges, _WRITE_CHUNK_ROWS):
            rows = slice(lo, lo + _WRITE_CHUNK_ROWS)
            chunk = zip(e.ei[rows].tolist(), e.ej[rows].tolist(), e.w[rows].tolist())
            for i, j, w in chunk:
                fh.write(f"{i}\t{j}\t{_format_weight(w)}\n" if weights else f"{i}\t{j}\n")
        for v in np.flatnonzero(graph.self_weights).tolist():
            sw = _format_weight(float(graph.self_weights[v]))
            fh.write(f"{v}\t{v}\t{sw}\n" if weights else f"{v}\t{v}\n")


# -------------------------------------------------------------------- METIS
def read_metis(path: str | os.PathLike) -> CommunityGraph:
    """Read a METIS/DIMACS-challenge adjacency file (1-indexed).

    Supports the unweighted format (``fmt`` absent or ``0``) and edge
    weights (``fmt=1`` / ``001``).  Vertex weights are rejected (the
    community representation has no use for them).
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    # Keep blank lines (an isolated vertex has an empty adjacency row);
    # drop only comments.  Original 1-based line numbers ride along so
    # format errors point at the real file location.
    rows = [
        (lineno, ln.strip())
        for lineno, ln in enumerate(lines, 1)
        if not ln.lstrip().startswith("%")
    ]
    while rows and not rows[0][1]:
        rows = rows[1:]
    if not rows:
        raise GraphFormatError(f"{path}: empty METIS file")
    # Trailing blank lines beyond the declared vertex count are tolerated.
    header_lineno, header_text = rows[0]
    header = header_text.split()
    if len(header) < 2:
        raise GraphFormatError(
            f"{path}:{header_lineno}: bad METIS header {header_text!r}"
        )
    try:
        n = int(header[0])
        m_declared = int(header[1])
    except ValueError:
        raise GraphFormatError(
            f"{path}:{header_lineno}: non-numeric METIS header "
            f"{header_text!r}"
        ) from None
    fmt = header[2] if len(header) > 2 else "0"
    has_edge_weights = fmt.endswith("1")
    if len(fmt) >= 2 and fmt[-2] == "1":
        raise GraphFormatError(f"{path}: vertex weights unsupported (fmt={fmt})")
    body = rows[1:]
    while len(body) > n and not body[-1][1]:
        body.pop()
    if len(body) != n:
        raise GraphFormatError(
            f"{path}: header declares {n} vertices but file has "
            f"{len(body)} adjacency lines"
        )

    srcs: list[int] = []
    dsts: list[int] = []
    wgts: list[float] = []
    for v, (lineno, row) in enumerate(body):
        fields = row.split()
        step = 2 if has_edge_weights else 1
        if has_edge_weights and len(fields) % 2:
            raise GraphFormatError(
                f"{path}:{lineno}: odd field count on weighted adjacency "
                f"line for vertex {v + 1}"
            )
        for k in range(0, len(fields), step):
            try:
                u = int(fields[k]) - 1
            except ValueError:
                raise GraphFormatError(
                    f"{path}:{lineno}: bad neighbor id {fields[k]!r}"
                ) from None
            if not 0 <= u < n:
                raise GraphFormatError(
                    f"{path}:{lineno}: neighbor {u + 1} out of range"
                )
            w = 1.0
            if has_edge_weights:
                w = _parse_weight(path, lineno, fields[k + 1])
            # Each undirected edge appears in both endpoint rows; keep one.
            if u > v or u == v:
                srcs.append(v)
                dsts.append(u)
                wgts.append(w)
    graph = from_edges(
        np.asarray(srcs, dtype=VERTEX_DTYPE),
        np.asarray(dsts, dtype=VERTEX_DTYPE),
        np.asarray(wgts, dtype=WEIGHT_DTYPE),
        n_vertices=n,
    )
    if graph.n_edges != m_declared and m_declared:
        # DIMACS counts undirected edges once; tolerate self-loop slack only.
        declared_loops = int(np.count_nonzero(graph.self_weights))
        if graph.n_edges + declared_loops != m_declared:
            raise GraphFormatError(
                f"{path}: header declares {m_declared} edges, parsed {graph.n_edges}"
            )
    return graph


def write_metis(graph: CommunityGraph, path: str | os.PathLike) -> None:
    """Write DIMACS-challenge adjacency with edge weights (fmt=1)."""
    csr = CSRAdjacency.from_edgelist(graph.edges)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.n_vertices} {graph.n_edges} 1\n")
        for v in range(graph.n_vertices):
            pairs: Iterable[str] = (
                f"{u + 1} {_format_weight(w)}"
                for u, w in zip(
                    csr.neighbors(v).tolist(), csr.neighbor_weights(v).tolist()
                )
            )
            fh.write(" ".join(pairs) + "\n")


# ---------------------------------------------------------------------- npz
def save_npz(graph: CommunityGraph, path: str | os.PathLike) -> None:
    """Binary round-trip of the exact internal representation."""
    e = graph.edges
    np.savez_compressed(
        path,
        ei=e.ei,
        ej=e.ej,
        w=e.w,
        n_vertices=np.int64(e.n_vertices),
        bucket_start=e.bucket_start,
        bucket_end=e.bucket_end,
        self_weights=graph.self_weights,
    )


def load_npz(path: str | os.PathLike) -> CommunityGraph:
    """Load a graph stored by :func:`save_npz` (validates on load)."""
    with np.load(path) as data:
        edges = EdgeList(
            ei=data["ei"],
            ej=data["ej"],
            w=data["w"],
            n_vertices=int(data["n_vertices"]),
            bucket_start=data["bucket_start"],
            bucket_end=data["bucket_end"],
        )
        graph = CommunityGraph(edges, data["self_weights"])
    graph.validate()
    return graph
