"""Shared dtype and typing conventions.

The paper stores vertices, edge endpoints and integer weights in 64-bit
words (3|V| + 3|E| words for the graph); we mirror that with ``int64``
index arrays and ``float64`` score arrays.  Edge weights are kept as
``float64`` so that weight-accumulating contraction and fractional input
weights share one code path (the paper's integer weights are exactly
representable).
"""

from __future__ import annotations

import math
from typing import TypeAlias

import numpy as np
import numpy.typing as npt

__all__ = [
    "VERTEX_DTYPE",
    "WEIGHT_DTYPE",
    "SCORE_DTYPE",
    "VertexArray",
    "WeightArray",
    "ScoreArray",
    "NO_VERTEX",
    "MAX_VERTICES",
]

#: dtype used for vertex identifiers and edge endpoints.
VERTEX_DTYPE = np.int64

#: dtype used for edge and self-loop weights.
WEIGHT_DTYPE = np.float64

#: dtype used for edge scores.
SCORE_DTYPE = np.float64

#: Sentinel for "no vertex" in match/partner arrays.
NO_VERTEX: int = -1

#: Vertex ids must be below this: the largest vertex count ``n`` whose
#: pair key ``lo * n + hi`` fits in int64 (3,037,000,499).
MAX_VERTICES = math.isqrt(2**63 - 1)

VertexArray: TypeAlias = npt.NDArray[np.int64]
WeightArray: TypeAlias = npt.NDArray[np.float64]
ScoreArray: TypeAlias = npt.NDArray[np.float64]
