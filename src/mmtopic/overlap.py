"""Cross-model topic overlap: RBO similarity between two models' keyword
rankings, matched one-to-one with the Hungarian algorithm.

The assignment maximizes total similarity, so the reported mean states how
much of one model's topic structure survives in the other under the best
possible topic correspondence.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .corpus import atomic_write_text
from .descriptors import _ranked
from .metrics import _rbo_matrix


def topic_similarity_matrix(topics_a, topics_b, p: float = 0.9) -> np.ndarray:
    """Pairwise RBO between two models' topic keyword rankings. Both sides
    must have the same number of topics and equal-length keyword lists."""
    if len(topics_a) != len(topics_b):
        raise ValueError(f"topic counts differ: {len(topics_a)} vs {len(topics_b)}")
    if len(topics_a) == 0:
        raise ValueError("at least one topic per model is required")
    return _rbo_matrix(topics_a, topics_b, p)


def hungarian(matrix, maximize: bool = False) -> tuple[list[int], float]:
    """Optimal one-to-one assignment on a square cost matrix.

    Shortest augmenting paths with row/column potentials, O(n^3).
    Maximization negates the costs. Returns (assignment, total) where
    ``assignment[i]`` is the column matched to row ``i`` and ``total`` is
    summed over the original matrix.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    n = a.shape[0]
    cost = -a if maximize else a

    # 1-indexed potentials; p[j] is the row matched to column j, column 0
    # is the virtual root of each augmenting search.
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = np.flatnonzero(~used)
            cur = cost[i0 - 1, free - 1] - u[i0] - v[free]
            better = cur < minv[free]
            minv[free[better]] = cur[better]
            way[free[better]] = j0
            # argmin takes the first of equal minima, as a strict < scan does
            j1 = free[np.argmin(minv[free])]
            delta = minv[j1]
            u[p[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    assignment = np.empty(n, dtype=np.int64)
    assignment[p[1:] - 1] = np.arange(n)
    total = float(sum(a[np.arange(n), assignment]))
    return assignment.tolist(), total


@dataclass(frozen=True)
class OverlapReport:
    """Best-match topic overlap between two models: the full similarity
    matrix, the maximizing assignment, and the mean and population standard
    deviation of the matched similarities."""

    model_a: str
    model_b: str
    similarity: np.ndarray
    assignment: tuple[int, ...]
    mean: float
    sd: float
    rbo_p: float
    descriptor_size: int

    def to_dict(self) -> dict:
        return {**asdict(self), "similarity": self.similarity.tolist(),
                "assignment": list(self.assignment)}

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        atomic_write_text(path, json.dumps(self.to_dict()) + "\n")
        return path


def overlap_report(model_a, model_b, n: int = 10, p: float = 0.9) -> OverlapReport:
    """Match two trained models' topics by keyword RBO and summarize the
    assigned similarities."""
    sim = topic_similarity_matrix(_ranked(model_a, n), _ranked(model_b, n), p=p)
    assignment, _ = hungarian(sim, maximize=True)
    matched = sim[np.arange(sim.shape[0]), assignment]
    return OverlapReport(
        model_a=model_a.label,
        model_b=model_b.label,
        similarity=sim,
        assignment=tuple(assignment),
        mean=float(matched.mean()),
        sd=float(matched.std()),
        rbo_p=p,
        descriptor_size=n,
    )
