"""File ingestion and synthetic data generation.

Edge lists follow the common "src dst" whitespace format with '#' comment
lines.  Matrices and cost vectors are plain CSV.  Score tables are
word_id,element_id,value triples.  All loaders fail with the offending line
number; all generators are seed-deterministic.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

import numpy as np

from .core import checked_array, checked_scalar
from .objectives import DirectedGraph, csr


def _data_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for every line but blanks and '#' comments."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line and line[0] != "#":
                yield lineno, line


def load_edge_list(path) -> DirectedGraph:
    """Parse a directed edge list; dedupes, drops self-loops, compacts ids."""
    edges = []
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'src dst', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-integer node id in {line!r}") from exc
    graph = DirectedGraph.from_edges(edges)
    if graph.n == 0:
        raise ValueError(f"{path}: no edges between distinct nodes")
    return graph


def write_edge_list(graph: DirectedGraph, path, comment: str = "") -> None:
    """Write dense-id edges, one per line, with an optional '#' header."""
    with open(path, "w") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        for u, v in graph.edges():
            fh.write(f"{u} {v}\n")


def random_digraph(n: int, p: float, seed: int = 0) -> DirectedGraph:
    """G(n, p) style digraph without self-loops; isolated nodes are kept."""
    checked_scalar(n, "n", int, "[1, inf)")
    checked_scalar(p, "edge probability p", float, "[0, 1]")
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    return DirectedGraph(csr(n, *np.nonzero(mask)), tuple(range(n)))


def load_matrix_csv(path, header: bool = False) -> np.ndarray:
    """Dense float matrix from CSV; `header` skips the first line."""
    M = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
    return checked_array(M, f"{path}: matrix", "2-D", nonneg=False)


def load_similarity_matrix(path, header: bool = False) -> np.ndarray:
    M = load_matrix_csv(path, header=header)
    return checked_array(M, f"{path}: similarity matrix", "square", nonneg=False)


def save_matrix_csv(M: np.ndarray, path) -> None:
    np.savetxt(path, np.asarray(M, dtype=float), delimiter=",", fmt="%.17g")


def load_score_table(path) -> list[tuple[int, int, float]]:
    """word_id,element_id,value triples; negative or non-finite values are rejected."""
    triples = []
    for lineno, line in _data_lines(path):
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'word,element,value'")
        try:
            w, e, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed triple {line!r}") from exc
        if not np.isfinite(v) or v < 0:
            raise ValueError(f"{path}:{lineno}: score {v} must be finite and non-negative")
        triples.append((w, e, v))
    return triples


def load_cost_vector(path) -> np.ndarray:
    """One non-negative float per line (or a single CSV column)."""
    arr = np.loadtxt(path, delimiter=",", ndmin=1)
    return checked_array(arr, f"{path}: cost vector", "1-D", nonneg=True)


def load_stream_order(path, n: int | None = None) -> list[int]:
    """Newline-delimited element ids for replaying a fixed stream order."""
    order = []
    for lineno, line in _data_lines(path):
        try:
            order.append(int(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-integer id {line!r}") from exc
    if len(set(order)) != len(order):
        raise ValueError(f"{path}: duplicate ids in stream order")
    if n is not None:
        bad = [u for u in order if not 0 <= u < n]
        if bad:
            raise ValueError(f"{path}: ids {bad[:5]} outside ground set of size {n}")
    return order


def write_stream_order(order, path) -> None:
    with open(path, "w") as fh:
        for u in order:
            fh.write(f"{int(u)}\n")


def resolve_stream_order(spec: str, n: int, seed: int = 0) -> list[int]:
    """Element order for streaming runs: natural, shuffled, or file:PATH."""
    if spec == "natural":
        return list(range(n))
    if spec == "shuffled":
        rng = np.random.default_rng(seed)
        return [int(u) for u in rng.permutation(n)]
    if spec.startswith("file:"):
        return load_stream_order(spec[len("file:"):], n=n)
    raise ValueError(f"unknown stream order {spec!r} "
                     "(use 'natural', 'shuffled', or 'file:PATH')")


def save_generated_matrix(M: np.ndarray, path, meta: dict) -> None:
    """Matrix CSV plus a .meta.json sidecar recording how it was drawn."""
    save_matrix_csv(M, path)
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")
