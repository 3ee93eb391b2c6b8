"""File ingestion and synthetic data generation.

Every loader reads its file with one numpy parse, ``_table``: '#' starts a
comment anywhere on a line, blank lines are skipped, and a line that does
not parse fails as ``<path>:<lineno>``.  All generators are seed-deterministic.
"""

from __future__ import annotations

import json
import warnings
from bisect import bisect_left
from pathlib import Path
from typing import Iterator

import numpy as np

from .core import checked_array, checked_scalar, stream_ids
from .objectives import DirectedGraph, key_csr


def _data_lines(path, skip: int = 0) -> Iterator[tuple[int, str]]:
    """(line number, stripped text before any '#') of the data lines past line ``skip``."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if line and lineno > skip:
                yield lineno, line


def _table(path, dtype, what: str, delimiter: str | None = None, skip: int = 0):
    """The file as a 2-D table, one row per data line (none for an empty file),
    parsed by numpy in one call.  On a ValueError, ``<path>:<lineno>: <what>
    <line!r>`` for the first line that does not parse alone or next to the
    first line (a changed field count), found by bisecting over prefixes."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            return np.loadtxt(path, dtype, delimiter=delimiter, skiprows=skip, ndmin=2)
    except ValueError:
        lines = [*_data_lines(path, skip)]

        def fails(j: int) -> bool:  # whether the first j + 1 lines fail
            try:
                np.loadtxt([line for _, line in lines[:j + 1]], dtype, delimiter=delimiter)
            except ValueError:
                return True
            return False

        j = bisect_left(range(len(lines)), True, key=fails)
        if j == len(lines):
            raise
        raise ValueError(f"{path}:{lines[j][0]}: {what} {lines[j][1]!r}") from None


def load_edge_list(path) -> DirectedGraph:
    """Parse a directed edge list; dedupes, drops self-loops, compacts ids."""
    edges = _table(path, "i8,i8", "expected 'src dst', got")
    graph = DirectedGraph.from_edges(edges.view(np.int64))
    if graph.n == 0:
        raise ValueError(f"{path}: no edges between distinct nodes")
    return graph


def write_edge_list(graph: DirectedGraph, path, comment: str = "") -> None:
    """Write dense-id edges, one per line, with an optional '#' header."""
    np.savetxt(path, np.column_stack([graph.tails(), graph.out_csr[1]]), fmt="%d",
               header=comment, comments="# ")


def random_digraph(n: int, p: float, seed: int = 0) -> DirectedGraph:
    """G(n, p) style digraph without self-loops; isolated nodes are kept."""
    checked_scalar(n, "n", int, "[1, inf)")
    checked_scalar(p, "edge probability p", float, "[0, 1]")
    rng = np.random.default_rng(checked_scalar(seed, "seed", int, "[0, inf)"))
    step = max(1, 2**22 // n)  # rows per draw; in sequence they give one n x n draw's numbers
    flat = np.concatenate([np.flatnonzero(rng.random((min(step, n - lo), n)) < p) + lo * n
                           for lo in range(0, n, step)])
    flat = flat[flat % (n + 1) != 0]  # i * n + i is the diagonal
    return DirectedGraph(key_csr(n, flat), tuple(range(n)))  # flatnonzero keys ascend


def load_matrix_csv(path, header: bool = False) -> np.ndarray:
    """Dense float matrix from CSV; `header` skips the first line."""
    M = _table(path, float, "malformed row", ",", skip=int(header))
    if M.size == 0:
        raise ValueError(f"{path}: no data")
    return checked_array(M, f"{path}: matrix", "2-D", nonneg=False)


def load_similarity_matrix(path, header: bool = False) -> np.ndarray:
    M = load_matrix_csv(path, header=header)
    return checked_array(M, f"{path}: similarity matrix", "square", nonneg=False)


def save_matrix_csv(M: np.ndarray, path) -> None:
    np.savetxt(path, np.asarray(M, dtype=float), delimiter=",", fmt="%.17g")


def load_score_table(path) -> list[tuple[int, int, float]]:
    """word_id,element_id,value triples; negative or non-finite values are rejected."""
    table = _table(path, "i8,i8,f8", "malformed triple", ",").ravel()
    bad = np.flatnonzero(~(np.isfinite(table["f2"]) & (table["f2"] >= 0)))
    if bad.size:
        lineno = [*_data_lines(path)][bad[0]][0]
        raise ValueError(f"{path}:{lineno}: score {table['f2'][bad[0]]} "
                         "must be finite and non-negative")
    return table.tolist()


def load_cost_vector(path) -> np.ndarray:
    """One non-negative float per line (or a single CSV row)."""
    C = load_matrix_csv(path)
    return checked_array(C.ravel() if 1 in C.shape else C, f"{path}: cost vector",
                         "1-D", nonneg=True)


def load_stream_order(path, n: int) -> list[int]:
    """Newline-delimited element ids for replaying a fixed stream order; ValueError,
    prefixed with the path, on a non-integer line or an id ``core.stream_ids`` rejects."""
    order = _table(path, [("id", np.int64)], "non-integer id")["id"].ravel()
    try:
        return [*stream_ids(order.tolist(), n)]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def resolve_stream_order(spec: str, n: int, seed: int = 0) -> list[int]:
    """Element order for streaming runs: natural, shuffled, or file:PATH."""
    if spec == "natural":
        return list(range(n))
    if spec == "shuffled":
        rng = np.random.default_rng(checked_scalar(seed, "seed", int, "[0, inf)"))
        return [int(u) for u in rng.permutation(n)]
    if spec.startswith("file:"):
        return load_stream_order(spec[len("file:"):], n)
    raise ValueError(f"unknown stream order {spec!r} "
                     "(use 'natural', 'shuffled', or 'file:PATH')")


def save_generated_matrix(M: np.ndarray, path, meta: dict) -> None:
    """Matrix CSV plus a .meta.json sidecar recording how it was drawn."""
    save_matrix_csv(M, path)
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")
