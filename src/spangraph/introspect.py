"""Exports for looking inside a trained model.

Attention maps come straight from a traced forward pass (post-softmax
weights), written as CSV with human-readable row/column labels so they can
be eyeballed or plotted elsewhere.  The structural-label similarity export
answers whether the four decoding phases learned distinct embeddings.
"""

from __future__ import annotations

import csv

import numpy as np

from .fileio import atomic_write
from .grammar import Phase
from .linearize import render_symbol
from .model import AttnTrace, Model


class TraceMissing(ValueError):
    """No attention trace was captured for this generation."""


class ZeroVector(ValueError):
    """A structural embedding has zero norm, cosine similarity is undefined."""


def attention_matrix(trace: AttnTrace | None, layer: int, head: int | str,
                     kind: str = "cross") -> np.ndarray:
    """One (queries, keys) weight matrix; head may be an index or "mean"."""
    if trace is None:
        raise TraceMissing("generation ran without capture_attention")
    if kind not in ("self", "cross"):
        raise ValueError(f"kind must be self or cross, got {kind!r}")
    stack = trace.self_attn if kind == "self" else trace.cross_attn
    if not stack:
        raise TraceMissing("trace holds no attention maps")
    if not 0 <= layer < len(stack):
        raise ValueError(f"layer {layer} outside 0..{len(stack) - 1}")
    weights = stack[layer]
    if head == "mean":
        return weights.mean(axis=0)
    head = int(head)
    if not 0 <= head < weights.shape[0]:
        raise ValueError(f"head {head} outside 0..{weights.shape[0] - 1}")
    return weights[head]


def export_attention(trace: AttnTrace | None, symbols, tokens, path: str,
                     layer: int = 0, head: int | str = "mean",
                     kind: str = "cross") -> np.ndarray:
    """Write one attention map as CSV and return it.

    Query rows are labeled with the decoder input symbols (the generated
    sequence minus its final END); key columns are the same symbols for
    self-attention or the sentence tokens for cross-attention.
    """
    matrix = attention_matrix(trace, layer, head, kind)
    query_labels = [render_symbol(s) for s in tuple(symbols)[:-1]]
    key_labels = query_labels if kind == "self" else list(tokens)
    if matrix.shape != (len(query_labels), len(key_labels)):
        raise ValueError(
            f"trace shape {matrix.shape} does not match {len(query_labels)} queries"
            f" x {len(key_labels)} keys"
        )
    rows = [["query\\key", *key_labels]]
    for label, row in zip(query_labels, matrix):
        rows.append([label, *[f"{w:.6f}" for w in row]])
    with atomic_write(path) as fh:
        csv.writer(fh).writerows(rows)
    return matrix


def struct_similarity(model: Model) -> tuple[np.ndarray, np.ndarray]:
    """Cosine similarities between the four phase embeddings plus the raw rows."""
    table = model.params["dec.struct"].data
    norms = np.linalg.norm(table, axis=1)
    if (norms == 0).any():
        bad = [Phase(i).name for i in np.flatnonzero(norms == 0)]
        raise ZeroVector(f"zero-norm structural embedding for {', '.join(bad)}")
    unit = table / norms[:, None]
    return unit @ unit.T, table.copy()


def export_struct_similarity(model: Model, path: str) -> np.ndarray:
    """Write the 4x4 cosine matrix plus the raw embedding rows; returns the matrix."""
    sim, raw = struct_similarity(model)
    names = [Phase(i).name for i in range(sim.shape[0])]
    rows = [["cosine", *names]]
    for name, row in zip(names, sim):
        rows.append([name, *[f"{v:.6f}" for v in row]])
    rows.append([])
    rows.append(["values", *[f"d{j}" for j in range(raw.shape[1])]])
    for name, row in zip(names, raw):
        rows.append([name, *[f"{v:.6f}" for v in row]])
    with atomic_write(path) as fh:
        csv.writer(fh).writerows(rows)
    return sim
