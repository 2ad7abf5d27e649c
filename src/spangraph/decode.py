"""Grammar-constrained generation of linearized graphs.

At every step the runtime produces pointing logits over the dynamic
vocabulary, the FSM mask removes every symbol that would break the grammar,
and greedy or nucleus selection picks among what is left.  Every returned
sequence therefore parses: if the length budget runs out mid-graph, the
partial triple is dropped and the sequence is closed with SEP/END.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grammar import Phase, advance, initial_state, legal_mask, replay
from .graph import Document, IEGraph
from .linearize import END, SEP, START, Symbol, GraphSequence, delinearize
from .model import AttnTrace, DecodeRuntime, Model
from .tensor import masked_softmax_np, no_grad, rowwise_kernels
from .vocab import build_layout, id_to_symbol, symbol_to_id


@dataclass(frozen=True)
class DecodeConfig:
    mode: str = "greedy"
    top_p: float = 0.9
    max_len: int | None = None  # symbols including START/END; default 3 + 4*L
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("greedy", "nucleus"):
            raise ValueError(f"unknown decode mode {self.mode!r}")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must lie in (0, 1]")
        if self.max_len is not None and self.max_len < 3:
            raise ValueError("max_len below the shortest valid sequence")


@dataclass
class GenerationResult:
    sequence: GraphSequence
    graph: IEGraph
    ids: list[int]
    step_logits: list[np.ndarray] = field(default_factory=list)
    truncated: bool = False
    trace: AttnTrace | None = None


def nucleus_select(logits: np.ndarray, mask: np.ndarray, top_p: float,
                   rng: np.random.Generator) -> int:
    """Sample from the smallest probability prefix whose mass reaches top_p.

    Probabilities come from the grammar-masked softmax; candidates are sorted
    by descending probability with ties kept in id order, at least one id is
    always retained, and the kept prefix is renormalized before sampling.
    """
    probs = masked_softmax_np(logits[None, :], mask[None, :])[0]
    order = np.argsort(-probs, kind="stable")
    cum = np.cumsum(probs[order])
    cut = int(np.searchsorted(cum, min(top_p, cum[-1]), side="left"))
    kept = order[: cut + 1]
    kept_p = probs[kept]
    return int(rng.choice(kept, p=kept_p / kept_p.sum()))


def _close_sequence(symbols: list[Symbol]) -> list[Symbol]:
    """Trim a cut-off generation back to a grammar-valid sequence.

    Pops any half-built triple, then appends SEP (if entities were still
    being listed) and END.
    """
    out = list(symbols)
    while True:
        _, final = replay(out)
        if final.phase in (Phase.NODE, Phase.HEAD):
            break
        out.pop()
    if final.phase is Phase.NODE:
        out.append(SEP)
    out.append(END)
    return out


def generate(model: Model, doc: Document, config: DecodeConfig = DecodeConfig(),
             capture_attention: bool = False, fast: bool = True) -> GenerationResult:
    """Decode one document into a graph.

    ``fast`` extends a key/value cache one symbol at a time; with
    ``fast=False`` the whole prefix is recomputed from scratch every step.
    The two paths run the same one-row layer code and give bit-identical logits.
    """
    layout = build_layout(len(doc), model.schema, model.config.max_span_width)
    token_ids = model.word_vocab.encode(doc.tokens)
    runtime = DecodeRuntime(model, token_ids)

    max_len = config.max_len if config.max_len is not None else 3 + 4 * len(doc)
    max_len = min(max_len, model.config.max_positions - 2)

    state = initial_state()
    caches = runtime.fresh_caches()
    symbols: list[Symbol] = [START]
    ids = [layout.start_id]
    labels = [int(state.phase)]
    step_logits: list[np.ndarray] = []

    while len(symbols) < max_len and not state.finished:
        if fast:
            logits = runtime.step_logits(ids[-1], len(ids) - 1, labels[-1], caches)
        else:
            logits = runtime.prefix_logits(ids, labels)
        step_logits.append(logits)
        mask = legal_mask(state, layout, model.schema)
        if config.mode == "greedy":
            pick = int(np.argmax(np.where(mask, logits, -np.inf)))
        else:
            rng = np.random.default_rng([config.seed, len(ids)])
            pick = nucleus_select(logits, mask, config.top_p, rng)
        sym = id_to_symbol(layout, pick)
        labels.append(int(state.phase))
        state = advance(state, sym)
        symbols.append(sym)
        ids.append(pick)

    truncated = not state.finished
    if truncated:
        symbols = _close_sequence(symbols)
        ids = [symbol_to_id(layout, s) for s in symbols]

    seq = GraphSequence(tuple(symbols))
    graph = delinearize(seq)
    trace = None
    if capture_attention:
        from .grammar import structural_labels

        trace = AttnTrace()
        all_labels = np.array([int(p) for p in structural_labels(symbols)], dtype=np.int64)
        all_ids = np.array(ids, dtype=np.int64)
        with no_grad(), rowwise_kernels():
            model.sequence_logits(token_ids, all_ids[:-1], all_labels[:-1], trace=trace)
    return GenerationResult(seq, graph, ids, step_logits, truncated, trace)


def predict(model: Model, docs, config: DecodeConfig = DecodeConfig(),
            fast: bool = True) -> list[IEGraph]:
    return [generate(model, doc, config, fast=fast).graph for doc in docs]
