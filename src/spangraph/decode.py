"""Grammar-constrained generation of linearized graphs.

At every step the runtime produces pointing logits over the dynamic
vocabulary, the FSM mask removes every symbol that would break the grammar,
and greedy or nucleus selection picks among what is left.  Every returned
sequence therefore parses: if the length budget runs out mid-graph, the
partial triple is dropped and the sequence is closed with SEP/END.

Documents decode in lockstep batches: sentences of one token count share
one vocabulary size and one length budget, so a batch needs no padding, and
each step runs the decoder once for all its unfinished sentences.  Attention
is grouped per sentence and the kernels are row-stable, so a sentence's
logits are bit-equal whether it decodes alone (``generate``) or in a batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grammar import Phase, advance, initial_state, legal_mask, structural_labels
from .graph import Document, IEGraph
from .linearize import END, SEP, START, Symbol, GraphSequence, delinearize
from .model import AttnTrace, DecodeRuntime, Model, TooLong, is_integer
from .tensor import masked_softmax_np, no_grad, rowwise_kernels
from .vocab import build_layout, id_to_symbol, symbol_to_id

# A lockstep batch's DecodeRuntime holds at most this many bytes: per
# sentence its vocabulary rows E, each decoder layer's cross keys/values and
# its self-attention cache (``DecodeRuntime.sentence_nbytes``).  At d_model
# 64 with two float32 decoder layers a 100-token input holds 654 KB (3 per
# batch) and a 6-token one 43 KB (47 per batch).  A sweep of 1, 1.5, 2 and
# 3 MiB kept the largest cap that raised peak memory by at most 5%;
# CHANGES.md has the measurements.
BATCH_BYTES = 2 * 2**20


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
        if self.max_len is not None:
            if not is_integer(self.max_len):
                raise ValueError(f"max_len must be an integer, got {self.max_len!r}")
            if self.max_len < 3:
                raise ValueError("max_len below the shortest valid sequence")
        # numpy seeds its generators from non-negative integers only
        if not (is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


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


# symbols of the unfinished triple at the end of a prefix, by grammar phase
_OPEN_ARGUMENTS = {Phase.NODE: 0, Phase.HEAD: 0, Phase.TAIL: 1, Phase.REL: 2}


def _close_sequence(symbols: list[Symbol], phase: Phase) -> list[Symbol]:
    """Trim a cut-off generation back to a grammar-valid sequence.

    ``phase`` is the grammar phase after the last symbol.  Drops the
    half-built triple it implies (a head in TAIL, a head and a tail in REL),
    then appends SEP (if entities were still being listed) and END.
    """
    out = symbols[: len(symbols) - _OPEN_ARGUMENTS[phase]]
    if phase is Phase.NODE:
        out.append(SEP)
    out.append(END)
    return out


def _length_budget(model: Model, config: DecodeConfig, n_tokens: int) -> int:
    max_len = config.max_len if config.max_len is not None else 3 + 4 * n_tokens
    return max(0, min(max_len, model.config.max_positions - 2))


def _too_long(model: Model, doc: Document) -> TooLong | None:
    if len(doc) <= model.config.max_positions:
        return None
    return TooLong(f"document {doc.id!r}: {len(doc)} tokens exceed max_positions "
                   f"{model.config.max_positions}")


def _decode_lockstep(model: Model, docs, config: DecodeConfig, fast: bool,
                     keep_logits: bool) -> list[GenerationResult]:
    """Decode documents of one token count together, one decoder call per step.

    ``fast`` extends a key/value cache one symbol at a time; with
    ``fast=False`` the whole prefixes are recomputed from scratch every step.
    A sentence leaves the batch when it emits END or reaches the length
    budget, so the work follows the sentences still decoding.
    """
    n_tokens = len(docs[0])
    layout = build_layout(n_tokens, model.schema, model.config.max_span_width)
    max_len = _length_budget(model, config, n_tokens)
    runtime = DecodeRuntime(model, np.stack([model.word_vocab.encode(d.tokens) for d in docs]),
                            max_len)
    live = list(range(len(docs))) if max_len > 1 else []  # in runtime row order

    states = [initial_state() for _ in docs]
    symbols: list[list[Symbol]] = [[START] for _ in docs]
    ids = [[layout.start_id] for _ in docs]
    labels = [[int(Phase.NODE)] for _ in docs]
    step_logits: list[list[np.ndarray]] = [[] for _ in docs]
    while live:
        if fast:
            logits = runtime.step_logits(np.array([ids[b][-1] for b in live]),
                                         np.array([labels[b][-1] for b in live]))
        else:
            logits = runtime.prefix_logits([ids[b] for b in live], [labels[b] for b in live])
        masks = np.stack([legal_mask(states[b], layout, model.schema) for b in live])
        if config.mode == "greedy":
            picks = np.argmax(np.where(masks, logits, -np.inf), axis=1).tolist()
        else:
            picks = [nucleus_select(logits[r], masks[r], config.top_p,
                                    np.random.default_rng([config.seed, len(ids[b])]))
                     for r, b in enumerate(live)]
        for r, (b, pick) in enumerate(zip(live, picks)):
            if keep_logits:
                step_logits[b].append(logits[r])
            sym = id_to_symbol(layout, pick)
            labels[b].append(int(states[b].phase))
            states[b] = advance(states[b], sym)
            symbols[b].append(sym)
            ids[b].append(pick)
        keep = [r for r, b in enumerate(live)
                if not states[b].finished and len(symbols[b]) < max_len]
        if len(keep) < len(live):
            live = [live[r] for r in keep]
            runtime.keep(keep)

    results = []
    for b in range(len(docs)):
        truncated = not states[b].finished
        if truncated:
            symbols[b] = _close_sequence(symbols[b], states[b].phase)
            ids[b] = [symbol_to_id(layout, s) for s in symbols[b]]
        seq = GraphSequence(tuple(symbols[b]))
        results.append(GenerationResult(seq, delinearize(seq), ids[b], step_logits[b],
                                        truncated))
    return results


def generate(model: Model, doc: Document, config: DecodeConfig = DecodeConfig(),
             capture_attention: bool = False, fast: bool = True) -> GenerationResult:
    """Decode one document into a graph: the lockstep loop with a batch of one.

    ``fast=False`` recomputes the whole prefix every step instead of using
    the key/value cache; the two paths give bit-identical logits.  Raises
    ``TooLong`` when the document has more tokens than ``max_positions``.
    """
    error = _too_long(model, doc)
    if error is not None:
        raise error
    res = _decode_lockstep(model, [doc], config, fast, keep_logits=True)[0]
    if capture_attention:
        res.trace = AttnTrace()
        all_labels = np.array([int(p) for p in structural_labels(res.sequence)], dtype=np.int64)
        all_ids = np.array(res.ids, dtype=np.int64)
        with no_grad(), rowwise_kernels():
            model.sequence_logits(model.word_vocab.encode(doc.tokens), all_ids[:-1],
                                  all_labels[:-1], trace=res.trace)
    return res


def _decode_batches(model: Model, docs: list[Document], config: DecodeConfig):
    """Yield (index, result) for every document that fits the model, batch by batch.

    Documents are grouped by token count, and each group is split into
    batches whose runtime holds at most ``BATCH_BYTES``.
    """
    by_length: dict[int, list[int]] = {}
    for i, doc in enumerate(docs):
        if _too_long(model, doc) is None:
            by_length.setdefault(len(doc), []).append(i)
    for n_tokens, group in by_length.items():
        budget = _length_budget(model, config, n_tokens)
        size = max(1, BATCH_BYTES // DecodeRuntime.sentence_nbytes(model, n_tokens, budget))
        for at in range(0, len(group), size):
            batch = group[at:at + size]
            yield from zip(batch, _decode_lockstep(model, [docs[i] for i in batch], config,
                                                   fast=True, keep_logits=False))


def generate_batch(model: Model, docs,
                   config: DecodeConfig = DecodeConfig()) -> list[GenerationResult | TooLong]:
    """``generate`` for many documents, in input order, decoded in lockstep batches.

    A document with more tokens than ``max_positions`` never enters a batch;
    its slot holds the ``TooLong`` error that names it.  Results carry no
    ``step_logits``.
    """
    docs = list(docs)
    out: list[GenerationResult | TooLong | None] = [_too_long(model, d) for d in docs]
    for i, res in _decode_batches(model, docs, config):
        out[i] = res
    return out


def predict(model: Model, docs, config: DecodeConfig = DecodeConfig()) -> list[IEGraph]:
    """Graphs of ``docs`` in input order, decoded in lockstep batches.

    Lengths are checked before anything is decoded: a document with more
    tokens than ``max_positions`` raises its ``TooLong``.  Only the graphs
    are kept, not the whole results.
    """
    docs = list(docs)
    for doc in docs:
        error = _too_long(model, doc)
        if error is not None:
            raise error
    graphs: list[IEGraph | None] = [None] * len(docs)
    for i, res in _decode_batches(model, docs, config):
        graphs[i] = res.graph
    return graphs
