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
A cached step also feeds symbols drafted from each sentence's own history
and keeps the picks that confirm them: lossless speculative decoding, with
outputs that do not depend on the draft.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .grammar import (DecodeState, IllegalTransition, Phase, advance, initial_state, legal_mask,
                      structural_labels)
from .graph import Document, IEGraph
from .linearize import END, SEP, START, Symbol, GraphSequence, delinearize
from .model import AttnTrace, DecodeRuntime, Model, TooLong, is_integer
from .tensor import masked_softmax_np, no_grad, rowwise_kernels
from .vocab import IdOutOfRange, VocabLayout, build_layout, id_to_symbol, symbol_to_id

# A lockstep batch's DecodeRuntime holds at most this many bytes: per
# sentence its vocabulary rows E, each decoder layer's cross keys/values and
# its self-attention cache (``DecodeRuntime.sentence_nbytes``).  At d_model
# 64 with two float32 decoder layers a 100-token input holds 654 KB (3 per
# batch) and a 6-token one 43 KB (47 per batch).  A sweep of 1, 1.5, 2 and
# 3 MiB kept the largest cap that raised peak memory by at most 5%;
# CHANGES.md has the measurements.
BATCH_BYTES = 2 * 2**20

# A cached step feeds at most this many drafted symbols after the last one.
# At L = 100 a k-row step takes about 0.29 ms at k = 1, 0.65 ms at k = 8 and
# 1.6 ms at k = 32 (float32, one BLAS thread): about 42 us per drafted row,
# so a decode-long triple loop, whose drafts are always accepted, decodes 32
# symbols in the time of about 5.5 one-row steps.  A sentence drafts only as
# far as its drafts have been right, so its rows double (2, 4, 8, ...) up to
# this cap.  A sweep of 7, 15, 31 and 63 put decode-long ``generate`` at
# 0.85, 0.68, 0.64 and 0.63 of its time at 7 with the old per-row attention,
# and moved short and non-repeating output by no more than their spread; 31
# keeps most of the gain at half the rows a wrong long draft can waste.
# CHANGES.md has the sweep.
DRAFT = 31


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
    decoder_calls: int = 0  # decoder calls made while the sentence was decoding


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


def _draft(ids: list[int]) -> Iterable[int]:
    """The ids that followed the last earlier occurrence of ``ids[-1]``, repeated.

    Copied cyclically, so a repeated triple extends past the end of the
    sequence; empty when the last id has not occurred before.
    """
    try:
        at = len(ids) - 2 - ids[-2::-1].index(ids[-1])
    except ValueError:
        return ()
    return itertools.cycle(ids[at + 1:])


def _walk_draft(state: DecodeState, draft: Iterable[int], layout: VocabLayout
                ) -> tuple[list[int], list[Symbol], list[DecodeState]]:
    """The draft's ids up to its first illegal symbol or END, their symbols, and the states.

    The states are ``state`` and the state after each kept id: the state
    before each kept id gives it the structural label (its phase) that the
    one-row step would feed, and the mask its row's pick is made under.
    """
    kept, symbols, states = [], [], [state]
    for i in draft:
        try:
            sym = id_to_symbol(layout, i)
            if sym is END:
                break
            state = advance(state, sym)
        except (IdOutOfRange, IllegalTransition):
            break
        kept.append(i)
        symbols.append(sym)
        states.append(state)
    return kept, symbols, states


def _decode_lockstep(model: Model, docs, config: DecodeConfig, fast: bool,
                     keep_logits: bool) -> list[GenerationResult]:
    """Decode documents of one token count together, one decoder call per step.

    ``fast`` extends a key/value cache and drafts: each sentence guesses its
    next symbols from its own history (``_draft``), kept only as far as the
    grammar admits them and no longer than its streak of picks that its
    drafts predicted, and a step feeds the last symbol plus the shortest
    draft among the live sentences, at most ``DRAFT``, as one multi-row
    call.  Row j's pick is made under the mask of the draft's walk state
    before it, exactly as a one-row step would make it; the step keeps the
    longest run of rows in which every sentence's pick equals its fed draft
    symbol, plus the row that breaks it, and the next step overwrites the
    rest.  No step reaches the cache's last row (the last symbol is never
    fed).  ``fast=False`` runs ``sequence_logits`` over each whole prefix,
    one row per step with a walk of one state.  A sentence leaves the batch
    at END or at the length budget, so the work follows the sentences still
    decoding.
    """
    n_tokens = len(docs[0])
    layout = build_layout(n_tokens, model.schema, model.config.max_span_width)
    max_len = _length_budget(model, config, n_tokens)
    tokens = np.stack([model.word_vocab.encode(d.tokens) for d in docs])
    runtime = DecodeRuntime(model, tokens, max_len)
    live = list(range(len(docs))) if max_len > 1 else []  # in runtime row order

    states = [initial_state() for _ in docs]
    symbols: list[list[Symbol]] = [[START] for _ in docs]
    ids = [[layout.start_id] for _ in docs]
    labels = [[int(Phase.NODE)] for _ in docs]
    step_logits: list[list[np.ndarray]] = [[] for _ in docs]
    calls = [0] * len(docs)
    streak = [0] * len(docs)  # the sentence's latest picks that its drafts predicted
    while live:
        if fast:
            # draft rows that keep the cache's last row free; live sentences share a length
            room = min(DRAFT, max_len - len(symbols[live[0]]) - 1)
            # a sentence drafts as far as its streak; one id more, never fed,
            # checks the last row's pick, so drafts that are wrong cost no rows
            walks = [_walk_draft(states[b], itertools.islice(_draft(ids[b]),
                                                             min(room, streak[b]) + 1), layout)
                     for b in live]
            room = min([room] + [min(streak[b], len(kept)) for b, (kept, _, _) in zip(live, walks)])
        else:
            room, walks = 0, [([], [], [states[b]]) for b in live]
        fed = np.array([[ids[b][-1]] + kept[:room] for b, (kept, _, _) in zip(live, walks)])
        if fast:
            logits = runtime.step_logits(fed, np.array(
                [[labels[b][-1]] + [int(s.phase) for s in walked[:room]]
                 for b, (_, _, walked) in zip(live, walks)]))
        else:
            with no_grad(), rowwise_kernels():
                logits = np.stack([model.sequence_logits(tokens[b], ids[b], labels[b]).data[-1:]
                                   for b in live])
        # row j's mask comes from the walk's state before its pick
        masks = np.array([[legal_mask(s, layout, model.schema) for s in walked[:room + 1]]
                          for _, _, walked in walks])
        if config.mode == "greedy":
            picks = np.argmax(np.where(masks, logits, -np.inf), axis=2)
        else:
            # row by row: past a draft symbol the mask rejects, a row may have no legal symbol
            picks = np.zeros(fed.shape, np.int64)
            for j in range(room + 1):
                picks[:, j] = [nucleus_select(logits[r, j], masks[r, j], config.top_p,
                                              np.random.default_rng([config.seed, len(ids[b]) + j]))
                               for r, b in enumerate(live)]
                if j < room and (picks[:, j] != fed[:, j + 1]).any():
                    break
        # keep rows up to the first one in which some pick differs from its fed draft
        j = int(np.append((picks[:, :-1] == fed[:, 1:]).all(axis=0), False).argmin())
        for r, b in enumerate(live):
            kept, walked_symbols, walked = walks[r]
            pick = int(picks[r, j])
            streak[b] = streak[b] + j + 1 if j < len(kept) and pick == kept[j] else 0
            sym = id_to_symbol(layout, pick)
            labels[b].extend(int(s.phase) for s in walked[:j + 1])
            states[b] = advance(walked[j], sym)
            symbols[b].extend(walked_symbols[:j])
            symbols[b].append(sym)
            ids[b].extend(picks[r, :j + 1].tolist())
        runtime.length -= room - j  # the next step overwrites the rejected rows
        if keep_logits:
            # after a rejection keep a copy of the accepted rows, not views that hold them all
            kept_rows = logits if j + 1 == logits.shape[1] else logits[:, :j + 1].copy()
            for b, rows in zip(live, kept_rows):
                step_logits[b].extend(rows)
        for b in live:
            calls[b] += 1
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
                                        truncated, decoder_calls=calls[b]))
    return results


def generate(model: Model, doc: Document, config: DecodeConfig = DecodeConfig(),
             capture_attention: bool = False, fast: bool = True) -> GenerationResult:
    """Decode one document into a graph: the lockstep loop with a batch of one.

    The cached path feeds drafted symbols with the last one, so
    ``decoder_calls`` may be fewer than the symbols decoded; ``step_logits``
    still holds one row per decoded symbol.  ``fast=False`` recomputes each
    step with ``Model.sequence_logits`` instead of the key/value cache, one
    symbol per call; ids and logits are bit-identical.  Raises ``TooLong``
    when the document has more tokens than ``max_positions``.
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
