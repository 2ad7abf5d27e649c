"""Encoder-decoder that generates linearized IE graphs by pointing.

The encoder contextualizes the sentence; every candidate span gets an
embedding built from its boundary token states under a per-entity-type
projection.  Those span rows, three special symbols, and the relation types
form the dynamic output vocabulary E, and the decoder scores the next symbol
as a dot product between its hidden state and every row of E (the output
embedding is the pointing table, there is no separate softmax weight).

The layer code (``encode`` / ``span_embeddings`` / ``cross_kv`` /
``decoder_inputs`` / ``decode_hidden``) is the only definition of the
network, written once over an op set: it calls ``ops.linear``,
``ops.attention`` and the rest on the parameters ``bind`` hands it, one
tuple per layer.  Training and ``sequence_logits`` run it on the tape ops
(the ``tensor`` module) over whole teacher-forced prefixes; generation runs
the same methods on the array op set (``tensor.ArrayOps``), one row per
sentence and step, via ``DecodeRuntime``, which holds the key/value rows and
builds no ``Tensor``.  The two op sets share their kernels, so they give the
same bits.

Several examples run as one forward: their token rows and decoder rows are
concatenated, and the layer methods take the per-example row counts
(``tok_lens`` / ``sym_lens``).  Positions restart at 0 in every example, and
attention stays inside an example: examples of one length run as equal
groups of ``tensor.attention``, which computes no score across groups; mixed
lengths (training's packed batches) are masked block-diagonally.  Decoding
batches only sentences of one length, so every row of a lockstep batch runs
the arithmetic of a sentence decoded alone.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .graph import Schema
from .tensor import Tensor
from .vocab import N_SPECIALS, build_layout


class TooLong(ValueError):
    """Sentence exceeds the encoder position table."""


class PrefixTooLong(ValueError):
    """Decoder prefix exceeds the decoder position table."""


# structural label channels, one embedding row each; values match grammar.Phase
N_STRUCT_LABELS = 4

def is_integer(value) -> bool:
    """A Python or numpy integer, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_integer_fields(config, *names: str) -> None:
    """Raise ValueError naming the first field in ``names`` that is not an integer.

    Stores each one as a Python int: a numpy integer is not JSON, and
    checkpoints keep their configs as JSON.
    """
    for name in names:
        value = getattr(config, name)
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(config, name, int(value))


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    enc_layers: int = 2
    dec_layers: int = 2
    heads: int = 4
    max_span_width: int = 8
    dropout: float = 0.0
    max_positions: int = 512
    dtype: str = "float32"
    use_positions: bool = True
    use_structure: bool = True

    def __post_init__(self):
        check_integer_fields(self, "d_model", "enc_layers", "dec_layers", "heads",
                             "max_span_width", "max_positions")
        if self.heads < 1:
            raise ValueError(f"heads must be at least 1, got {self.heads}")
        if self.d_model <= 0 or self.d_model % self.heads:
            raise ValueError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if self.max_positions < 1:
            raise ValueError(f"max_positions must be at least 1, got {self.max_positions}")
        if self.enc_layers < 0 or self.dec_layers < 1:
            raise ValueError("need enc_layers >= 0 and dec_layers >= 1")
        if self.max_span_width < 1:
            raise ValueError("max_span_width must be at least 1")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"unsupported dtype {self.dtype!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


class WordVocab:
    """Token-to-id map with a reserved unknown word at id 0."""

    UNK = "<unk>"

    def __init__(self, words):
        words = list(words)
        if not words or words[0] != self.UNK:
            raise ValueError("word list must start with the unknown token")
        if len(set(words)) != len(words):
            raise ValueError("duplicate words in vocabulary")
        self._words = tuple(words)
        self._ids = {w: i for i, w in enumerate(words)}

    @classmethod
    def build(cls, documents) -> "WordVocab":
        seen = {tok for doc in documents for tok in doc.tokens}
        seen.discard(cls.UNK)
        return cls([cls.UNK, *sorted(seen)])

    @property
    def words(self) -> tuple[str, ...]:
        return self._words

    def __len__(self) -> int:
        return len(self._words)

    def id(self, word: str) -> int:
        return self._ids.get(word, 0)

    def encode(self, tokens) -> np.ndarray:
        return np.array([self.id(t) for t in tokens], dtype=np.int64)


@dataclass
class AttnTrace:
    """Post-softmax attention weights captured during a decoder forward."""

    self_attn: list[np.ndarray] = field(default_factory=list)
    cross_attn: list[np.ndarray] = field(default_factory=list)


def _positions(lengths) -> np.ndarray:
    """Row positions that restart at 0 in every segment of a packed batch."""
    if len(lengths) == 1:
        return np.arange(lengths[0])
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) - np.repeat(ends - lengths, lengths)


def _attention_groups(q_lens, k_lens) -> tuple[int, np.ndarray | None]:
    """Group count and mask that keep packed examples' attention inside each example.

    One example: one group, no mask.  Examples with one query length and one
    key length: one equal group each.  Otherwise one group under a
    (sum q_lens, sum k_lens) mask, True where query and key share an example.
    """
    if q_lens is None or len(q_lens) == 1:
        return 1, None
    if len(set(q_lens)) == 1 and len(set(k_lens)) == 1:
        return len(q_lens), None
    seg = np.arange(len(q_lens))
    return 1, np.repeat(seg, q_lens)[:, None] == np.repeat(seg, k_lens)[None, :]


# the parameter tree, written once: each block's parts with their shapes in
# units of d_model, and each layer's blocks, in initialization order
_NORM = (("g", (1,)), ("b", (1,)))
_ATTN = (("wq", (1, 1)), ("wk", (1, 1)), ("wv", (1, 1)), ("wo", (1, 1)),
         ("bq", (1,)), ("bk", (1,)), ("bv", (1,)), ("bo", (1,)))
_FFN = (("w1", (1, 4)), ("b1", (4,)), ("w2", (4, 1)), ("b2", (1,)))
_ENC_LAYER = (("ln1", _NORM), ("attn", _ATTN), ("ln2", _NORM), ("ffn", _FFN))
_DEC_LAYER = (("ln1", _NORM), ("self", _ATTN), ("ln2", _NORM), ("cross", _ATTN),
              ("ln3", _NORM), ("ffn", _FFN))
_TABLES = ("enc.word_emb", "enc.pos", "dec.pos", "dec.struct", "dec.special", "dec.rel")
# norm gains and biases: the one-axis parts; with the tables they take no weight decay
_BIAS_SUFFIXES = tuple(f".{part}" for part, units in _NORM + _ATTN + _FFN if len(units) == 1)


def _layers(side: str, count: int, blocks) -> tuple:
    """``count`` layers of ``blocks``, each block a tuple of (name, shape in units of d)."""
    return tuple(tuple(tuple((f"{side}.{i}.{block}.{part}", units) for part, units in parts)
                       for block, parts in blocks) for i in range(count))


@functools.cache
def _bound_names(config: ModelConfig, n_entity_types: int) -> tuple:
    """``Bound``'s fields after ``ops`` as parameter names: the tables, span maps and layers."""
    def names(layers) -> tuple:
        return tuple(tuple(tuple(name for name, _ in block) for block in layer)
                     for layer in layers)

    return (_TABLES, tuple(f"span.w{c}" for c in range(n_entity_types)),
            names(_layers("enc", config.enc_layers, _ENC_LAYER)),
            names(_layers("dec", config.dec_layers, _DEC_LAYER)))


class Bound(NamedTuple):
    """A model's parameters as one op set's operands, each layer's in one tuple.

    ``ops`` is the op set: the ``tensor`` module (tape ops over the
    parameters' ``Tensor`` s) or ``tensor.ArrayOps`` (their arrays); a cached
    ``decode_hidden`` runs on ``ArrayOps`` only.  Each block holds its parts
    in ``param_shapes`` order: a norm is (g, b), an attention block (wq, wk,
    wv, wo, bq, bk, bv, bo) and a feed-forward block (w1, b1, w2, b2); an
    encoder layer is (ln1, attn, ln2, ffn) and a decoder layer (ln1, self,
    ln2, cross, ln3, ffn).
    """

    ops: object
    word_emb: object
    enc_pos: object
    dec_pos: object
    dec_struct: object
    dec_special: object
    dec_rel: object
    span: tuple  # span.w{c}, one per entity type
    enc: tuple
    dec: tuple


def param_group(name: str) -> str:
    if name.startswith("enc."):
        return "encoder"
    if name.startswith("dec."):
        return "decoder"
    return "other"


def decay_excluded(name: str) -> bool:
    return name in _TABLES or name.endswith(_BIAS_SUFFIXES)


def param_shapes(config: ModelConfig, schema: Schema, n_words: int) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in initialization order."""
    d, positions = config.d_model, config.max_positions

    def layers(side: str, count: int, blocks) -> dict[str, tuple[int, ...]]:
        return {name: tuple(d * u for u in units) for layer in _layers(side, count, blocks)
                for block in layer for name, units in block}

    return {"enc.word_emb": (n_words, d), "enc.pos": (positions, d),
            **layers("enc", config.enc_layers, _ENC_LAYER),
            "dec.pos": (positions, d), "dec.struct": (N_STRUCT_LABELS, d),
            # row order matches the id layout: START, END, SEP
            "dec.special": (N_SPECIALS, d), "dec.rel": (schema.n_relation_types, d),
            **layers("dec", config.dec_layers, _DEC_LAYER),
            **{f"span.w{c}": (2 * d, d) for c in range(schema.n_entity_types)}}


def _init_params(config: ModelConfig, schema: Schema, n_words: int, rng) -> dict[str, Tensor]:
    """Norm gains start at one, biases at zero, everything else at N(0, 0.02)."""
    dt = config.np_dtype
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(config, schema, n_words).items():
        if name.endswith(".g"):
            data = np.ones(shape, dtype=dt)
        elif name.endswith(_BIAS_SUFFIXES):
            data = np.zeros(shape, dtype=dt)
        else:
            data = rng.normal(0.0, 0.02, size=shape).astype(dt)
        params[name] = Tensor(data, requires_grad=True)
    return params


class Model:
    def __init__(self, config: ModelConfig, schema: Schema, word_vocab: WordVocab,
                 rng: np.random.Generator | None = None,
                 params: dict[str, Tensor] | None = None):
        self.config = config
        self.schema = schema
        self.word_vocab = word_vocab
        if params is None:
            if rng is None:
                rng = np.random.default_rng(0)
            params = _init_params(config, schema, len(word_vocab), rng)
        self.params = params

    # ------------------------------------------------------------------
    # forward, over either op set

    def bind(self, ops=T) -> Bound:
        """The parameters as ``ops`` operands, each layer's in one tuple (see ``Bound``)."""
        get, param = self.params.__getitem__, ops.param

        def block(names: tuple[str, ...]) -> tuple:
            return tuple(map(param, map(get, names)))

        tables, span, enc, dec = _bound_names(self.config, self.schema.n_entity_types)
        return Bound(ops, *block(tables), block(span),
                     tuple(tuple(map(block, layer)) for layer in enc),
                     tuple(tuple(map(block, layer)) for layer in dec))

    @staticmethod
    def _kv(ops, attn: tuple, x):
        _, wk, wv, _, _, bk, bv, _ = attn
        return ops.linear(x, wk, bk), ops.linear(x, wv, bv)

    def _mha(self, ops, attn: tuple, x_q, kv, train: bool, rng, sink: list | None,
             groups: int = 1, mask: np.ndarray | None = None, start: int | None = None):
        wq, _, _, wo, bq, _, _, bo = attn
        ctx = ops.attention(ops.linear(x_q, wq, bq), *kv, self.config.heads, mask,
                            self.config.dropout, rng, train, sink, groups, start)
        return ops.dropout(ops.linear(ctx, wo, bo), self.config.dropout, rng, train)

    def _ffn(self, ops, ffn: tuple, x, train: bool, rng):
        w1, b1, w2, b2 = ffn
        h = ops.gelu(ops.linear(x, w1, b1))
        return ops.dropout(ops.linear(h, w2, b2), self.config.dropout, rng, train)

    def encode(self, token_ids: np.ndarray, train: bool = False, rng=None,
               tok_lens=None, bound: Bound | None = None):
        """Contextual token states (L, D); with zero layers, embeddings + positions.

        ``tok_lens`` splits the rows into packed examples (default: one).
        """
        n = len(token_ids)
        tok_lens = [n] if tok_lens is None else tok_lens
        if max(tok_lens) > self.config.max_positions:
            raise TooLong(f"sentence length {max(tok_lens)} exceeds max_positions "
                          f"{self.config.max_positions}")
        bound = self.bind() if bound is None else bound
        ops = bound.ops
        x = ops.add(ops.embedding_lookup(bound.word_emb, token_ids),
                    ops.embedding_lookup(bound.enc_pos, _positions(tok_lens)))
        x = ops.dropout(x, self.config.dropout, rng, train)
        groups, mask = _attention_groups(tok_lens, tok_lens)
        for ln1, attn, ln2, ffn in bound.enc:
            h = ops.layer_norm(x, *ln1)
            x = ops.add(x, self._mha(ops, attn, h, self._kv(ops, attn, h), train, rng, None,
                                     groups, mask))
            h = ops.layer_norm(x, *ln2)
            x = ops.add(x, self._ffn(ops, ffn, h, train, rng))
        return x

    def span_embeddings(self, H, tok_lens=None, bound: Bound | None = None):
        """One row per span id (L*K*C, D): boundary-state concat under per-type maps.

        Spans that would overhang their sentence keep their id slot but are
        computed against a zero end-vector; the grammar mask keeps them from
        ever being selected.  With packed examples (``tok_lens``) each
        example's L_b*K*C rows follow the previous example's.
        """
        L = H.shape[0]
        K = self.config.max_span_width
        tok_lens = [L] if tok_lens is None else tok_lens
        bound = self.bind() if bound is None else bound
        ops = bound.ops
        starts = np.repeat(np.arange(L), K)
        ends = starts + np.tile(np.arange(K), L)
        last = np.repeat(np.repeat(np.cumsum(tok_lens), tok_lens), K) - 1
        valid = ends <= last
        h_start = ops.embedding_lookup(H, starts)
        h_end = ops.embedding_lookup(H, np.minimum(ends, last))
        h_end = ops.mul(h_end, valid[:, None].astype(self.config.np_dtype))
        cat = ops.concat_last_dim(h_start, h_end)
        # column block c of row i is span i under type c, so the (N, C*D)
        # product reshapes to rows i*C + c
        W = ops.concat_last_dim(*bound.span)
        return ops.reshape(ops.matmul(cat, W), (-1, self.config.d_model))

    def build_E(self, S, bound: Bound | None = None):
        """Dynamic vocabulary matrix (V, D): spans, then specials, then relations."""
        bound = self.bind() if bound is None else bound
        return bound.ops.concat_rows([S, bound.dec_special, bound.dec_rel])

    def decoder_inputs(self, E, ids: np.ndarray, labels: np.ndarray,
                       train: bool = False, rng=None, start: int = 0,
                       sym_lens=None, bound: Bound | None = None):
        """Input rows for the symbols at positions start, start+1, ... of a prefix.

        With ``sym_lens`` the rows are packed prefixes, each starting at 0.
        """
        sym_lens = [len(ids)] if sym_lens is None else sym_lens
        if start + max(sym_lens) > self.config.max_positions:
            raise PrefixTooLong(f"prefix length {start + max(sym_lens)} exceeds max_positions")
        bound = self.bind() if bound is None else bound
        ops = bound.ops
        x = ops.embedding_lookup(E, ids)
        if self.config.use_positions:
            x = ops.add(x, ops.embedding_lookup(bound.dec_pos, start + _positions(sym_lens)))
        if self.config.use_structure:
            x = ops.add(x, ops.embedding_lookup(bound.dec_struct, labels))
        return ops.dropout(x, self.config.dropout, rng, train)

    def cross_kv(self, H, bound: Bound | None = None) -> list[tuple]:
        """Each decoder layer's cross-attention keys and values over encoder states H."""
        bound = self.bind() if bound is None else bound
        return [self._kv(bound.ops, layer[3], H) for layer in bound.dec]

    def decode_hidden(self, x, H, train: bool = False, rng=None,
                      trace: AttnTrace | None = None,
                      cache: DecodeRuntime | None = None,
                      sym_lens=None, tok_lens=None, bound: Bound | None = None):
        """Decoder states for input rows ``x``, attending causally and to ``H``.

        With a cache of G prefixes, ``x`` holds the same number of rows for
        each, one prefix after the other, continuing the cached rows: each
        layer writes its keys/values there and attends over every filled row
        of its own prefix, cross-attention reads the cache instead of ``H``,
        and ``length`` advances.  A cached forward runs on the array op set,
        by default the cache's own ``bound``: it writes arrays into the cache
        and is never differentiated.  With packed examples, ``sym_lens`` /
        ``tok_lens`` give each one's rows of ``x`` / ``H``, and attention
        stays inside an example.
        """
        if bound is None:
            bound = self.bind() if cache is None else cache.bound
        ops = bound.ops
        if cache is None:
            start, cross = 0, self.cross_kv(H, bound)
            n_seq, block = _attention_groups(sym_lens, sym_lens)
            cross_groups = _attention_groups(sym_lens, tok_lens)
        else:
            start, block, cross = cache.length, None, cache.cross
            n_seq, *_, rows = cache.keys[0].shape
            cross_groups = (n_seq, None)
        end = start + x.shape[0] // n_seq
        # a write past the last row would land in an empty slice unnoticed
        if cache is not None and end > rows:
            raise ValueError(f"decoding to row {end} overflows a cache of {rows} rows")
        # each row attends to its key prefix; packed examples of mixed lengths
        # run as one group, each row masked to its prefix inside its example
        causal = (n_seq, None, start) if block is None else (
            n_seq, block & np.tri(len(block), dtype=bool), None)
        sinks = (None, None) if trace is None else (trace.self_attn, trace.cross_attn)
        heads = self.config.heads
        for i, (ln1, attn, ln2, cross_attn, ln3, ffn) in enumerate(bound.dec):
            h = ops.layer_norm(x, *ln1)
            kv = self._kv(ops, attn, h)
            if cache is not None:
                cache.keys[i][..., start:end] = T.split_heads(kv[0], n_seq, heads, True)
                cache.values[i][:, :, start:end] = T.split_heads(kv[1], n_seq, heads)
                kv = (cache.keys[i][..., :end], cache.values[i][:, :, :end])
            x = ops.add(x, self._mha(ops, attn, h, kv, train, rng, sinks[0], *causal))
            h = ops.layer_norm(x, *ln2)
            x = ops.add(x, self._mha(ops, cross_attn, h, cross[i], train, rng, sinks[1],
                                     *cross_groups))
            h = ops.layer_norm(x, *ln3)
            x = ops.add(x, self._ffn(ops, ffn, h, train, rng))
        if cache is not None:
            cache.length = end
        return x

    def next_token_logits(self, Z: Tensor, E: Tensor) -> Tensor:
        """Pointing scores (M, V): hidden states against the vocabulary rows."""
        return T.matmul(Z, T.transpose(E))

    def sequence_logits(self, token_ids: np.ndarray, input_ids: np.ndarray,
                        input_labels: np.ndarray, train: bool = False, rng=None,
                        trace: AttnTrace | None = None,
                        tok_lens=None, sym_lens=None) -> Tensor:
        """Teacher-forced logits for every next-symbol position, on the tape ops.

        With ``tok_lens`` / ``sym_lens``, several examples packed back to back
        (see the module docstring); their span rows share one E.
        """
        bound = self.bind()
        H = self.encode(token_ids, train, rng, tok_lens, bound)
        E = self.build_E(self.span_embeddings(H, tok_lens, bound), bound)
        x = self.decoder_inputs(E, input_ids, input_labels, train, rng, sym_lens=sym_lens,
                                bound=bound)
        z = self.decode_hidden(x, H, train, rng, trace, sym_lens=sym_lens, tok_lens=tok_lens,
                               bound=bound)
        return self.next_token_logits(z, E)

    # ------------------------------------------------------------------
    # persistence

    def save(self, path: str, extra_arrays: dict[str, np.ndarray] | None = None,
             extra_meta: dict | None = None) -> None:
        arrays = {name: t.data for name, t in self.params.items()}
        if extra_arrays:
            overlap = set(arrays) & set(extra_arrays)
            if overlap:
                raise ValueError(f"extra arrays collide with parameters: {sorted(overlap)}")
            arrays.update(extra_arrays)
        meta = {
            "format": "spangraph-checkpoint-v1",
            "config": asdict(self.config),
            "schema": self.schema.to_json(),
            "words": list(self.word_vocab.words),
            "param_names": sorted(self.params),
        }
        if extra_meta:
            meta["extra"] = extra_meta
        T.save_arrays(path, arrays, meta)

    @classmethod
    def load(cls, path: str) -> tuple["Model", dict[str, np.ndarray], dict]:
        """Rebuild a model from a checkpoint.

        Returns the model, any non-parameter arrays stored alongside it
        (optimizer state), and the ``extra`` metadata dict.
        """
        arrays, meta = T.load_arrays(path)
        if not isinstance(meta, dict) or meta.get("format") != "spangraph-checkpoint-v1":
            raise ValueError(f"{path} is not a model checkpoint")
        try:
            config = ModelConfig(**meta["config"])
            schema = Schema.from_json(meta["schema"])
            vocab = WordVocab(meta["words"])
            stored_names = set(meta["param_names"])
        except KeyError as e:
            raise ValueError(f"{path}: checkpoint metadata lacks {e}") from e
        except (TypeError, ValueError) as e:
            raise ValueError(f"{path}: malformed checkpoint metadata: {e}") from e
        expected = param_shapes(config, schema, len(vocab))
        missing = [n for n in expected if n not in arrays]
        unexpected = sorted(stored_names - set(expected))
        if missing or unexpected:
            raise ValueError(f"{path}: parameters do not match its config: "
                             f"missing {missing[:5]}, unexpected {unexpected[:5]}")
        wrong = [f"{n} {arrays[n].shape} != {s}" for n, s in expected.items()
                 if arrays[n].shape != s]
        if wrong:
            raise ValueError(f"{path}: parameter shapes do not match its config: {wrong[:5]}")
        cast = next((n for n in expected if arrays[n].dtype != config.np_dtype), None)
        if cast is not None:
            raise ValueError(f"{path}: parameter {cast} is {arrays[cast].dtype}, "
                             f"its config says {config.dtype}")
        # in ``param_shapes`` order, as a fresh model holds them: ``grad_norm``
        # sums in that order, so a resumed run stays bit-identical
        params = {n: Tensor(arrays.pop(n), requires_grad=True) for n in expected}
        model = cls(config, schema, vocab, params=params)
        return model, arrays, (meta.get("extra") or {})


class DecodeRuntime:
    """Generation state of B same-length sentences, run on ``Model``'s own layer code.

    The layers run on the array op set (``tensor.ArrayOps``), with the
    parameters bound once, at set-up: set-up and steps build no ``Tensor``
    and record no tape, and compute the tape ops' bits.  The runtime checks
    its inputs itself, once per call.

    ``token_ids`` is (B, L).  Set-up encodes the B*L token rows in one pass
    into ``E`` (B, V, D), each sentence's own vocabulary.  The runtime is
    also the key/value cache that ``decode_hidden`` reads and extends, every
    array in ``tensor.attention_np``'s head layout (``split_heads``): ``cross``
    holds each layer's cross-attention keys (B, heads, dk, L) and values
    (B, heads, L, dk), computed once; ``keys`` (B, heads, dk, rows) and
    ``values`` (B, heads, rows, dk) hold self-attention rows, the first
    ``length`` of each sentence filled.  ``step_logits`` feeds k symbols per
    sentence at positions ``length`` onward, and ``keep`` drops sentences
    from E and the cache together.  Everything runs under shape-stable
    kernels with attention grouped per sentence and each row attending to
    its own key prefix, so each sentence's logits do not depend on the
    others in its batch or on k, and equal ``Model.sequence_logits`` (the
    tape ops) bit for bit, as long as a step leaves a row free: a step that
    fills the last row reads the keys as one contiguous array, whose product
    may differ in float64.
    """

    @staticmethod
    def sentence_nbytes(model: Model, n_tokens: int, rows: int) -> int:
        """Bytes one sentence of ``n_tokens`` tokens with ``rows`` cache rows holds.

        That is its rows of ``E`` (V = L*K*C + 3 + R), each decoder layer's
        cross keys and values (2L rows) and self-attention cache (2 * rows),
        each row ``d_model`` wide: the sum of those arrays' ``nbytes`` / B.
        """
        cfg = model.config
        n_vocab = build_layout(n_tokens, model.schema, cfg.max_span_width).V
        width = cfg.d_model * np.dtype(cfg.np_dtype).itemsize
        return width * (n_vocab + 2 * cfg.dec_layers * (n_tokens + rows))

    def __init__(self, model: Model, token_ids: np.ndarray, rows: int):
        self.model = model
        self.bound = bound = model.bind(T.ArrayOps)
        n_seq, n_tok = token_ids.shape
        if token_ids.size and (token_ids.min() < 0 or token_ids.max() >= len(bound.word_emb)):
            raise T.ShapeMismatch("token id outside the word table")
        tok_lens = [n_tok] * n_seq
        heads = model.config.heads
        dk = model.config.d_model // heads
        with T.rowwise_kernels():
            H = model.encode(token_ids.reshape(-1), tok_lens=tok_lens, bound=bound)
            spans = model.span_embeddings(H, tok_lens, bound)
            self.E = np.stack([model.build_E(s, bound) for s in np.split(spans, n_seq)])
            self.cross = [(T.split_heads(k, n_seq, heads, True), T.split_heads(v, n_seq, heads))
                          for k, v in model.cross_kv(H, bound)]
        self.keys = [np.empty((n_seq, heads, dk, rows), self.E.dtype) for _ in self.cross]
        self.values = [np.empty((n_seq, heads, rows, dk), self.E.dtype) for _ in self.cross]
        self.length = 0

    def keep(self, rows) -> None:
        """Drop every sentence but ``rows`` (indices) from E and the cache."""
        self.E = self.E[rows]
        self.cross = [(k[rows], v[rows]) for k, v in self.cross]
        self.keys = [k[rows] for k in self.keys]
        self.values = [v[rows] for v in self.values]

    def step_logits(self, sym_ids, labels) -> np.ndarray:
        """Extend the cache by k input symbols per sentence; their next-symbol logits.

        ``sym_ids`` and ``labels`` are (B, k): row b holds sentence b's
        symbols for positions ``length`` .. ``length + k - 1``.  The (B, k, V)
        logits score each row against its sentence's own vocabulary, and row j
        attends to exactly its own prefix, so a k-row step is bit-equal to k
        one-row steps.  ``length`` advances by k; a caller that keeps fewer
        rows sets it back, and the next step overwrites the rest.  Ids outside
        [0, V), labels outside [0, N_STRUCT_LABELS) and a step past the cache
        or the position table raise before anything is written.
        """
        n_seq, n_vocab, d = self.E.shape
        if (sym_ids.ndim != 2 or len(sym_ids) != n_seq or not sym_ids.size
                or labels.shape != sym_ids.shape):
            raise T.ShapeMismatch(f"step of {sym_ids.shape} ids and {labels.shape} labels "
                                  f"for {n_seq} sentences")
        # one check for the call: a flat row b*V + id past its own sentence's
        # V would read another sentence's vocabulary
        if (sym_ids.min() < 0 or sym_ids.max() >= n_vocab
                or labels.min() < 0 or labels.max() >= N_STRUCT_LABELS):
            raise T.ShapeMismatch(f"symbol id outside [0, {n_vocab}) or structural label "
                                  f"outside [0, {N_STRUCT_LABELS})")
        k = sym_ids.shape[1]
        rows = (np.arange(n_seq)[:, None] * n_vocab + sym_ids).reshape(-1)
        with T.rowwise_kernels():
            x = self.model.decoder_inputs(self.E.reshape(-1, d), rows, labels.reshape(-1),
                                          start=self.length, sym_lens=[k] * n_seq,
                                          bound=self.bound)
            z = self.model.decode_hidden(x, None, cache=self, bound=self.bound)
            # (B, k, D) @ (B, D, V), each sentence's E^T a transposed view
            return T.matmul_np(z.reshape(n_seq, k, d), self.E.transpose(0, 2, 1))
