"""Encoder-decoder that generates linearized IE graphs by pointing.

The encoder contextualizes the sentence; every candidate span gets an
embedding built from its boundary token states under a per-entity-type
projection.  Those span rows, three special symbols, and the relation types
form the dynamic output vocabulary E, and the decoder scores the next symbol
as a dot product between its hidden state and every row of E (the output
embedding is the pointing table, there is no separate softmax weight).

The ``Tensor`` layer code (``encode`` / ``span_embeddings`` /
``decode_hidden``) is the only definition of the network.  Training runs it
over whole teacher-forced prefixes; generation runs the same methods under
``no_grad`` one row per sentence and step via ``DecodeRuntime``, which holds
the key/value rows.

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

import numbers
from dataclasses import dataclass, field, asdict

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

# tables that take no weight decay along with norms and biases
_EMBED_TABLES = frozenset(
    {"enc.word_emb", "enc.pos", "dec.pos", "dec.struct", "dec.special", "dec.rel"}
)
_BIAS_SUFFIXES = (".g", ".b", ".bq", ".bk", ".bv", ".bo", ".b1", ".b2")


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


def param_group(name: str) -> str:
    if name.startswith("enc."):
        return "encoder"
    if name.startswith("dec."):
        return "decoder"
    return "other"


def decay_excluded(name: str) -> bool:
    return name in _EMBED_TABLES or name.endswith(_BIAS_SUFFIXES)


def param_shapes(config: ModelConfig, schema: Schema, n_words: int) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in initialization order."""
    d = config.d_model
    shapes: dict[str, tuple[int, ...]] = {}

    def attn_block(prefix):
        for part in ("wq", "wk", "wv", "wo"):
            shapes[f"{prefix}.{part}"] = (d, d)
        for part in ("bq", "bk", "bv", "bo"):
            shapes[f"{prefix}.{part}"] = (d,)

    def ffn_block(prefix):
        shapes[f"{prefix}.w1"] = (d, 4 * d)
        shapes[f"{prefix}.b1"] = (4 * d,)
        shapes[f"{prefix}.w2"] = (4 * d, d)
        shapes[f"{prefix}.b2"] = (d,)

    def ln_block(prefix):
        shapes[f"{prefix}.g"] = (d,)
        shapes[f"{prefix}.b"] = (d,)

    shapes["enc.word_emb"] = (n_words, d)
    shapes["enc.pos"] = (config.max_positions, d)
    for i in range(config.enc_layers):
        ln_block(f"enc.{i}.ln1")
        attn_block(f"enc.{i}.attn")
        ln_block(f"enc.{i}.ln2")
        ffn_block(f"enc.{i}.ffn")

    shapes["dec.pos"] = (config.max_positions, d)
    shapes["dec.struct"] = (N_STRUCT_LABELS, d)
    # row order matches the id layout: START, END, SEP
    shapes["dec.special"] = (N_SPECIALS, d)
    shapes["dec.rel"] = (schema.n_relation_types, d)
    for i in range(config.dec_layers):
        ln_block(f"dec.{i}.ln1")
        attn_block(f"dec.{i}.self")
        ln_block(f"dec.{i}.ln2")
        attn_block(f"dec.{i}.cross")
        ln_block(f"dec.{i}.ln3")
        ffn_block(f"dec.{i}.ffn")

    for c in range(schema.n_entity_types):
        shapes[f"span.w{c}"] = (2 * d, d)
    return shapes


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
    # differentiable forward

    def _kv(self, prefix: str, x: Tensor) -> tuple[Tensor, Tensor]:
        p = self.params
        return (T.linear(x, p[f"{prefix}.wk"], p[f"{prefix}.bk"]),
                T.linear(x, p[f"{prefix}.wv"], p[f"{prefix}.bv"]))

    def _mha(self, prefix: str, x_q: Tensor, kv: tuple[Tensor, Tensor],
             groups: tuple[int, np.ndarray | None], train: bool, rng,
             sink: list | None) -> Tensor:
        p = self.params
        q = T.linear(x_q, p[f"{prefix}.wq"], p[f"{prefix}.bq"])
        ctx = T.attention(q, *kv, self.config.heads, groups[1], self.config.dropout, rng, train,
                          sink, groups[0])
        out = T.linear(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"])
        return T.dropout(out, self.config.dropout, rng, train)

    def _ffn(self, prefix: str, x: Tensor, train: bool, rng) -> Tensor:
        p = self.params
        h = T.gelu(T.linear(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
        out = T.linear(h, p[f"{prefix}.w2"], p[f"{prefix}.b2"])
        return T.dropout(out, self.config.dropout, rng, train)

    def encode(self, token_ids: np.ndarray, train: bool = False, rng=None,
               tok_lens=None) -> Tensor:
        """Contextual token states (L, D); with zero layers, embeddings + positions.

        ``tok_lens`` splits the rows into packed examples (default: one).
        """
        n = len(token_ids)
        tok_lens = [n] if tok_lens is None else tok_lens
        if max(tok_lens) > self.config.max_positions:
            raise TooLong(f"sentence length {max(tok_lens)} exceeds max_positions "
                          f"{self.config.max_positions}")
        p = self.params
        x = T.add(
            T.embedding_lookup(p["enc.word_emb"], token_ids),
            T.embedding_lookup(p["enc.pos"], _positions(tok_lens)),
        )
        x = T.dropout(x, self.config.dropout, rng, train)
        groups = _attention_groups(tok_lens, tok_lens)
        for i in range(self.config.enc_layers):
            h = T.layer_norm(x, p[f"enc.{i}.ln1.g"], p[f"enc.{i}.ln1.b"])
            x = T.add(x, self._mha(f"enc.{i}.attn", h, self._kv(f"enc.{i}.attn", h), groups,
                                   train, rng, None))
            h = T.layer_norm(x, p[f"enc.{i}.ln2.g"], p[f"enc.{i}.ln2.b"])
            x = T.add(x, self._ffn(f"enc.{i}.ffn", h, train, rng))
        return x

    def span_embeddings(self, H: Tensor, tok_lens=None) -> Tensor:
        """One row per span id (L*K*C, D): boundary-state concat under per-type maps.

        Spans that would overhang their sentence keep their id slot but are
        computed against a zero end-vector; the grammar mask keeps them from
        ever being selected.  With packed examples (``tok_lens``) each
        example's L_b*K*C rows follow the previous example's.
        """
        L = H.shape[0]
        K = self.config.max_span_width
        tok_lens = [L] if tok_lens is None else tok_lens
        starts = np.repeat(np.arange(L), K)
        ends = starts + np.tile(np.arange(K), L)
        last = np.repeat(np.repeat(np.cumsum(tok_lens), tok_lens), K) - 1
        valid = ends <= last
        h_start = T.embedding_lookup(H, starts)
        h_end = T.embedding_lookup(H, np.minimum(ends, last))
        h_end = T.mul(h_end, Tensor(valid[:, None].astype(self.config.np_dtype)))
        cat = T.concat_last_dim(h_start, h_end)
        # column block c of row i is span i under type c, so the (N, C*D)
        # product reshapes to rows i*C + c
        W = T.concat_last_dim(*(self.params[f"span.w{c}"]
                                for c in range(self.schema.n_entity_types)))
        return T.reshape(T.matmul(cat, W), (-1, self.config.d_model))

    def build_E(self, S: Tensor) -> Tensor:
        """Dynamic vocabulary matrix (V, D): spans, then specials, then relations."""
        return T.concat_rows([S, self.params["dec.special"], self.params["dec.rel"]])

    def decoder_inputs(self, E: Tensor, ids: np.ndarray, labels: np.ndarray,
                       train: bool = False, rng=None, start: int = 0,
                       sym_lens=None) -> Tensor:
        """Input rows for the symbols at positions start, start+1, ... of a prefix.

        With ``sym_lens`` the rows are packed prefixes, each starting at 0.
        """
        sym_lens = [len(ids)] if sym_lens is None else sym_lens
        if start + max(sym_lens) > self.config.max_positions:
            raise PrefixTooLong(f"prefix length {start + max(sym_lens)} exceeds max_positions")
        x = T.embedding_lookup(E, ids)
        if self.config.use_positions:
            x = T.add(x, T.embedding_lookup(self.params["dec.pos"], start + _positions(sym_lens)))
        if self.config.use_structure:
            x = T.add(x, T.embedding_lookup(self.params["dec.struct"], labels))
        return T.dropout(x, self.config.dropout, rng, train)

    def cross_kv(self, H: Tensor) -> list[tuple[Tensor, Tensor]]:
        """Each decoder layer's cross-attention keys and values over encoder states H."""
        return [self._kv(f"dec.{i}.cross", H) for i in range(self.config.dec_layers)]

    def decode_hidden(self, x: Tensor, H: Tensor | None, train: bool = False, rng=None,
                      trace: AttnTrace | None = None,
                      cache: DecodeRuntime | None = None,
                      sym_lens=None, tok_lens=None) -> Tensor:
        """Decoder states for input rows ``x``, attending causally and to ``H``.

        With a cache of G prefixes, ``x`` holds the same number of rows for
        each, one prefix after the other, continuing the cached rows: each
        layer writes its keys/values there and attends over every filled row
        of its own prefix, cross-attention reads the cache instead of ``H``,
        and ``length`` advances.  With packed examples, ``sym_lens`` /
        ``tok_lens`` give each one's rows of ``x`` / ``H``, and attention
        stays inside an example.
        """
        if cache is None:
            start, cross = 0, self.cross_kv(H)
            n_seq, block = _attention_groups(sym_lens, sym_lens)
            cross_groups = _attention_groups(sym_lens, tok_lens)
        else:
            start, block = cache.length, None
            cross = [(Tensor(k), Tensor(v)) for k, v in cache.cross]
            n_seq, *_, rows = cache.keys[0].shape
            cross_groups = (n_seq, None)
        end = start + x.shape[0] // n_seq
        # a write past the last row would land in an empty slice unnoticed
        if cache is not None and end > rows:
            raise ValueError(f"decoding to row {end} overflows a cache of {rows} rows")
        causal = None  # one query row per prefix attends to every key
        if end - start > 1:
            causal = np.arange(end)[None, :] <= np.arange(start, end)[:, None]
            if block is not None:
                causal &= block
        sinks = (None, None) if trace is None else (trace.self_attn, trace.cross_attn)
        p = self.params
        for i in range(self.config.dec_layers):
            h = T.layer_norm(x, p[f"dec.{i}.ln1.g"], p[f"dec.{i}.ln1.b"])
            kv = self._kv(f"dec.{i}.self", h)
            if cache is not None:
                heads = self.config.heads
                cache.keys[i][..., start:end] = T.split_heads(kv[0].data, n_seq, heads, True)
                cache.values[i][:, :, start:end] = T.split_heads(kv[1].data, n_seq, heads)
                kv = (Tensor(cache.keys[i][..., :end]), Tensor(cache.values[i][:, :, :end]))
            x = T.add(x, self._mha(f"dec.{i}.self", h, kv, (n_seq, causal), train, rng,
                                   sinks[0]))
            h = T.layer_norm(x, p[f"dec.{i}.ln2.g"], p[f"dec.{i}.ln2.b"])
            x = T.add(x, self._mha(f"dec.{i}.cross", h, cross[i], cross_groups, train, rng,
                                   sinks[1]))
            h = T.layer_norm(x, p[f"dec.{i}.ln3.g"], p[f"dec.{i}.ln3.b"])
            x = T.add(x, self._ffn(f"dec.{i}.ffn", h, train, rng))
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
        """Teacher-forced logits for every next-symbol position.

        With ``tok_lens`` / ``sym_lens``, several examples packed back to back
        (see the module docstring); their span rows share one E.
        """
        H = self.encode(token_ids, train, rng, tok_lens)
        E = self.build_E(self.span_embeddings(H, tok_lens))
        x = self.decoder_inputs(E, input_ids, input_labels, train, rng, sym_lens=sym_lens)
        z = self.decode_hidden(x, H, train, rng, trace, sym_lens=sym_lens, tok_lens=tok_lens)
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
        params = {n: Tensor(arrays.pop(n), requires_grad=True) for n in sorted(expected)}
        model = cls(config, schema, vocab, params=params)
        return model, arrays, (meta.get("extra") or {})


class DecodeRuntime:
    """Generation state of B same-length sentences over ``Model``'s own layer code.

    ``token_ids`` is (B, L).  Set-up encodes the B*L token rows in one pass
    into ``E`` (B, V, D), each sentence's own vocabulary.  The runtime is
    also the key/value cache that ``decode_hidden`` reads and extends, every
    array in ``tensor.attention``'s head layout (``split_heads``): ``cross``
    holds each layer's cross-attention keys (B, heads, dk, L) and values
    (B, heads, L, dk), computed once; ``keys`` (B, heads, dk, rows) and
    ``values`` (B, heads, rows, dk) hold self-attention rows, the first
    ``length`` of each sentence filled.  ``step_logits`` feeds k symbols per
    sentence at positions ``length`` onward, and ``keep`` drops sentences
    from E and the cache together.  Everything runs under shape-stable
    kernels with attention grouped per sentence and each row attending to
    its own key prefix, so each sentence's logits do not depend on the
    others in its batch or on k, and equal ``Model.sequence_logits`` bit for
    bit, as long as a step leaves a row free: a step that fills the last row
    reads the keys as one contiguous array, whose product may differ in
    float64.
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
        n_seq, n_tok = token_ids.shape
        tok_lens = [n_tok] * n_seq
        heads = model.config.heads
        dk = model.config.d_model // heads
        with T.no_grad(), T.rowwise_kernels():
            H = model.encode(token_ids.reshape(-1), tok_lens=tok_lens)
            spans = model.span_embeddings(H, tok_lens).data
            self.E = np.stack([model.build_E(Tensor(s)).data
                               for s in np.split(spans, n_seq)])
            self.cross = [(T.split_heads(k.data, n_seq, heads, True),
                           T.split_heads(v.data, n_seq, heads)) for k, v in model.cross_kv(H)]
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
        rows sets it back, and the next step overwrites the rest.
        """
        n_seq, n_vocab, d = self.E.shape
        k = sym_ids.shape[1]
        rows = (np.arange(n_seq)[:, None] * n_vocab + sym_ids).reshape(-1)
        with T.no_grad(), T.rowwise_kernels():
            x = self.model.decoder_inputs(Tensor(self.E.reshape(-1, d)), rows, labels.reshape(-1),
                                          start=self.length, sym_lens=[k] * n_seq)
            z = self.model.decode_hidden(x, None, cache=self)
            # (B, k, D) @ (B, D, V), each sentence's E^T a transposed view
            return T.matmul_np(z.data.reshape(n_seq, k, d), self.E.transpose(0, 2, 1))
