"""Teacher-forced training with grammar-masked cross-entropy.

Every batch is rebuilt from scratch out of per-step seeded generators
(``default_rng([seed, step, k])``), so a run is a pure function of the seed
and the data: rerunning or resuming from a checkpoint reproduces the exact
loss sequence bit for bit (with single-threaded BLAS).

A step runs its whole batch as one packed forward and backward
(``batch_loss``): the examples are concatenated rather than padded, and
block-diagonal attention masks keep each one from seeing the others.  The
loss is the mean over examples of each one's mean next-symbol NLL.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .fileio import atomic_write
from .graph import Document, EntitySpan, IEGraph, Relation
from .grammar import legal_mask, replay
from .linearize import Ordering, linearize
from .model import Model, check_integer_fields, decay_excluded, param_group
from .vocab import N_SPECIALS, build_layout, symbol_to_id


class GoldIllegalUnderMask(ValueError):
    """A gold target symbol is forbidden by the grammar mask at its position.

    Signals a schema/data mismatch (e.g. a gold relation whose argument pair
    the schema does not allow); training on such an example would put
    probability mass on a symbol the decoder can never produce.
    """


class NonFiniteLoss(FloatingPointError):
    """A step's batch loss is NaN or infinite; nothing of that step was applied or saved."""

    def __init__(self, step: int, loss: float):
        super().__init__(f"non-finite training loss {loss} at step {step}")
        self.step = step
        self.loss = loss


class NonFiniteGradNorm(FloatingPointError):
    """A step's gradient norm is NaN or infinite; no update, record or checkpoint was made."""

    def __init__(self, step: int, norm: float):
        super().__init__(f"non-finite gradient norm {norm} at step {step}")
        self.step = step
        self.norm = norm


@dataclass(frozen=True)
class TrainConfig:
    max_steps: int = 1000
    batch_size: int = 8
    max_sentences: int = 5
    ordering: Ordering = Ordering.SORTED
    seed: int = 0
    lr_encoder: float = 3e-5
    lr_decoder: float = 7e-5
    lr_other: float = 1e-4
    warmup_frac: float = 0.1
    weight_decay: float = 0.01
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    clip_norm: float | None = None
    eval_every: int = 0

    def __post_init__(self):
        check_integer_fields(self, "max_steps", "batch_size", "max_sentences", "eval_every",
                             "seed")
        if self.max_steps < 1 or self.batch_size < 1 or self.max_sentences < 1:
            raise ValueError("max_steps, batch_size and max_sentences must be positive")
        # eval_every 0 turns dev evaluation off; numpy seeds its generators
        # from non-negative integers only
        for name in ("eval_every", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not 0.0 < self.warmup_frac < 1.0:
            raise ValueError("warmup_frac must lie strictly between 0 and 1")
        if self.clip_norm is not None and not self.clip_norm > 0.0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")
        # a negative rate steps uphill; eps = 0 divides 0 by 0 on parameters
        # no gradient has reached yet
        for name in ("lr_encoder", "lr_decoder", "lr_other", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"eps must be finite and positive, got {self.eps}")
        if len(self.betas) != 2 or not all(0.0 <= b < 1.0 for b in self.betas):
            raise ValueError(f"betas must be two values in [0, 1), got {self.betas}")

    def to_meta(self) -> dict:
        """Every field, JSON-ready: ``ordering`` by name, ``betas`` as a list."""
        meta = asdict(self)
        meta["ordering"] = self.ordering.name
        meta["betas"] = list(self.betas)
        return meta

    @classmethod
    def from_meta(cls, meta: dict) -> "TrainConfig":
        kw = dict(meta)
        kw["ordering"] = Ordering[kw["ordering"]]
        kw["betas"] = tuple(kw["betas"])
        return cls(**kw)


def lr_at(step: int, cfg: TrainConfig) -> dict[str, float]:
    """Per-group learning rates at ``step`` (updates run 1..max_steps).

    Linear warmup from zero to the group base rate over the first
    warmup_frac of training, then linear decay that reaches exactly zero at
    the final step.
    """
    if not 0 <= step <= cfg.max_steps:
        raise ValueError(f"step {step} outside 0..{cfg.max_steps}")
    warmup = max(1, round(cfg.warmup_frac * cfg.max_steps))

    def shape(base: float) -> float:
        if step <= warmup:
            return base * step / warmup
        return base * (cfg.max_steps - step) / (cfg.max_steps - warmup)

    return {
        "encoder": shape(cfg.lr_encoder),
        "decoder": shape(cfg.lr_decoder),
        "other": shape(cfg.lr_other),
    }


def augment(examples, rng: np.random.Generator, max_sentences: int):
    """Concatenate 1..max_sentences uniformly sampled examples (with replacement).

    Entity spans shift by the token offset of their source sentence and
    relation argument indices by the entity offset, so the merged graph is
    the disjoint union of the originals.
    """
    n = int(rng.integers(1, max_sentences + 1))
    picks = rng.integers(0, len(examples), size=n)
    tokens: list[str] = []
    ids: list[str] = []
    ents: list[EntitySpan] = []
    rels: list[Relation] = []
    for i in picks:
        doc, graph = examples[int(i)]
        tok_off, ent_off = len(tokens), len(ents)
        tokens.extend(doc.tokens)
        ids.append(doc.id)
        ents.extend(
            EntitySpan(e.start + tok_off, e.end + tok_off, e.type_id) for e in graph.entities
        )
        rels.extend(
            Relation(r.head + ent_off, r.tail + ent_off, r.rel_type_id) for r in graph.relations
        )
    return Document(tuple(tokens), id="+".join(ids)), IEGraph(tuple(ents), tuple(rels))


def encode_example(model: Model, doc: Document, graph: IEGraph,
                   ordering: Ordering = Ordering.SORTED, rng=None):
    """Linearize one example into (token_ids, symbol_ids, labels, target_masks)."""
    layout = build_layout(len(doc), model.schema, model.config.max_span_width)
    seq = linearize(graph, ordering, rng)
    ids = np.array([symbol_to_id(layout, s) for s in seq.symbols], dtype=np.int64)
    states, _ = replay(seq.symbols)
    labels = np.array([int(s.phase) for s in states], dtype=np.int64)
    masks = np.stack([legal_mask(states[i], layout, model.schema) for i in range(1, len(ids))])
    for pos, (row, target) in enumerate(zip(masks, ids[1:]), start=1):
        if not row[target]:
            raise GoldIllegalUnderMask(
                f"gold symbol {seq.symbols[pos]} at position {pos} is masked out"
            )
    token_ids = model.word_vocab.encode(doc.tokens)
    return token_ids, ids, labels, masks


def batch_loss(model: Model, examples, train: bool = False, rng=None) -> T.Tensor:
    """Mean over ``examples`` of each one's mean next-symbol NLL, from one packed forward.

    ``examples`` are ``encode_example`` tuples.  Their span rows fill the
    shared vocabulary E example by example, followed once by the specials and
    relation types, so each example's symbol ids and gold masks are remapped
    into E's columns; the columns of other examples stay masked out.
    """
    per_token = model.config.max_span_width * model.schema.n_entity_types
    tok_lens = [len(ex[0]) for ex in examples]
    sym_lens = [len(ex[1]) - 1 for ex in examples]
    n_spans = per_token * sum(tok_lens)
    shared = np.arange(n_spans, n_spans + N_SPECIALS + model.schema.n_relation_types)
    masks = np.zeros((sum(sym_lens), n_spans + len(shared)), dtype=bool)
    ids = []
    span_at = row = 0
    for (_, sym_ids, _, gold), n_tok, n_sym in zip(examples, tok_lens, sym_lens):
        cols = np.concatenate([np.arange(span_at, span_at + per_token * n_tok), shared])
        ids.append(cols[sym_ids])
        masks[row:row + n_sym, cols] = gold
        span_at += per_token * n_tok
        row += n_sym
    weights = np.repeat([1.0 / (len(examples) * n) for n in sym_lens], sym_lens)
    logits = model.sequence_logits(
        np.concatenate([ex[0] for ex in examples]),
        np.concatenate([i[:-1] for i in ids]),
        np.concatenate([ex[2][:-1] for ex in examples]),
        train, rng, tok_lens=tok_lens, sym_lens=sym_lens)
    return T.cross_entropy(logits, np.concatenate([i[1:] for i in ids]), masks, weights)


def example_loss(model: Model, token_ids, ids, labels, masks,
                 train: bool = False, rng=None) -> T.Tensor:
    """Mean next-symbol NLL of one encoded example (``batch_loss`` of one)."""
    return batch_loss(model, [(token_ids, ids, labels, masks)], train, rng)


class AdamW:
    """Adam with decoupled weight decay and per-group learning rates.

    Norm gains/biases, plain biases and embedding tables take no decay.
    """

    def __init__(self, params: dict[str, T.Tensor], betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.params = params
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}
        sizes: dict = {}
        for p in params.values():
            sizes[p.data.dtype] = max(sizes.get(p.data.dtype, 0), p.data.size)
        flat = {dt: (np.empty(n, dt), np.empty(n, dt)) for dt, n in sizes.items()}
        # per parameter: name, lr group, whether it takes decay, and two views
        # in its shape of the scratch arrays all parameters of its dtype share
        self._plan = [(n, param_group(n), not decay_excluded(n),
                       *(b[:p.data.size].reshape(p.data.shape) for b in flat[p.data.dtype]))
                      for n, p in params.items()]

    def step(self, lrs: dict[str, float]) -> None:
        """One update, computed in place through the shared scratch arrays.

        ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
        ``p -= lr * ((m/c1) / (sqrt(v/c2) + eps) + wd*p)``, the decay term only
        where the parameter takes it.
        """
        self.t += 1
        b1, b2 = self.betas
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, group, decays, update, tmp in self._plan:
            p = self.params[name]
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            m *= b1
            np.multiply(1.0 - b1, g, out=tmp)
            m += tmp
            v *= b2
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - b2
            v += tmp
            np.divide(v, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            np.divide(m, c1, out=update)
            update /= tmp
            if decays:
                np.multiply(self.weight_decay, p.data, out=tmp)
                update += tmp
            update *= lrs[group]
            p.data -= update

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {f"opt.m.{n}": a for n, a in self.m.items()}
        out.update({f"opt.v.{n}": a for n, a in self.v.items()})
        return out

    def load_state(self, arrays: dict[str, np.ndarray], t: int) -> None:
        for n in self.params:
            self.m[n] = arrays[f"opt.m.{n}"].copy()
            self.v[n] = arrays[f"opt.v.{n}"].copy()
        self.t = t


def grad_norm(params: dict[str, T.Tensor]) -> float:
    """L2 norm of all gradients taken together; a missing gradient counts as zero.

    Each parameter's squares are summed in its own dtype, so the norm is
    non-finite exactly when some ``g * g`` overflows there, as it would in
    the optimizer's second moment.
    """
    return math.sqrt(sum(float(np.vdot(p.grad, p.grad))
                         for p in params.values() if p.grad is not None))


def clip_gradients(params: dict[str, T.Tensor], max_norm: float) -> float:
    """Scale all gradients together to a norm of at most ``max_norm``; returns the norm before.

    A non-finite norm leaves the gradients as they are.
    """
    norm = grad_norm(params)
    if math.isfinite(norm) and norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


@dataclass
class TrainResult:
    losses: list[float] = field(default_factory=list)
    best_dev_f1: float | None = None
    best_path: str | None = None
    last_path: str | None = None
    metrics_path: str | None = None


def train_loop(model: Model, cfg: TrainConfig, train_examples,
               dev_examples=None, out_dir: str | None = None,
               optimizer: AdamW | None = None, start_step: int = 1,
               quiet: bool = True) -> TrainResult:
    """Run updates start_step..max_steps; returns per-step losses.

    With an out_dir, appends one JSON line per step to metrics.jsonl and
    keeps best.npz (highest strict relation F1 on dev, ties to the latest)
    plus last.npz.  Passing the optimizer back in together with start_step
    resumes a run exactly where a checkpoint left off.
    """
    if not train_examples:
        raise ValueError("no training examples")
    from .decode import DecodeConfig, predict
    from .metrics import evaluate_pairs

    opt = optimizer or AdamW(model.params, cfg.betas, cfg.eps, cfg.weight_decay)
    result = TrainResult()
    best_f1 = -1.0
    log_fh = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        result.metrics_path = os.path.join(out_dir, "metrics.jsonl")
        result.best_path = os.path.join(out_dir, "best.npz")
        result.last_path = os.path.join(out_dir, "last.npz")
        log_fh = open(result.metrics_path, "a", encoding="utf-8")

    def log(record: dict) -> None:
        if log_fh is not None:
            log_fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
            log_fh.flush()
        if not quiet:
            print(json.dumps(record, sort_keys=True))

    def save(path: str, step: int) -> None:
        model.save(
            path,
            extra_arrays=opt.state_arrays(),
            extra_meta={"step": step, "opt_t": opt.t, "train_config": cfg.to_meta()},
        )

    try:
        for step in range(start_step, cfg.max_steps + 1):
            data_rng = np.random.default_rng([cfg.seed, step, 0])
            drop_rng = np.random.default_rng([cfg.seed, step, 1])
            opt.zero_grad()
            batch = [encode_example(model, *augment(train_examples, data_rng, cfg.max_sentences),
                                    cfg.ordering, data_rng)
                     for _ in range(cfg.batch_size)]
            loss = batch_loss(model, batch, True, drop_rng)
            loss_val = float(loss.data)
            if not math.isfinite(loss_val):
                raise NonFiniteLoss(step, loss_val)
            T.backward(loss)
            if cfg.clip_norm is not None:
                norm = clip_gradients(model.params, cfg.clip_norm)
            else:
                norm = grad_norm(model.params)
            if not math.isfinite(norm):
                raise NonFiniteGradNorm(step, norm)
            lrs = lr_at(step, cfg)
            opt.step(lrs)

            result.losses.append(loss_val)
            record = {
                "step": step,
                "loss": loss_val,
                "grad_norm": norm,
                "lr_encoder": lrs["encoder"],
                "lr_decoder": lrs["decoder"],
                "lr_other": lrs["other"],
                "tokens": sum(len(ex[0]) for ex in batch),
                "target_symbols": sum(len(ex[1]) - 1 for ex in batch),
            }
            is_eval = bool(dev_examples) and cfg.eval_every > 0 and (
                step % cfg.eval_every == 0 or step == cfg.max_steps
            )
            if is_eval:
                preds = predict(model, [doc for doc, _ in dev_examples],
                                DecodeConfig(seed=cfg.seed))
                report = evaluate_pairs(list(zip(preds, (gold for _, gold in dev_examples))))
                record["dev_ent_f1"] = report.ent_prf[2]
                record["dev_rel_f1"] = report.rel_prf[2]
                record["dev_rel_strict_f1"] = report.rel_strict_prf[2]
                if report.rel_strict_prf[2] >= best_f1:
                    best_f1 = report.rel_strict_prf[2]
                    result.best_dev_f1 = best_f1
                    if result.best_path is not None:
                        save(result.best_path, step)
            log(record)
        if result.last_path is not None:
            save(result.last_path, cfg.max_steps)
        if result.best_path is not None and best_f1 < 0.0:
            # no dev evaluation chose a best state: the final one is the best
            with open(result.last_path, "rb") as last, \
                    atomic_write(result.best_path, binary=True) as best:
                shutil.copyfileobj(last, best)
    finally:
        if log_fh is not None:
            log_fh.close()
    return result
