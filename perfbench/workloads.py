"""The benchmark's workloads: set-up, timed passes and output checks.

Every workload is a closed loop with one caller: the next operation starts
only when the previous one has returned.  An operation is one training step
(``train``) or one decoded sentence (``decode-short``, ``decode-long``).
Inputs come from the workload seed alone; the program only ever sees the
generated inputs.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

# public functions are called through their modules, so the tracer's
# rebinding of a module attribute also reaches the calls made from here
from spangraph import data as sg_data
from spangraph import decode as sg_decode
from spangraph import train as sg_train
from spangraph.grammar import replay
from spangraph.graph import Document
from spangraph.linearize import GraphSequence, delinearize
from spangraph.model import Model, ModelConfig, WordVocab
from spangraph.train import AdamW, TrainConfig
from spangraph.vocab import build_layout, id_to_symbol

import bootstrap
import hooks

CHECKPOINT = os.path.join(bootstrap.BENCH_DIR, "decode_ckpt.npz")


@dataclass(frozen=True)
class Sizes:
    """Input and call sizes of the workloads; ``TINY`` is for the smoke test."""

    train_sentences: int = 400
    train_steps_per_call: int = 10
    short_sentences: int = 500
    long_inputs: int = 8
    long_tokens: int = 100
    fast_check_sample: int = 4
    setup_repeats: int = 3


FULL = Sizes()
TINY = Sizes(train_sentences=50, train_steps_per_call=2, short_sentences=6, long_inputs=1,
             long_tokens=16, fast_check_sample=2, setup_repeats=2)


def model_config(max_span_width: int) -> ModelConfig:
    return ModelConfig(d_model=64, enc_layers=2, dec_layers=2, heads=4,
                       max_span_width=max_span_width, dtype="float32")


def train_config(steps: int, seed: int) -> TrainConfig:
    """The README / acceptance training config with dev evaluation off."""
    return TrainConfig(max_steps=steps, batch_size=8, max_sentences=2, seed=seed,
                       lr_encoder=3e-4, lr_decoder=7e-4, lr_other=1e-3, eval_every=0)


def synthetic_train(out_dir: str, seed: int, n_train: int):
    """Write an iid synthetic corpus and load its train split."""
    paths = sg_data.make_synthetic(out_dir, seed=seed, n_train=n_train, n_dev=25, n_test=25,
                                   split_mode="iid")
    return sg_data.load_dataset(paths["train"])


def build_model(train, seed: int) -> Model:
    return Model(model_config(train.max_span_width), train.schema,
                 WordVocab.build(train.documents()), rng=np.random.default_rng(seed))


def join_documents(docs, n_inputs: int, n_tokens: int) -> list[Document]:
    """Concatenate consecutive sentences into inputs of exactly ``n_tokens`` tokens."""
    out, tokens, at = [], [], 0
    while len(out) < n_inputs:
        tokens.extend(docs[at % len(docs)].tokens)
        at += 1
        if len(tokens) >= n_tokens:
            out.append(Document(tuple(tokens[:n_tokens]), id=f"joined-{len(out)}"))
            tokens = []
    return out


def median(values) -> float:
    return float(statistics.median(values))


def percentile_with_count(values, q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples lying beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1]), len(ordered) - rank


class Workload:
    """Common bookkeeping: repeated set-up, operation counts and failures."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, n_ops: int, message: str) -> None:
        self.failed += n_ops
        self.problems.append(message)

    def setup_times(self) -> list[float]:
        """Run the whole set-up ``setup_repeats`` times; keep the last one's state."""
        times = []
        for k in range(self.sizes.setup_repeats):
            t0 = time.perf_counter()
            self.setup(tempfile.mkdtemp(prefix=f"setup{k}-", dir=self.workdir))
            times.append(time.perf_counter() - t0)
        return times

    def setup(self, scratch: str) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> None:
        raise NotImplementedError

    def reset_records(self) -> None:
        raise NotImplementedError

    def metrics(self) -> dict:
        raise NotImplementedError

    def samples(self) -> dict:
        """Raw timings behind ``metrics``, for the result file."""
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError


@dataclass
class TrainCall:
    seed: int
    steps: int
    wall: float
    tokens: int
    losses: list[float] = field(default_factory=list)


class TrainWorkload(Workload):
    """``train_loop`` at the README config, in calls of a fixed number of steps.

    Calls continue one model and one optimizer, so the loss keeps falling
    across calls; each call writes ``metrics.jsonl`` and its checkpoints into
    the run directory inside the timed region.
    """

    name = "train"

    def setup(self, scratch: str) -> None:
        # more sentences than the 50 of the acceptance corpus: the mean sentence
        # length, and so the work per step, then varies less from seed to seed
        train = synthetic_train(scratch, self.seed, self.sizes.train_sentences)
        self.examples = list(train)
        self.model = build_model(train, self.seed)
        cfg = train_config(1, self.seed)
        self.opt = AdamW(self.model.params, cfg.betas, cfg.eps, cfg.weight_decay)
        self.out_dir = os.path.join(scratch, "run")
        self.calls: list[TrainCall] = []
        self.tokens = 0
        # warm-up: one short call through the same code, checkpoint writes included
        sg_train.train_loop(self.model, train_config(2, self.seed * 1_000_003 + 1),
                            self.examples, out_dir=self.out_dir, optimizer=self.opt)

    def reset_records(self) -> None:
        self.calls = []

    def _count_tokens(self, augment):
        def counted(*args, **kwargs):
            doc, graph = augment(*args, **kwargs)
            self.tokens += len(doc)
            return doc, graph
        return counted

    def run(self, seconds: float) -> None:
        steps = self.sizes.train_steps_per_call
        patches = hooks.Patches()
        patches.wrap_function("spangraph.train", "augment", self._count_tokens)
        try:
            t_end = time.perf_counter() + seconds
            while True:
                call_seed = self.seed * 1_000_003 + 2 + len(self.calls)
                cfg = train_config(steps, call_seed)
                tokens_before = self.tokens
                self.attempted += steps
                t0 = time.perf_counter()
                try:
                    result = sg_train.train_loop(self.model, cfg, self.examples,
                                                 out_dir=self.out_dir, optimizer=self.opt)
                except Exception:
                    self.fail(steps, f"train_loop raised:\n{traceback.format_exc()}")
                    result = None
                t1 = time.perf_counter()
                losses = result.losses if result is not None else []
                self.calls.append(TrainCall(call_seed, steps, t1 - t0,
                                            self.tokens - tokens_before, losses))
                bad = [x for x in losses if not math.isfinite(x)]
                if bad:
                    self.fail(len(bad), f"non-finite losses in call seed {call_seed}: {bad}")
                if t1 >= t_end:
                    break
        finally:
            patches.restore()

    def metrics(self) -> dict:
        ok = [c for c in self.calls if c.losses]
        step_ms = [1000.0 * c.wall / c.steps for c in ok]
        return {
            "op_ms": median(step_ms),
            "tokens_per_s": median(c.tokens / c.wall for c in ok),
            "train_step_ms": median(step_ms),
            "train_tokens_per_s": median(c.tokens / c.wall for c in ok),
            "train_calls": len(ok),
            "train_steps": sum(c.steps for c in ok),
        }

    def samples(self) -> dict:
        return {"call_wall_s": [c.wall for c in self.calls],
                "call_steps": [c.steps for c in self.calls],
                "call_tokens": [c.tokens for c in self.calls]}

    def check(self) -> None:
        losses = [x for c in self.calls for x in c.losses]
        window = max(1, min(10, len(losses) // 2))
        if len(losses) >= 2:
            first = float(np.mean(losses[:window]))
            last = float(np.mean(losses[-window:]))
            if not last < first:
                self.fail(window, f"loss did not fall: first {window} steps {first:.4f}, "
                                  f"last {window} steps {last:.4f}")
        last_path = os.path.join(self.out_dir, "last.npz")
        loaded, extra_arrays, _ = Model.load(last_path)
        state = self.opt.state_arrays()
        same = (set(loaded.params) == set(self.model.params) and set(extra_arrays) == set(state)
                and all(np.array_equal(loaded.params[n].data, p.data)
                        for n, p in self.model.params.items())
                and all(np.array_equal(extra_arrays[k], v) for k, v in state.items()))
        if not same:
            self.fail(self.calls[-1].steps, "last.npz does not load back equal to the "
                                            "in-memory parameters and optimizer state")


class DecodeWorkload(Workload):
    """Greedy decoding of a fixed input set with the committed checkpoint.

    Each round makes a throughput pass (``predict`` over the whole set) and a
    latency pass (``generate`` one sentence at a time).
    """

    def __init__(self, name: str, seed: int, sizes: Sizes, workdir: str):
        super().__init__(seed, sizes, workdir)
        self.name = name

    def setup(self, scratch: str) -> None:
        self.model, _, _ = Model.load(CHECKPOINT)
        if self.name == "decode-short":
            paths = sg_data.make_synthetic(scratch, seed=self.seed, n_train=50, n_dev=1,
                                           n_test=self.sizes.short_sentences)
            self.docs = sg_data.load_dataset(paths["test"]).documents()
        else:
            # about 17 synthetic sentences make one input of long_tokens tokens
            per_input = self.sizes.long_tokens // 5 + 1
            paths = sg_data.make_synthetic(scratch, seed=self.seed, n_train=50, n_dev=1,
                                           n_test=self.sizes.long_inputs * per_input)
            self.docs = join_documents(sg_data.load_dataset(paths["test"]).documents(),
                                       self.sizes.long_inputs, self.sizes.long_tokens)
        warm = Document(self.docs[0].tokens[:8])
        sg_decode.generate(self.model, warm)
        self.reset_records()

    def reset_records(self) -> None:
        self.predict_walls: list[float] = []
        self.predict_graphs: list[list] = []
        self.latencies: list[float] = []
        self.results: list[list] = []

    def run(self, seconds: float) -> None:
        n = len(self.docs)
        t_end = time.perf_counter() + seconds
        while True:
            self.attempted += n
            t0 = time.perf_counter()
            try:
                graphs = sg_decode.predict(self.model, self.docs)
            except Exception:
                self.fail(n, f"predict raised:\n{traceback.format_exc()}")
                graphs = None
            self.predict_walls.append(time.perf_counter() - t0)
            self.predict_graphs.append(graphs)
            results = []
            for doc in self.docs:
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    res = sg_decode.generate(self.model, doc)
                except Exception:
                    self.fail(1, f"generate raised on {doc.id}:\n{traceback.format_exc()}")
                    res = None
                self.latencies.append(time.perf_counter() - t0)
                if res is not None:
                    # the checks never read the logits; keeping every round's
                    # would make peak memory grow with the number of rounds
                    res.step_logits = []
                results.append(res)
            self.results.append(results)
            if time.perf_counter() >= t_end:
                break

    def metrics(self) -> dict:
        n = len(self.docs)
        tokens = sum(len(d) for d in self.docs)
        walls = [w for w, g in zip(self.predict_walls, self.predict_graphs) if g is not None]
        lat_ms = [1000.0 * x for x in self.latencies]
        p90, beyond = percentile_with_count(lat_ms, 0.9)
        out = {
            "op_ms": median(lat_ms),
            "tokens_per_s": median(tokens / w for w in walls),
            "decode_sentences_per_s": median(n / w for w in walls),
            "generate_ms.p50": median(lat_ms),
            "generate_samples": len(lat_ms),
            "predict_rounds": len(walls),
            "mean_tokens_per_sentence": tokens / n,
        }
        # a p90 means something only with at least ten samples beyond it
        if beyond >= 10:
            out["generate_ms.p90"] = p90
        return out

    def samples(self) -> dict:
        return {"predict_wall_s": self.predict_walls, "generate_s": self.latencies}

    def check(self) -> None:
        for i, doc in enumerate(self.docs):
            reference = None
            for r, results in enumerate(self.results):
                res = results[i]
                if res is None:
                    continue
                problem = check_generation(self.model, doc, res)
                if reference is None:
                    reference = res.graph
                elif problem is None and res.graph != reference:
                    problem = "graph differs from the first round"
                if problem is not None:
                    self.fail(1, f"{doc.id} round {r}: {problem}")
            for r, graphs in enumerate(self.predict_graphs):
                if graphs is not None and reference is not None and graphs[i] != reference:
                    self.fail(1, f"{doc.id} round {r}: predict graph differs from generate")
        if self.name == "decode-short":
            for doc in self.docs[: self.sizes.fast_check_sample]:
                problem = check_fast_matches_recompute(self.model, doc)
                if problem is not None:
                    self.fail(1, f"{doc.id}: {problem}")


def check_generation(model: Model, doc: Document, res) -> str | None:
    """Why a ``generate`` result is wrong, or None when its ids, sequence and graph agree."""
    layout = build_layout(len(doc), model.schema, model.config.max_span_width)
    try:
        symbols = tuple(id_to_symbol(layout, i) for i in res.ids)
        _, final = replay(symbols)
    except ValueError as e:
        return f"ids do not replay under the grammar: {e}"
    if not final.finished:
        return "ids do not end in END"
    if symbols != tuple(res.sequence.symbols):
        return "ids do not map to the returned sequence"
    if delinearize(GraphSequence(symbols)) != res.graph:
        return "ids do not delinearize to the returned graph"
    return None


def check_fast_matches_recompute(model: Model, doc: Document) -> str | None:
    fast = sg_decode.generate(model, doc, fast=True)
    slow = sg_decode.generate(model, doc, fast=False)
    if fast.ids != slow.ids:
        return "cached and recompute decoding chose different ids"
    for a, b in zip(fast.step_logits, slow.step_logits):
        if a.dtype != b.dtype or not np.array_equal(a, b):
            return "cached and recompute logits differ"
    return None


def make(name: str, seed: int, sizes: Sizes, workdir: str) -> Workload:
    if name == "train":
        return TrainWorkload(seed, sizes, workdir)
    if name in ("decode-short", "decode-long"):
        return DecodeWorkload(name, seed, sizes, workdir)
    raise ValueError(f"unknown workload {name!r}")


def scratch_dir() -> str:
    out = os.path.join(bootstrap.BENCH_DIR, "out")
    os.makedirs(out, exist_ok=True)
    return tempfile.mkdtemp(prefix="work-", dir=out)


def remove(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
