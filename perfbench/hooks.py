"""Wrapping spangraph's public functions from outside, and the tracer built on it.

No file under ``src/`` knows about the benchmark.  ``Patches`` rebinds a
function in every spangraph module that imported it (``from .grammar import
legal_mask`` makes a binding of its own in each importer) or a method on its
class, and puts the originals back on ``restore``.
"""

from __future__ import annotations

import collections
import sys
import time


def _spangraph_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "spangraph" or n.startswith("spangraph."))]


class Patches:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def wrap_function(self, module: str, name: str, make) -> None:
        """Replace ``module.name`` and every other spangraph binding of the same object."""
        original = getattr(sys.modules[module], name)
        wrapper = make(original)
        for mod in _spangraph_modules():
            if mod.__dict__.get(name) is original:
                self._set(mod, name, wrapper)

    def wrap_method(self, cls, name: str, make) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            self._set(cls, name, classmethod(make(raw.__func__)))
        else:
            self._set(cls, name, make(raw))

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """Spans and counters at layer boundaries, kept in memory until the run ends.

    A span is ``[name, start_ns, end_ns, parent_index, op, tag]``; ``tag`` is
    None except on ``grammar.legal_mask``, where it names the FSM phase.  ``op`` is
    ``"setup"`` during set-up and otherwise the id of the operation (training
    step or sentence) the span belongs to.  Training steps end when
    ``AdamW.step`` returns, so a step's logging and checkpoint writes carry
    the next step's id; a sentence starts when ``generate`` is entered.
    """

    def __init__(self):
        self.t0 = time.perf_counter_ns()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: object = "setup"
        self.next_op = 0
        self.counters: collections.Counter = collections.Counter()
        # (decoder steps, truncated, sequence) per generate call of the timed pass
        self.generations: list[tuple] = []
        self.patches = Patches()

    def begin_op(self) -> None:
        if self.op != "setup":
            self.op = self.next_op
            self.next_op += 1

    def span(self, name: str, before=None, after=None, tag=None):
        """Wrapper factory: time calls under ``name`` with optional hooks.

        ``before(args)`` and ``tag(args)`` run before the clock starts and
        ``after(result)`` after it stops, so their own cost stays out of the
        span.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def make(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args)
                rec = [name, 0, 0, stack[-1] if stack else -1, self.op,
                       None if tag is None else tag(args)]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
                if after is not None:
                    after(out)
                return out
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def counter(self, name: str):
        counters = self.counters

        def make(fn):
            def wrapper(*args, **kwargs):
                counters[name] += 1
                return fn(*args, **kwargs)
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def install(self) -> None:
        from spangraph.model import DecodeRuntime, Model
        from spangraph.train import AdamW

        p, c = self.patches, self.counters

        def tape_ops(args):
            c["tensor.tape_ops"] += count_tape_ops(args[0])

        def mask_width(mask):
            c["grammar.legal_width.sum"] += int(mask.sum())

        def example_sizes(encoded):
            token_ids, ids = encoded[0], encoded[1]
            c["train.tokens"] += len(token_ids)
            c["train.target_symbols"] += len(ids) - 1

        p.wrap_function("spangraph.tensor", "matmul", self.counter("tensor.matmul.calls"))
        p.wrap_function("spangraph.tensor", "backward",
                        self.span("tensor.backward", before=tape_ops))
        p.wrap_function("spangraph.tensor", "cross_entropy", self.span("tensor.cross_entropy"))
        # sequence_logits has no metric; its span keeps the model glue around
        # the four layer calls (build_E, decoder_inputs) out of train_loop's self time
        for method in ("encode", "span_embeddings", "decode_hidden", "next_token_logits",
                       "sequence_logits"):
            p.wrap_method(Model, method, self.span(f"model.{method}"))
        p.wrap_method(Model, "load", self.span("model.Model.load"))
        p.wrap_method(DecodeRuntime, "__init__", self.span("model.DecodeRuntime.init"))
        p.wrap_method(DecodeRuntime, "step_logits", self.span("model.DecodeRuntime.step_logits"))
        p.wrap_function("spangraph.train", "augment", self.span("train.augment"))
        p.wrap_function("spangraph.train", "encode_example",
                        self.span("train.encode_example", after=example_sizes))
        p.wrap_method(AdamW, "step", self.span("train.AdamW.step",
                                               after=lambda _: self.begin_op()))
        p.wrap_function("spangraph.train", "train_loop", self.span("train.train_loop"))
        p.wrap_function("spangraph.grammar", "legal_mask",
                        self.span("grammar.legal_mask", after=mask_width,
                                  tag=lambda args: args[0].phase.name))
        p.wrap_function("spangraph.grammar", "advance", self.span("grammar.advance"))
        p.wrap_function("spangraph.grammar", "replay", self.span("grammar.replay"))
        p.wrap_function("spangraph.decode", "generate",
                        self.span("decode.generate", before=lambda _: self.begin_op(),
                                  after=self._summarize_generation))
        p.wrap_function("spangraph.decode", "predict", self.span("decode.predict"))
        p.wrap_function("spangraph.vocab", "build_layout", self.span("vocab.build_layout"))
        p.wrap_function("spangraph.linearize", "delinearize", self.span("linearize.delinearize"))
        p.wrap_function("spangraph.data", "load_dataset", self.span("data.load_dataset"))

    def _summarize_generation(self, result) -> None:
        self.generations.append((len(result.step_logits), result.truncated, result.sequence))

    def uninstall(self) -> None:
        self.patches.restore()

    def start_timed(self) -> None:
        """Counters and operation ids from here on describe the timed pass only."""
        self.counters.clear()
        self.generations.clear()
        self.op = self.next_op
        self.next_op += 1

    def self_times_ns(self, keep=lambda rec: True) -> dict[str, list[int]]:
        """Per span name: [calls, total ns, self ns]; self time excludes child spans."""
        child_ns = collections.Counter()
        for rec in self.spans:
            if rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]
        table: dict[str, list[int]] = {}
        for i, rec in enumerate(self.spans):
            if keep(rec):
                dur = rec[2] - rec[1]
                row = table.setdefault(rec[0], [0, 0, 0])
                row[0] += 1
                row[1] += dur
                row[2] += dur - child_ns[i]
        return table

    def dump(self) -> dict:
        return {
            "span_fields": ["name", "start_ns", "end_ns", "parent", "op", "tag"],
            "spans": [[r[0], r[1] - self.t0, r[2] - self.t0, *r[3:]] for r in self.spans],
            "self_time": {name: {"calls": row[0], "total_ms": row[1] / 1e6,
                                 "self_ms": row[2] / 1e6}
                          for name, row in sorted(self.self_times_ns().items())},
        }


def count_tape_ops(loss) -> int:
    """Recorded ops reachable from ``loss``: tensors that carry a backward rule."""
    seen = {id(loss)}
    stack = [loss]
    n = 0
    while stack:
        node = stack.pop()
        if node._parents:
            n += 1
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return n
