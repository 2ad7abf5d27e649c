"""What the benchmark measures: workloads, metrics, units, directions, bounds.

This file is the single source of ``BENCHMARK.json``; regenerate it with

    python3 perfbench/spec.py > BENCHMARK.json

``BENCHMARK.json`` holds a fixed set of keys, so the per-layer to
end-to-end map (``MOVES``) and the metric definitions live only here and in
every result file the benchmark writes.

An operation is one training step on ``train`` and one sentence on the
decode workloads; "per op" below means divided by the operations of the
traced pass.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS = {
    "train": "train_loop at the README config: time sits in the tensor tape and the model "
             "graph, never in DecodeRuntime",
    "decode-short": "greedy decode of many 4-10 token sentences: per-sentence set-up and short "
                    "KV caches dominate, grammar masks are cheap",
    "decode-long": "greedy decode of 100-token inputs that repeat one triple up to max_len: long "
                   "KV caches and HEAD-phase masks dominate",
}

# name, unit, better, bound, definition
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "start of run.py to the first timed op: imports once, plus the median of repeated "
     "set-ups (input generation, load_dataset, model build or Model.load, warm-up)"),
    ("op_ms", "ms", "lower", 0.25,
     "median time of one op: train_loop wall / steps per timed call (train_step_ms), or one "
     "generate call (generate_ms.p50)"),
    ("tokens_per_s", "1/s", "higher", 0.25,
     "input tokens per second, median over timed calls: tokens of all augmented examples "
     "(train_tokens_per_s), or of the sentences of one predict pass"),
    ("peak_rss_mb", "MB", "lower", 0.1, "peak resident set size of the workload process"),
]

# name, unit, better, definition
PER_LAYER = [
    ("tensor.backward.ms", "ms/op", "lower", "tensor.backward per step"),
    ("tensor.tape_ops", "count/op", "lower",
     "recorded ops reachable from the step loss, counted before backward"),
    ("tensor.matmul.calls", "count/op", "lower", "tensor.matmul calls per op"),
    ("tensor.cross_entropy.ms", "ms/op", "lower", "tensor.cross_entropy per step"),
    ("model.encode.ms", "ms/op", "lower", "Model.encode per op"),
    ("model.span_embeddings.ms", "ms/op", "lower", "Model.span_embeddings per op"),
    ("model.decode_hidden.ms", "ms/op", "lower", "Model.decode_hidden per step"),
    ("model.next_token_logits.ms", "ms/op", "lower", "Model.next_token_logits per step"),
    ("train.augment.ms", "ms/op", "lower", "train.augment per step"),
    ("train.encode_example.ms", "ms/op", "lower",
     "train.encode_example per step: linearize, grammar.replay and gold masks"),
    ("train.AdamW.step.ms", "ms/op", "lower", "AdamW.step per step"),
    ("train.train_loop.self_ms", "ms/op", "lower",
     "train_loop self time per step: logging, checkpoint saves, loss sum, model glue"),
    ("train.tokens", "count/op", "higher", "input tokens per step"),
    ("train.target_symbols", "count/op", "higher", "teacher-forced target symbols per step"),
    ("grammar.legal_mask.calls", "count/op", "lower", "legal_mask calls per op"),
    ("grammar.legal_mask.us", "us/call", "lower", "mean legal_mask call"),
    ("grammar.legal_width", "count", "lower", "mean legal ids per legal_mask call"),
    ("grammar.advance.us", "us/call", "lower", "mean grammar.advance call"),
    ("model.DecodeRuntime.init_ms", "ms/op", "lower", "DecodeRuntime construction per sentence"),
    ("model.DecodeRuntime.step_logits.us", "us/call", "lower", "mean step_logits call"),
    ("model.DecodeRuntime.step_logits.calls", "count/op", "lower",
     "step_logits calls per sentence"),
    ("decode.generate.self_ms", "ms/op", "lower",
     "generate self time per sentence: masked argmax over V, symbol bookkeeping, "
     "_close_sequence"),
    ("vocab.build_layout.us", "us/call", "lower", "mean build_layout call"),
    ("linearize.delinearize.us", "us/call", "lower", "mean delinearize call"),
    ("decode.symbols", "count/op", "lower", "decoder steps per sentence"),
    ("decode.truncated_frac", "fraction", "lower", "share of sentences cut at max_len"),
    ("decode.useful_triple_frac", "fraction", "higher",
     "distinct relation triples / emitted relation triples"),
    ("data.load_dataset.ms", "ms/call", "lower", "mean load_dataset call during set-up"),
    ("model.Model.load.ms", "ms/call", "lower", "mean Model.load call during set-up"),
]

# per-layer metric -> the (end-to-end metric, workload) pairs it should move;
# a layer a workload never enters reads 0 there and is predicted not to move it
_TRAIN = (("op_ms", "train"), ("tokens_per_s", "train"))
_LONG = (("op_ms", "decode-long"), ("tokens_per_s", "decode-long"))
_DECODE = (("op_ms", "decode-short"), ("tokens_per_s", "decode-short")) + _LONG
MOVES = {
    "tensor.backward.ms": _TRAIN,
    "tensor.tape_ops": _TRAIN,
    "tensor.matmul.calls": _TRAIN,
    "tensor.cross_entropy.ms": _TRAIN,
    "model.encode.ms": _TRAIN,
    "model.span_embeddings.ms": _TRAIN,
    "model.decode_hidden.ms": _TRAIN,
    "model.next_token_logits.ms": _TRAIN,
    "train.augment.ms": _TRAIN,
    "train.encode_example.ms": _TRAIN,
    "train.AdamW.step.ms": _TRAIN,
    "train.train_loop.self_ms": _TRAIN,
    "train.tokens": _TRAIN,
    "train.target_symbols": _TRAIN,
    "grammar.legal_mask.calls": _TRAIN + _LONG,
    "grammar.legal_mask.us": _TRAIN + _LONG,
    "grammar.legal_width": (("op_ms", "decode-long"),),
    "grammar.advance.us": _DECODE,
    "model.DecodeRuntime.init_ms": (("op_ms", "decode-short"), ("tokens_per_s", "decode-short")),
    "model.DecodeRuntime.step_logits.us": _DECODE,
    "model.DecodeRuntime.step_logits.calls": _DECODE,
    "decode.generate.self_ms": _DECODE,
    "vocab.build_layout.us": _DECODE,
    "linearize.delinearize.us": _DECODE,
    "decode.symbols": _LONG,
    "decode.truncated_frac": _LONG,
    "decode.useful_triple_frac": _LONG,
    "data.load_dataset.ms": (("setup_s", "train"), ("setup_s", "decode-short"),
                             ("setup_s", "decode-long")),
    "model.Model.load.ms": (("setup_s", "decode-short"), ("setup_s", "decode-long")),
}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def definitions() -> dict:
    """Every metric's definition and, for per-layer ones, what it should move."""
    out = {n: {"unit": u, "better": b, "bound": bound, "definition": d}
           for n, u, b, bound, d in END_TO_END}
    for n, u, b, d in PER_LAYER:
        out[n] = {"unit": u, "better": b, "definition": d,
                  "moves": [{"metric": m, "workload": w} for m, w in MOVES[n]]}
    return out


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
