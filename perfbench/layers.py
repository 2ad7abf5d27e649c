"""Per-layer metrics from a finished trace (definitions in ``spec.PER_LAYER``)."""

from __future__ import annotations

import collections

from spangraph.linearize import SEP


def triple_counts(sequence) -> collections.Counter:
    """How often each relation triple occurs in one generated sequence."""
    symbols = sequence.symbols
    body = symbols[symbols.index(SEP) + 1 : -1]
    return collections.Counter(tuple(body[k : k + 3]) for k in range(0, len(body) - 2, 3))


def layer_metrics(tracer) -> dict[str, float]:
    timed = tracer.self_times_ns(lambda rec: rec[4] != "setup")
    setup = tracer.self_times_ns(lambda rec: rec[4] == "setup")
    counter = tracer.counters

    def calls(name, table=timed):
        return table.get(name, [0, 0, 0])[0]

    ops = max(1, calls("train.AdamW.step") + calls("decode.generate"))

    def ms_per_op(name, column=1):
        return timed.get(name, [0, 0, 0])[column] / 1e6 / ops

    def mean_per_call(name, scale, table=timed):
        row = table.get(name, [0, 0, 0])
        return row[1] / scale / row[0] if row[0] else 0.0

    gens = tracer.generations
    counts = [triple_counts(seq) for _, _, seq in gens]
    emitted = sum(sum(tc.values()) for tc in counts)
    distinct = sum(len(tc) for tc in counts)
    n_masks = calls("grammar.legal_mask")
    head_ns = [r[2] - r[1] for r in tracer.spans
               if r[0] == "grammar.legal_mask" and r[5] == "HEAD" and r[4] != "setup"]
    symbols = sum(steps for steps, _, _ in gens)
    return {
        "tensor.backward.ms": ms_per_op("tensor.backward"),
        "tensor.tape_ops": counter["tensor.tape_ops"] / ops,
        "tensor.matmul.calls": counter["tensor.matmul.calls"] / ops,
        "tensor.cross_entropy.ms": ms_per_op("tensor.cross_entropy"),
        "model.encode.ms": ms_per_op("model.encode"),
        "model.span_embeddings.ms": ms_per_op("model.span_embeddings"),
        "model.decode_hidden.ms": ms_per_op("model.decode_hidden"),
        "model.next_token_logits.ms": ms_per_op("model.next_token_logits"),
        "train.augment.ms": ms_per_op("train.augment"),
        "train.encode_example.ms": ms_per_op("train.encode_example"),
        "train.AdamW.step.ms": ms_per_op("train.AdamW.step"),
        "train.train_loop.self_ms": ms_per_op("train.train_loop", column=2),
        "train.tokens": counter["train.tokens"] / ops,
        "train.target_symbols": counter["train.target_symbols"] / ops,
        "grammar.legal_mask.calls": n_masks / ops,
        "grammar.legal_mask.us": mean_per_call("grammar.legal_mask", 1e3),
        "grammar.legal_width": counter["grammar.legal_width.sum"] / n_masks if n_masks else 0.0,
        "grammar.advance.us": mean_per_call("grammar.advance", 1e3),
        "model.DecodeRuntime.init_ms": ms_per_op("model.DecodeRuntime.init"),
        "model.DecodeRuntime.step_logits.us": mean_per_call("model.DecodeRuntime.step_logits", 1e3),
        "model.DecodeRuntime.step_logits.calls": calls("model.DecodeRuntime.step_logits") / ops,
        "decode.generate.self_ms": ms_per_op("decode.generate", column=2),
        "vocab.build_layout.us": mean_per_call("vocab.build_layout", 1e3),
        "linearize.delinearize.us": mean_per_call("linearize.delinearize", 1e3),
        "decode.symbols": symbols / ops,
        "decode.truncated_frac": sum(cut for _, cut, _ in gens) / ops,
        "decode.useful_triple_frac": distinct / emitted if emitted else (1.0 if gens else 0.0),
        "data.load_dataset.ms": mean_per_call("data.load_dataset", 1e6, setup),
        "model.Model.load.ms": mean_per_call("model.Model.load", 1e6, setup),
        # not in BENCHMARK.json; kept in result files for comparison with older figures
        "grammar.legal_mask.head_us": sum(head_ns) / 1e3 / len(head_ns) if head_ns else 0.0,
        "decode.entities": sum(seq.symbols.index(SEP) - 1 for _, _, seq in gens) / ops,
        "decode.max_triple_repeats": sum(max(tc.values(), default=0) for tc in counts) / ops,
        "decode.generate.ms_per_symbol": ms_per_op("decode.generate") * ops / symbols
        if symbols else 0.0,
    }

