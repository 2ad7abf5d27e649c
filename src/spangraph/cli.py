"""Command line entry points.

Subcommands cover the whole workflow: vocabulary layout arithmetic, synthetic
data, training, evaluation, generation, and model introspection.  All data
errors exit with status 1 and a one-line message on stderr; argparse itself
exits with 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .data import Dataset, load_dataset, make_synthetic, save_dataset
from .decode import DecodeConfig, GenerationResult, generate, generate_batch
from .fileio import atomic_write
from .graph import IEGraph, Schema
from .introspect import export_attention, export_struct_similarity
from .linearize import Ordering, render_sequence
from .metrics import evaluate_pairs, format_report
from .model import Model, ModelConfig, WordVocab
from .train import TrainConfig, train_loop
from .vocab import build_layout


def _default_out_dir(value: str | None) -> str:
    return value or os.environ.get("SPANGRAPH_OUT_DIR") or "runs"


def _load_config_file(path: str) -> dict:
    """Read a JSON config file and normalize its keys to argparse dest names."""
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return {str(k).replace("-", "_"): v for k, v in raw.items()}


def _extract_config_path(argv: list[str]) -> str | None:
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if tok.startswith("--config="):
            return tok.split("=", 1)[1]
    return None


# what a config value must be, by its flag's argparse type: a description and
# the JSON types that qualify (a JSON bool is never a number)
_CONFIG_TYPES = {int: ("an integer", (int,)), float: ("a number", (int, float)),
                 None: ("a string", (str,))}


def _check_config_type(path: str, key: str, action: argparse.Action, value) -> None:
    what, types = ("true or false", (bool,)) if action.nargs == 0 else _CONFIG_TYPES[action.type]
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise ValueError(f"{path}: {key} must be {what}, got {json.dumps(value)}")


def _apply_config(leaves: dict[str, argparse.ArgumentParser], argv: list[str]) -> None:
    """Install config-file values as defaults on the targeted subcommand.

    Explicit flags win because argparse only falls back to defaults, and a
    required flag becomes optional once the config supplies it.
    """
    path = _extract_config_path(argv)
    if path is None:
        return
    positional = [t for t in argv if not t.startswith("-")]
    name = positional[0] if positional else None
    if name == "inspect" and len(positional) > 1:
        name = f"inspect {positional[1]}"
    leaf = leaves.get(name or "")
    if leaf is None:
        return
    raw = _load_config_file(path)
    actions: dict[str, argparse.Action] = {}
    for action in leaf._actions:
        actions[action.dest] = action
        for opt in action.option_strings:
            actions.setdefault(opt.lstrip("-").replace("-", "_"), action)
    for blocked in ("help", "config"):
        actions.pop(blocked, None)
    unknown = sorted(k for k in raw if k not in actions)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    cfg = {}
    for key, value in raw.items():
        action = actions[key]
        _check_config_type(path, key, action, value)
        if action.choices is not None and value not in action.choices:
            raise ValueError(
                f"{path}: {key} must be one of {sorted(action.choices)}, got {value!r}"
            )
        action.required = False
        cfg[action.dest] = value
    leaf.set_defaults(**cfg)


def _check_same_schema(a: Schema, b: Schema, what: str) -> None:
    if a != b:
        raise ValueError(f"{what} uses a different schema")


def cmd_vocab_info(args) -> int:
    schema = Schema(
        entity_types=tuple(f"type{i}" for i in range(args.C)),
        relation_types=tuple(f"rel{i}" for i in range(args.R)),
    )
    layout = build_layout(args.L, schema, args.K)
    print(f"L = {layout.L}")
    print(f"K = {layout.K}")
    print(f"C = {layout.C}")
    print(f"R = {layout.R}")
    print(f"span ids = {layout.n_span_ids}")
    print(f"realizable spans = {layout.n_realizable_spans}")
    print(f"specials = {layout.T}")
    print(f"V = {layout.V}")
    return 0


def cmd_synth(args) -> int:
    paths = make_synthetic(
        _default_out_dir(args.out_dir), prefix=args.prefix, seed=args.seed,
        n_train=args.n_train, n_dev=args.n_dev, n_test=args.n_test,
        split_mode=args.split_mode,
    )
    for split, path in paths.items():
        print(f"{split}: {path}")
    return 0


def cmd_train(args) -> int:
    train_ds = load_dataset(args.train)
    dev_ds = load_dataset(args.dev) if args.dev else None
    if dev_ds is not None:
        _check_same_schema(train_ds.schema, dev_ds.schema, "dev set")
    vocab = WordVocab.build(train_ds.documents())
    mcfg = ModelConfig(
        d_model=args.d_model,
        enc_layers=args.enc_layers,
        dec_layers=args.dec_layers,
        heads=args.heads,
        max_span_width=train_ds.max_span_width,
        dropout=args.dropout,
        max_positions=args.max_positions,
        dtype=args.precision,
        use_positions=not args.pos_off,
        use_structure=not args.struct_off,
    )
    tcfg = TrainConfig(
        max_steps=args.max_steps,
        batch_size=args.batch_size,
        max_sentences=args.max_sentences,
        ordering=Ordering[args.ordering.upper()],
        seed=args.seed,
        lr_encoder=args.lr_encoder,
        lr_decoder=args.lr_decoder,
        lr_other=args.lr_other,
        warmup_frac=args.warmup_frac,
        weight_decay=args.weight_decay,
        clip_norm=args.clip_norm,
        eval_every=args.eval_every,
    )
    model = Model(mcfg, train_ds.schema, vocab, rng=np.random.default_rng(args.seed))
    out_dir = _default_out_dir(args.out_dir)
    result = train_loop(
        model, tcfg, list(train_ds), list(dev_ds) if dev_ds else None,
        out_dir=out_dir, quiet=not args.verbose,
    )
    print(f"final loss = {result.losses[-1]:.6f}")
    if result.best_dev_f1 is not None:
        print(f"best dev REL+ F1 = {100 * result.best_dev_f1:.2f}")
    print(f"checkpoints: {result.best_path} {result.last_path}")
    print(f"metrics: {result.metrics_path}")
    return 0


def _decode_config(args) -> DecodeConfig:
    return DecodeConfig(
        mode=args.mode, top_p=args.top_p, max_len=args.max_len, seed=args.seed
    )


def _decode_dataset(model: Model, ds: Dataset, args) -> list[GenerationResult | None]:
    """Decode every document in lockstep batches, results in input order.

    A document too long for the model gets one error line on stderr and a
    None result; the others are decoded all the same.
    """
    results = generate_batch(model, ds.documents(), _decode_config(args))
    for i, res in enumerate(results):
        if not isinstance(res, GenerationResult):
            print(f"error: {res}", file=sys.stderr)
            results[i] = None
    return results


def cmd_generate(args) -> int:
    model, _, _ = Model.load(args.checkpoint)
    ds = load_dataset(args.data)
    _check_same_schema(model.schema, ds.schema, args.data)
    results = _decode_dataset(model, ds, args)
    preds = []
    for doc, res in zip(ds.documents(), results):
        if res is None:
            continue
        if args.render:
            print(f"{doc.id}: {render_sequence(res.sequence, model.schema)}")
        preds.append((doc, res.graph))
    if args.out:
        save_dataset(
            args.out, Dataset(model.schema, model.config.max_span_width, tuple(preds))
        )
        print(f"wrote {len(preds)} predictions to {args.out}")
    return 1 if None in results else 0


def _decode_record(results: list[GenerationResult | None]) -> dict:
    """Truncation and sequence length over the documents that were decoded."""
    done = [res for res in results if res is not None]
    n = len(done)
    truncated = sum(res.truncated for res in done)
    return {"metric": "decode", "documents": n, "truncated": truncated,
            "truncated_frac": truncated / max(1, n),
            "mean_symbols": sum(len(res.ids) for res in done) / max(1, n)}


def cmd_evaluate(args) -> int:
    failed = False
    results = None
    if args.checkpoint and args.data:
        model, _, _ = Model.load(args.checkpoint)
        ds = load_dataset(args.data)
        _check_same_schema(model.schema, ds.schema, args.data)
        results = _decode_dataset(model, ds, args)
        failed = None in results
        # a document that could not be decoded counts as an empty prediction
        pairs = [(IEGraph((), ()) if res is None else res.graph, gold)
                 for res, (_, gold) in zip(results, ds)]
    elif args.pred and args.gold:
        pred_ds = load_dataset(args.pred)
        gold_ds = load_dataset(args.gold)
        _check_same_schema(pred_ds.schema, gold_ds.schema, args.pred)
        by_id = {doc.id: graph for doc, graph in pred_ds}
        missing = [doc.id for doc, _ in gold_ds if doc.id not in by_id]
        if missing:
            raise ValueError(f"predictions missing for ids: {missing[:5]}")
        pairs = [(by_id[doc.id], gold) for doc, gold in gold_ds]
    else:
        raise ValueError("evaluate needs --checkpoint with --data, or --pred with --gold")
    report = evaluate_pairs(pairs)
    print(format_report(report))
    records = []
    for metric, counts, (p, r, f1) in (
        ("ent", report.ent, report.ent_prf),
        ("rel", report.rel, report.rel_prf),
        ("rel_strict", report.rel_strict, report.rel_strict_prf),
    ):
        records.append({
            "metric": metric, "tp": counts.tp, "pred": counts.n_pred,
            "gold": counts.n_gold, "precision": p, "recall": r, "f1": f1,
        })
    if results is not None:
        records.append(_decode_record(results))
    lines = [json.dumps(rec, sort_keys=True, separators=(",", ":")) for rec in records]
    for line in lines:
        print(line)
    if args.report:
        os.makedirs(os.path.dirname(os.path.abspath(args.report)), exist_ok=True)
        with atomic_write(args.report) as fh:
            fh.write("\n".join(lines) + "\n")
    return 1 if failed else 0


def cmd_inspect_attention(args) -> int:
    model, _, _ = Model.load(args.checkpoint)
    ds = load_dataset(args.data)
    _check_same_schema(model.schema, ds.schema, args.data)
    if not 0 <= args.index < len(ds):
        raise ValueError(f"--index {args.index} outside dataset of {len(ds)} sentences")
    doc, _ = ds.examples[args.index]
    res = generate(model, doc, _decode_config(args), capture_attention=True)
    head = args.head if args.head == "mean" else int(args.head)
    export_attention(
        res.trace, res.sequence.symbols, doc.tokens, args.out,
        layer=args.layer, head=head, kind=args.kind,
    )
    print(f"wrote {args.kind} attention (layer {args.layer}, head {head}) to {args.out}")
    return 0


def cmd_inspect_struct_sim(args) -> int:
    model, _, _ = Model.load(args.checkpoint)
    sim = export_struct_similarity(model, args.out)
    print(f"wrote structural-label similarity to {args.out}")
    with np.printoptions(precision=3, suppress=True):
        print(sim)
    return 0


def _add_decode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("greedy", "nucleus"), default="greedy")
    p.add_argument("--top-p", type=float, default=0.9)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """Return the root parser and each leaf subcommand parser keyed by name."""
    parser = argparse.ArgumentParser(
        prog="spangraph",
        description="joint entity/relation extraction by pointing at spans",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    leaves: dict[str, argparse.ArgumentParser] = {}

    p = sub.add_parser("vocab-info", help="dynamic vocabulary size arithmetic")
    leaves["vocab-info"] = p
    p.add_argument("--L", type=int, required=True, help="sentence length in tokens")
    p.add_argument("--K", type=int, required=True, help="maximum span width")
    p.add_argument("--C", type=int, required=True, help="number of entity types")
    p.add_argument("--R", type=int, required=True, help="number of relation types")
    p.set_defaults(func=cmd_vocab_info)

    p = sub.add_parser("synth", help="write a synthetic corpus")
    leaves["synth"] = p
    p.add_argument("--out-dir", default=None)
    p.add_argument("--prefix", default="synth")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-train", type=int, default=50)
    p.add_argument("--n-dev", type=int, default=25)
    p.add_argument("--n-test", type=int, default=25)
    p.add_argument("--split-mode", choices=("iid", "compositional"), default="iid")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model")
    leaves["train"] = p
    p.add_argument("--train", required=True, help="training data (JSONL)")
    p.add_argument("--dev", default=None, help="dev data for checkpoint selection")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--steps", "--max-steps", dest="max_steps", type=int, default=1000)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--max-sentences", type=int, default=5)
    p.add_argument("--ordering", choices=("sorted", "random"), default="sorted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--enc-layers", type=int, default=2)
    p.add_argument("--dec-layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--max-positions", type=int, default=512)
    p.add_argument("--precision", choices=("float32", "float64"), default="float32")
    p.add_argument("--pos-off", action="store_true",
                   help="ablation: no decoder position embeddings")
    p.add_argument("--struct-off", action="store_true",
                   help="ablation: no structural label embeddings")
    p.add_argument("--lr-encoder", type=float, default=3e-5)
    p.add_argument("--lr-decoder", type=float, default=7e-5)
    p.add_argument("--lr-other", type=float, default=1e-4)
    p.add_argument("--warmup-frac", type=float, default=0.1)
    p.add_argument("--weight-decay", type=float, default=0.01)
    p.add_argument("--clip-norm", type=float, default=None)
    p.add_argument("--eval-every", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="decode a dataset into predicted graphs")
    leaves["generate"] = p
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="write predictions as JSONL")
    p.add_argument("--render", action="store_true", help="print each generated sequence")
    _add_decode_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score predictions against gold graphs")
    leaves["evaluate"] = p
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--data", default=None, help="gold data; decoded with the checkpoint")
    p.add_argument("--pred", default=None, help="saved predictions (JSONL)")
    p.add_argument("--gold", default=None, help="gold data matched to --pred by id")
    p.add_argument("--report", default=None,
                   help="also write the structured records to this file")
    _add_decode_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect", help="model introspection exports")
    isub = p.add_subparsers(dest="inspect_command", required=True)

    q = isub.add_parser("attention", help="export one attention map as CSV")
    leaves["inspect attention"] = q
    q.add_argument("--checkpoint", required=True)
    q.add_argument("--data", required=True)
    q.add_argument("--index", type=int, default=0, help="sentence index in the dataset")
    q.add_argument("--layer", type=int, default=0)
    q.add_argument("--head", default="mean", help="head index or 'mean'")
    q.add_argument("--kind", choices=("self", "cross"), default="cross")
    q.add_argument("--out", required=True)
    _add_decode_flags(q)
    q.set_defaults(func=cmd_inspect_attention)

    q = isub.add_parser("struct-sim", help="cosine similarity of phase embeddings")
    leaves["inspect struct-sim"] = q
    q.add_argument("--checkpoint", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_inspect_struct_sim)

    for leaf in leaves.values():
        leaf.add_argument("--config", default=None,
                          help="JSON file of flag defaults; explicit flags win")

    return parser, leaves


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, leaves = build_parser()
    try:
        _apply_config(leaves, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
