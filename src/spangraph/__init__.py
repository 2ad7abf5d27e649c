"""Joint entity and relation extraction as autoregressive graph generation.

A sentence's candidate spans, the relation types and three control symbols
form a dynamic vocabulary; an encoder-decoder generates the linearized IE
graph by pointing into it under a grammar that makes every output parseable.
"""

from .graph import (
    Document,
    EntitySpan,
    GraphError,
    IEGraph,
    Relation,
    Schema,
    validate_graph,
)
from .linearize import (
    END,
    SEP,
    START,
    GraphSequence,
    Ordering,
    RelSym,
    SpanSym,
    delinearize,
    linearize,
    render_sequence,
    render_symbol,
)
from .vocab import VocabLayout, build_layout, id_to_symbol, symbol_to_id
from .grammar import (
    DecodeState,
    Phase,
    advance,
    enumerate_valid_sequences,
    initial_state,
    legal_mask,
    replay,
    structural_labels,
)
from .model import AttnTrace, DecodeRuntime, Model, ModelConfig, WordVocab
from .train import (AdamW, NonFiniteGradNorm, NonFiniteLoss, TrainConfig, augment, batch_loss,
                    encode_example, example_loss, grad_norm, lr_at, train_loop)
from .decode import (DecodeConfig, GenerationResult, generate, generate_batch, nucleus_select,
                     predict)
from .metrics import Counts, ScoreReport, evaluate_pairs, format_report, prf
from .data import Dataset, load_dataset, make_synthetic, save_dataset
from .introspect import export_attention, export_struct_similarity, struct_similarity

__version__ = "0.1.0"

__all__ = [
    "Document", "EntitySpan", "Relation", "IEGraph", "Schema", "GraphError",
    "validate_graph",
    "START", "END", "SEP", "SpanSym", "RelSym", "GraphSequence", "Ordering",
    "linearize", "delinearize", "render_symbol", "render_sequence",
    "VocabLayout", "build_layout", "symbol_to_id", "id_to_symbol",
    "Phase", "DecodeState", "initial_state", "advance", "legal_mask", "replay",
    "structural_labels", "enumerate_valid_sequences",
    "Model", "ModelConfig", "WordVocab", "AttnTrace", "DecodeRuntime",
    "TrainConfig", "AdamW", "train_loop", "augment", "encode_example",
    "example_loss", "batch_loss", "lr_at", "NonFiniteLoss", "NonFiniteGradNorm", "grad_norm",
    "DecodeConfig", "GenerationResult", "generate", "generate_batch", "predict",
    "nucleus_select",
    "Counts", "ScoreReport", "evaluate_pairs", "format_report", "prf",
    "Dataset", "load_dataset", "save_dataset", "make_synthetic",
    "export_attention", "export_struct_similarity", "struct_similarity",
    "__version__",
]
