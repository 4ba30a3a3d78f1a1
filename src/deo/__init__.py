"""Training-free negation-aware retrieval via direct query-embedding optimization.

The pipeline: decompose a query into positive/negative sub-queries with a
chat model, embed everything through a frozen encoder endpoint, optimize the
query embedding against a contrastive objective, and search an exact flat
cosine index with the result.
"""

from .analysis import TrajectoryExport, export_trajectory, render_svg
from .benchmark import (
    BenchmarkConfig,
    MetricReport,
    SweepConfig,
    run_benchmark,
    sweep,
)
from .config import ToolConfig
from .decomposer import (
    DecomposedQuery,
    DecompositionCache,
    build_decomposition_prompt,
    decompose,
    decompose_many,
    parse_decomposition_response,
)
from .errors import (
    ConfigError,
    DeoError,
    DimensionMismatchError,
    DuplicateIdError,
    EmptyInputError,
    FormatError,
    InsufficientDataError,
    MissingDecompositionError,
    MissingEmbeddingError,
    MissingGoldError,
    NotStronglyConvexError,
    ParseError,
    TransportError,
    ZeroVectorError,
)
from .index import FlatIndex, RankedList, rrf_fuse, write_trec_run
from .metrics import (
    average_precision_at_k,
    load_qrels,
    ndcg_at_k,
    recall_at_k,
)
from .optimizer import (
    PRESETS,
    DecompositionEmbeddings,
    OptimizationConfig,
    OptimizationTrace,
    closed_form_optimum,
    convexity_margin,
    deo_gradient,
    deo_loss,
    optimize_many,
    optimize_query_embedding,
)
from .store import EmbeddingStore, IngestReport, embed_texts, ingest_corpus, load_store, save_store
from .vecmath import (
    PcaBasis,
    l2_normalize,
    pca_fit,
    pca_project,
)

__version__ = "0.1.0"


def __getattr__(name):
    # the clients import requests, which offline commands never need (PEP 562)
    if name in ("ChatClient", "ClientConfig", "EmbeddingClient"):
        from . import clients

        return getattr(clients, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
