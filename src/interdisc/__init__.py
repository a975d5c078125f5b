"""Citation-based interdisciplinarity indicators for journals.

Core objects: a journal registry plus a sparse citation matrix (corpus),
per-vector inequality/entropy indicators, cosine/co-occurrence network
structures with betweenness centrality, quadratic-entropy diversity, and an
evaluation layer (rank correlations and rotated factor analysis).
"""

from .centrality import betweenness, normalize_betweenness
from .corpus import (
    CitationMatrix,
    Direction,
    JournalRegistry,
    SubsetMode,
    load_edge_list,
    load_matrix_market,
    load_metadata,
    subset,
)
from .diversity import DiversityResult, diversity_all, rao_stirling
from .netspace import (
    BinaryGraph,
    binarize,
    binarize_directed,
    cooccurrence,
    cosine_matrix,
    distance_matrix,
    export_matrix_market,
)
from .pipeline import RunConfig, compute_indicator_table, load_corpus, ranking
from .stats import (
    IndicatorTable,
    pca,
    rank_column,
    spearman,
    spearman_matrix,
    varimax,
    varimax_criterion,
)
from .synth import BridgeSpec, GeneralistSpec, SyntheticSpec, generate, uniform_spec
from .vector_indicators import (
    entropy_normalized_from_counts,
    gini_from_counts,
    gini_normalized_from_counts,
    shannon_entropy_from_counts,
)

__version__ = "0.1.0"
