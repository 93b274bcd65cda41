"""semlink: semantic-type reinforced entity embeddings and desk-scale linking.

The package splits into embedding I/O (`embed_io`), dictionary building
(`type_dictionary`), per-entity type extraction (`type_extraction`), the
semantic/linear aggregation core (`semantic_aggregation`), linking
documents and their file formats (`corpus`), the bilinear linking scorer and
trainer (`linking_core`), evaluation and experiment drivers (`evaluation`),
synthetic fixtures (`fixtures`), and the staged pipeline plus CLI
(`pipeline`, `cli`).
"""

__version__ = "0.1.0"

from .embed_io import EmbeddingTable, load_binary, load_text, save_binary, save_text
from .semantic_aggregation import AggregationConfig, aggregate, aggregate_table, cosine, semantic_embedding
from .type_dictionary import SemanticTypeDictionary, apply_remap, build_dictionary, expand_seeds, mine_noun_frequency
from .type_extraction import ArticleRecord, EntityTypeAssignment, extract_corpus, extract_types

__all__ = [
    "AggregationConfig",
    "ArticleRecord",
    "EmbeddingTable",
    "EntityTypeAssignment",
    "SemanticTypeDictionary",
    "aggregate",
    "aggregate_table",
    "apply_remap",
    "build_dictionary",
    "cosine",
    "expand_seeds",
    "extract_corpus",
    "extract_types",
    "load_binary",
    "load_text",
    "mine_noun_frequency",
    "save_binary",
    "save_text",
    "semantic_embedding",
    "__version__",
]
