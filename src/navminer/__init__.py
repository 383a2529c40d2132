"""navminer: recover a multi-page web application's navigational model.

Pages reachable from a root are clustered level by level along the link
graph, each under the page the crawl found it on, using an edit distance
over inferred page schemas; the cluster tree is reduced to one
representative page per node, and one-sided diffs between adjacent
representatives yield candidate single-page UI components.
"""

from .components import (CandidateComponent, Fragment, diff_oneway,
                         extract_candidates, identify_elements)
from .corpus import Corpus, CorpusError, Page, extract_links, load_corpus
from .evaluate import (EvaluationResult, ReferenceClassification, evaluate,
                       load_reference, metrics_from_counts)
from .navmodel import (NavNode, NavTree, build_nav_tree, collect_partition,
                       reduce_to_snp, refine_clusters)
from .normalize import Document, EmptyDocumentError, LineText, Tag, pretty_print, to_xhtml
from .report import Config, ConfigError, PipelineResult, emit_dot, emit_xml, run_pipeline
from .schema import Schema, extract_schema, serialize_schema, sts_serialize
from .similarity import Partition, levenshtein, similarity, transclos

__version__ = "0.1.0"
