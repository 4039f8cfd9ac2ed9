"""chainlens: supply-network knowledge graphs, link prediction, criticality scoring."""

__version__ = "0.1.0"

from .graph import (
    DEFAULT_SCHEMA,
    DuplicateTriple,
    EntityType,
    Graph,
    GraphError,
    RelationType,
    Schema,
    SchemaViolation,
    UnknownEntity,
)
from .dataset import (
    ConfigError,
    GeneratorConfig,
    ParseError,
    SplitConfig,
    SplitInfeasible,
    SplitResult,
    export_triples,
    generate_synthetic,
    load_triples,
    transductive_split,
)
from .models import ModelKind, ModelParams, init_params, load_checkpoint, save_checkpoint
from .training import TrainConfig, TrainHistory, grid_search, train
from .evaluation import EvalReport, evaluate, per_relation_table
from .analytics import CriticalityReport, criticality, critical_paths, sole_supplier_scopes

__all__ = [
    "DEFAULT_SCHEMA",
    "ConfigError",
    "CriticalityReport",
    "DuplicateTriple",
    "EntityType",
    "EvalReport",
    "GeneratorConfig",
    "Graph",
    "GraphError",
    "ModelKind",
    "ModelParams",
    "ParseError",
    "RelationType",
    "Schema",
    "SchemaViolation",
    "SplitConfig",
    "SplitInfeasible",
    "SplitResult",
    "TrainConfig",
    "TrainHistory",
    "UnknownEntity",
    "criticality",
    "critical_paths",
    "evaluate",
    "export_triples",
    "generate_synthetic",
    "grid_search",
    "init_params",
    "load_checkpoint",
    "load_triples",
    "per_relation_table",
    "save_checkpoint",
    "sole_supplier_scopes",
    "train",
    "transductive_split",
]
