"""Graph-structured multi-task classification of resource contention.

Windows of multivariate system metrics (T timesteps x D metrics) are
classified into five contention types (CPU, IO, MEM, NET, HYBRID) by a
numpy-only pipeline: a shared per-metric temporal encoder, two hops of
propagation over a correlation-built metric graph, and one parameter-
decoupled scoring head per class trained with adaptively weighted
one-vs-rest losses.
"""

from contention.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from contention.data import (
    CLASS_NAMES,
    ContentionClass,
    Dataset,
    MetricWindow,
    NormStats,
    ScenarioConfig,
    apply_norm,
    fit_norm,
    generate,
    read_dataset,
    split,
    write_dataset,
)
from contention.graph import MetricGraph, build_graph, identity_graph, pearson_matrix
from contention.model import ModelConfig, ModelParams, forward, init_params, predict
from contention.pipeline import PreparedData, RunResult, prepare, run_synthetic
from contention.rng import RngStream
from contention.train import EvalMetrics, TrainConfig, evaluate

__version__ = "0.1.0"

__all__ = [
    "CLASS_NAMES",
    "Checkpoint",
    "ContentionClass",
    "Dataset",
    "EvalMetrics",
    "MetricGraph",
    "MetricWindow",
    "ModelConfig",
    "ModelParams",
    "NormStats",
    "PreparedData",
    "RngStream",
    "RunResult",
    "ScenarioConfig",
    "TrainConfig",
    "apply_norm",
    "build_graph",
    "evaluate",
    "fit_norm",
    "forward",
    "generate",
    "identity_graph",
    "init_params",
    "load_checkpoint",
    "pearson_matrix",
    "predict",
    "prepare",
    "read_dataset",
    "run_synthetic",
    "save_checkpoint",
    "split",
    "write_dataset",
]
