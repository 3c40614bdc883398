"""Reproduction of ValueNet (Brunner & Stockinger, ICDE 2021).

An end-to-end NL-to-SQL system that learns from database information:
value extraction, candidate generation/validation against base data, a
transformer encoder over question + schema + value candidates, a
grammar-constrained LSTM decoder over SemQL 2.0 with pointer networks, and
deterministic post-processing (JOIN inference, value formatting) --
evaluated with Spider-style Execution Accuracy on a synthetic
Spider-like corpus.

Typical usage::

    from repro import (
        generate_corpus, CorpusConfig, ValueNetPipeline, train_valuenet,
    )

See README.md for the full quickstart and DESIGN.md for the system
inventory and the per-experiment index.
"""

from repro.config import ModelConfig, TrainingConfig
from repro.db import Database
from repro.errors import ReproError
from repro.evaluation import (
    AccuracyReport,
    Hardness,
    ValueDifficulty,
    evaluate_pipeline,
    exact_match,
    measure_extraction_coverage,
)
from repro.model import (
    Trainer,
    ValueNetModel,
    build_preprocessors,
    train_valuenet,
)
from repro.pipeline import (
    TranslationResult,
    ValueNetLightPipeline,
    ValueNetPipeline,
)
from repro.preprocessing import Preprocessor
from repro.schema import Schema
from repro.spider import CorpusConfig, SpiderCorpus, generate_corpus, load_corpus

__version__ = "1.0.0"

__all__ = [
    "AccuracyReport",
    "CorpusConfig",
    "Database",
    "Hardness",
    "ModelConfig",
    "Preprocessor",
    "ReproError",
    "Schema",
    "SpiderCorpus",
    "Trainer",
    "TrainingConfig",
    "TranslationResult",
    "ValueDifficulty",
    "ValueNetLightPipeline",
    "ValueNetModel",
    "ValueNetPipeline",
    "build_preprocessors",
    "evaluate_pipeline",
    "exact_match",
    "generate_corpus",
    "load_corpus",
    "measure_extraction_coverage",
    "train_valuenet",
]
