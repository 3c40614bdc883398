"""Reproduction of ValueNet (Brunner & Stockinger, ICDE 2021).

An end-to-end NL-to-SQL system that learns from database information:
value extraction, candidate generation/validation against base data, a
transformer encoder over question + schema + value candidates, a
grammar-constrained LSTM decoder over SemQL 2.0 with pointer networks, and
deterministic post-processing (JOIN inference, value formatting) --
evaluated with Spider-style Execution Accuracy on a synthetic
Spider-like corpus.

The package root re-exports what serving a trained model needs; the
corpus, training and evaluation stacks are imported from their
subpackages, so a ``repro serve`` process never loads them::

    from repro.model import build_preprocessors, train_valuenet
    from repro.spider import CorpusConfig, generate_corpus
    from repro import ValueNetPipeline

See README.md for the full quickstart and DESIGN.md for the system
inventory and the per-experiment index.
"""

import gc

from repro.config import ModelConfig, TrainingConfig
from repro.db import Database
from repro.errors import ReproError
from repro.model import ValueNetModel
from repro.pipeline import (
    TranslationResult,
    ValueNetLightPipeline,
    ValueNetPipeline,
)
from repro.preprocessing import Preprocessor
from repro.schema import Schema

# What the imports above built (repro's modules, numpy's, their tables)
# lives until the process exits.  Freezing it keeps every later full
# collection from re-scanning it: the collector's first full pass, which
# CPython runs at a fixed count of young collections, costs what the
# program allocated since, wherever among its first pipeline builds or
# requests it falls.  Objects made before ``import repro`` are frozen
# too; reference counting still frees them, a cycle among them is never
# collected.
gc.freeze()

__version__ = "1.0.0"

__all__ = [
    "Database",
    "ModelConfig",
    "Preprocessor",
    "ReproError",
    "Schema",
    "TrainingConfig",
    "TranslationResult",
    "ValueNetLightPipeline",
    "ValueNetModel",
    "ValueNetPipeline",
]
