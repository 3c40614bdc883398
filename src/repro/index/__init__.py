"""Inverted index, blocking, similarity search, and the shared registry
over database content."""

from repro.index.blocking import BlockedValuePool
from repro.index.inverted import InvertedIndex, ValueLocation, normalize_value
from repro.index.persistence import FORMAT_VERSION, load_bundle, save_bundle
from repro.index.registry import IndexEntry, IndexRegistry
from repro.index.similarity import SearchStats, SimilaritySearcher, SimilarValue

__all__ = [
    "BlockedValuePool",
    "FORMAT_VERSION",
    "IndexEntry",
    "IndexRegistry",
    "InvertedIndex",
    "SearchStats",
    "SimilaritySearcher",
    "SimilarValue",
    "ValueLocation",
    "load_bundle",
    "normalize_value",
    "save_bundle",
]
