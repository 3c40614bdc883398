"""Versioned on-disk serialization for the per-database value indexes.

Cold-building an :class:`~repro.index.inverted.InvertedIndex` plus its
:class:`~repro.index.similarity.SimilaritySearcher` means scanning every
text column *and* deriving q-gram posting lists for every distinct value —
by far the most expensive part of opening a database for translation.
This module persists both as one bundle so benchmarks, ``repro serve``
and eval scripts skip the rebuild entirely on warm start.

The bundle is a pickle of plain structures (dicts, lists, tuples, strings,
flat ``array`` buffers and the value pool's numpy arrays, stored as they
are — produced by the ``state_dict`` methods, never live domain objects)
wrapped in a header carrying a format version and a fingerprint of the
database file and file state it was built from.  A mismatch on either — or any parse failure — makes
:func:`load_bundle` return ``None`` so callers fall back to a cold build;
a stale or corrupt cache can cost time but never correctness.  The pool
validates its arrays against each other when it adopts them, so a bundle
that unpickles but does not fit together is also rejected here rather
than failing inside some later query.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path

from repro.index.inverted import InvertedIndex
from repro.index.similarity import SimilaritySearcher

#: Bump whenever the state_dict layout of the index, the searcher, or the
#: blocked pool changes; old files are then rebuilt instead of misread.
FORMAT_VERSION = 7

_MAGIC = "repro-index-bundle"


def save_bundle(
    path: str | Path,
    *,
    fingerprint: str,
    index: InvertedIndex,
    searcher: SimilaritySearcher,
) -> None:
    """Atomically write ``index`` + ``searcher`` to ``path``.

    The write goes through a same-directory temp file + ``os.replace`` so
    concurrent readers never observe a torn bundle.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "magic": _MAGIC,
        "format_version": FORMAT_VERSION,
        "fingerprint": fingerprint,
        "index": index.state_dict(),
        "searcher": searcher.state_dict(),
    }
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_bundle(
    path: str | Path, *, fingerprint: str
) -> tuple[InvertedIndex, SimilaritySearcher] | None:
    """Load a bundle written by :func:`save_bundle`.

    Returns ``None`` when the file is missing, unreadable, from another
    format version, or fingerprinted for another database file or file
    state — the caller then rebuilds from base data.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ImportError):
        return None
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        return None
    if payload.get("format_version") != FORMAT_VERSION:
        return None
    if payload.get("fingerprint") != fingerprint:
        return None
    try:
        index = InvertedIndex.from_state(payload["index"])
        searcher = SimilaritySearcher.from_state(payload["searcher"], index)
    except (KeyError, IndexError, TypeError, ValueError):
        return None
    return index, searcher
