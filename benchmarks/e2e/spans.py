"""Spans recorded from outside the program.

The benchmark wraps the *public* entry point of each layer — a class
method or a package-level function — so that a call made anywhere inside
the pipeline opens a span ``{name, start, end, parent, request_id}``.
Spans live in memory and are written out once the pass ends.  A layer's
self time is its span minus the part its child spans cover.  Nothing
inside ``src/`` knows about any of this; in-program spans are a later
change (ROADMAP "stage-level latency accounting").
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path


class Recorder:
    """Single-threaded span recorder (the traced pass uses one thread)."""

    def __init__(self) -> None:
        self.enabled = False
        self.request_id = -1
        # name, start, end, parent index, request id, work count
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request_id, 0]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(result)
            return result

        return traced

    def patch_method(self, cls, attr: str, name: str, count=None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, count))

    def patch_function(self, fn, name: str, count=None) -> None:
        """Wrap ``fn`` wherever a ``repro`` module holds a reference to it
        (``from x import fn`` binds the function object, not the name)."""
        traced = self._wrap(name, fn, count)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------- aggregation

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, count
        (a defaultdict: a name that never ran reads as zeros)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _rid, _count in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0}
        )
        for i, (name, start, end, _parent, _rid, count) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered[i]
            entry["count"] += count
        return out

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "request_id", "count")
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, span)) for span in self.spans]))


def install(recorder: Recorder) -> None:
    """Wrap every layer's public entry point.  Import-time cost only."""
    import repro.candidates
    import repro.db
    import repro.index
    import repro.model
    import repro.ner
    import repro.pipeline
    import repro.policy
    import repro.postprocessing
    import repro.preprocessing
    import repro.tenancy
    import repro.text

    method, function = recorder.patch_method, recorder.patch_function
    function(repro.text.tokenize, "text.tokenize")
    method(repro.ner.ValueExtractor, "extract", "ner.extract", len)
    method(repro.candidates.CandidateGenerator, "generate", "candidates.generate", len)
    method(repro.candidates.CandidateValidator, "validate", "candidates.validate", len)
    method(repro.index.SimilaritySearcher, "search", "index.search")
    function(repro.preprocessing.compute_question_hints, "preprocessing.hints")
    function(repro.preprocessing.compute_schema_hints, "preprocessing.hints")
    method(repro.preprocessing.Preprocessor, "run", "preprocessing.run")
    function(repro.model.featurize, "model.featurize", lambda r: len(r.piece_ids))
    method(repro.model.ValueNetModel, "encode", "model.encode", lambda r: 1)
    method(repro.model.ValueNetModel, "encode_batch", "model.encode", len)
    method(repro.model.ValueNetDecoder, "decode", "model.decode", len)
    function(repro.model.beam_decode, "model.decode", len)
    method(repro.postprocessing.SqlBuilder, "build", "postprocessing.build")
    function(repro.db.execute_with_budget, "db.execute", len)
    method(repro.policy.PolicyEngine, "check_sql", "policy.check")
    method(repro.tenancy.TenancyController, "admit", "tenancy.admit")
    for cls in (repro.pipeline.ValueNetPipeline.__mro__):
        if "translate" in cls.__dict__:
            method(cls, "translate", "pipeline.translate")
        if "translate_batch" in cls.__dict__:
            method(cls, "translate_batch", "pipeline.translate")
