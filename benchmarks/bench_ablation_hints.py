"""Ablation — the question/schema hints (paper Section III-A).

The hints are the "prior knowledge" ValueNet feeds its encoder.  This
inference-time ablation suppresses every hint (all tokens NONE, all schema
items NONE) on the dev split and re-measures Execution Accuracy with the
same trained weights: the drop quantifies how much of the unseen-database
transfer the hint features carry.
"""

from __future__ import annotations

import pytest

from _util import print_table
from repro.evaluation import evaluate_pipeline
from repro.preprocessing.hints import HintedToken, QuestionHint, SchemaHint


class HintlessPreprocessor:
    """Wraps a preprocessor so its output carries no hints.

    ``run`` / ``run_light`` forward whatever they are called with: the
    wrapper adds nothing to the inner signatures and so cannot fall
    behind them.
    """

    def __init__(self, inner):
        self._inner = inner
        self.schema = inner.schema
        self.database = inner.database
        self.index = inner.index

    def _strip(self, pre):
        pre.hinted_tokens = [
            HintedToken(h.token, QuestionHint.NONE) for h in pre.hinted_tokens
        ]
        pre.schema_hints.table_hints = [
            SchemaHint.NONE for _ in pre.schema_hints.table_hints
        ]
        pre.schema_hints.column_hints = [
            SchemaHint.NONE for _ in pre.schema_hints.column_hints
        ]
        return pre

    def run(self, *args, **kwargs):
        return self._strip(self._inner.run(*args, **kwargs))

    def run_light(self, *args, **kwargs):
        return self._strip(self._inner.run_light(*args, **kwargs))


@pytest.fixture()
def hintless_preprocessors(bench):
    """Wrap each preprocessor so its output carries no hints."""
    return {
        db_id: HintlessPreprocessor(preprocessor)
        for db_id, preprocessor in bench.preprocessors.items()
    }


def test_ablation_hints(bench, light_report, hintless_preprocessors, benchmark):
    from repro.pipeline import ValueNetLightPipeline

    corpus = bench.corpus
    pipelines = {
        db_id: ValueNetLightPipeline(
            bench.light_model, corpus.database(db_id),
            preprocessor=hintless_preprocessors[db_id],
        )
        for db_id in corpus.dev_domains
    }
    hintless = evaluate_pipeline(pipelines, corpus.dev, corpus, light=True)

    print_table(
        "Ablation: hint features (ValueNet light, dev split)",
        [
            ("with hints", f"{light_report.accuracy:.1%}"),
            ("hints suppressed", f"{hintless.accuracy:.1%}"),
            ("drop", f"{light_report.accuracy - hintless.accuracy:.1%}"),
        ],
        ("condition", "execution accuracy"),
    )

    example = corpus.dev[0]
    benchmark(pipelines[example.db_id].translate, example.question,
              values=example.values)

    assert hintless.accuracy < light_report.accuracy, (
        "removing the hints must hurt on unseen databases"
    )
