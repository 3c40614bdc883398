"""Ablation — value-candidate validation (paper Section IV-B3).

The paper argues that "the number of candidates has a direct impact on
the accuracy of the model — too many of them makes it harder for the
model to choose the correct one", which is why candidates are validated
against the database.  This ablation disables the exact-match validation
(every generated candidate survives, up to a high cap) and re-measures
ValueNet's dev accuracy and the candidate-list sizes.
"""

from __future__ import annotations

import pytest

from _util import print_table
from repro.evaluation import evaluate_pipeline
from repro.pipeline import ValueNetPipeline
from repro.preprocessing import Preprocessor


@pytest.fixture()
def unvalidated_preprocessors(bench):
    """Preprocessors whose validator keeps every candidate."""
    from repro.candidates.validation import CandidateValidator

    class KeepAllValidator(CandidateValidator):
        def validate(self, candidates, *, quoted_values=frozenset()):
            located = []
            for candidate in candidates:
                locations = tuple(sorted(
                    self._index.lookup(candidate.value),
                    key=lambda loc: (loc.table, loc.column),
                ))
                located.append(candidate.with_locations(locations))
            return located[:48]

    wrapped = {}
    for db_id, preprocessor in bench.preprocessors.items():
        clone = Preprocessor(preprocessor.database, index=preprocessor.index)
        clone._validator = KeepAllValidator(preprocessor.index)
        wrapped[db_id] = clone
    return wrapped


def test_ablation_candidate_validation(bench, valuenet_report,
                                       unvalidated_preprocessors, benchmark):
    corpus = bench.corpus
    pipelines = {
        db_id: ValueNetPipeline(
            bench.valuenet_model, corpus.database(db_id),
            preprocessor=unvalidated_preprocessors[db_id],
        )
        for db_id in corpus.dev_domains
    }
    unvalidated = evaluate_pipeline(pipelines, corpus.dev, corpus, light=False)

    def candidate_stats(report):
        sizes = [len(s.result.candidates) for s in report.samples]
        return sum(sizes) / max(len(sizes), 1)

    print_table(
        "Ablation: candidate validation (ValueNet, dev split)",
        [
            ("validated (paper's design)", f"{valuenet_report.accuracy:.1%}",
             f"{candidate_stats(valuenet_report):.1f}"),
            ("validation disabled", f"{unvalidated.accuracy:.1%}",
             f"{candidate_stats(unvalidated):.1f}"),
        ],
        ("condition", "execution accuracy", "avg candidates/question"),
    )

    example = next(e for e in corpus.dev if e.values)
    benchmark(unvalidated_preprocessors[example.db_id].run, example.question)

    # Shape: disabling validation inflates the candidate lists and must
    # not *improve* accuracy (paper: more candidates make selection harder).
    assert candidate_stats(unvalidated) > candidate_stats(valuenet_report)
    assert unvalidated.accuracy <= valuenet_report.accuracy + 0.03
