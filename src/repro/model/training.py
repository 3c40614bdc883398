"""Training loop and dataset preparation for the ValueNet model.

:func:`train_valuenet` is the one recipe: vocabulary over the training
split, model, prepared samples, trainer.  Pre-processing is
deterministic per example, so it runs once up front
(:func:`prepare_samples`); each epoch then shuffles them into minibatches
of ``batch_size`` (the paper: 20), each one batched encode, one lockstep
teacher-forced loss, one backward and one three-group Adam step.

Full-mode samples are prepared with one more value source than any
question is answered with: a perceptron tagger trained on the training
split's gold value spans (the paper's custom NER model).  It keeps
training examples whose gold value heuristics and gazetteer miss; it is
never saved, and never runs at inference (DESIGN.md §2).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.config import ModelConfig, TrainingConfig
from repro.logs import get_logger
from repro.model.decoder import DecoderStep
from repro.model.featurize import build_vocabulary
from repro.model.supervision import tree_to_steps
from repro.model.valuenet import ValueNetModel
from repro.ner.extractor import ValueExtractor, merge_spans
from repro.ner.heuristics import extract_heuristic_values
from repro.ner.tagger import PerceptronTagger
from repro.ner.types import ExtractedValue
from repro.preprocessing.pipeline import PreprocessedQuestion, Preprocessor
from repro.schema.model import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spider.corpus import Example, SpiderCorpus

_LOG = get_logger(__name__)


@dataclass
class TrainSample:
    """One prepared training sample (pre-processing already applied)."""

    example: Example
    pre: PreprocessedQuestion
    schema: Schema
    steps: list[DecoderStep]


@dataclass
class EpochStats:
    """Loss/coverage bookkeeping for one epoch."""

    epoch: int
    mean_loss: float
    num_samples: int
    seconds: float


@dataclass
class TrainingHistory:
    epochs: list[EpochStats] = field(default_factory=list)
    num_prepared: int = 0
    num_dropped: int = 0

    @property
    def final_loss(self) -> float:
        return self.epochs[-1].mean_loss if self.epochs else float("nan")


def build_preprocessors(corpus: SpiderCorpus) -> dict[str, Preprocessor]:
    """One :class:`Preprocessor` per database (index built once each)."""
    return {db_id: Preprocessor(corpus.database(db_id)) for db_id in corpus.domains}


class _TaggedExtractor(ValueExtractor):
    """Heuristics + a tagger trained on ``examples``' gold value spans +
    the gazetteer: the extractor full-mode training samples are prepared
    with."""

    def __init__(self, examples: list[Example]):
        super().__init__()
        self._tagger = PerceptronTagger()
        self._tagger.train(
            [(e.question, _value_spans(e)) for e in examples if e.values],
            epochs=3,
        )

    def extract(self, question: str) -> list[ExtractedValue]:
        return merge_spans(
            extract_heuristic_values(question)
            + self._tagger.extract(question)
            + self._gazetteer.extract(question)
        )


def _value_spans(example: Example) -> list[tuple[int, int]]:
    """Character spans of the gold values found verbatim in the question."""
    spans = []
    for value in example.values:
        text = str(value)
        index = example.question.lower().find(text.lower())
        if index >= 0:
            spans.append((index, index + len(text)))
    return spans


def prepare_samples(
    examples: list[Example],
    preprocessors: dict[str, Preprocessor],
    model: ValueNetModel,
    *,
    mode: str = "valuenet",
) -> tuple[list[TrainSample], int]:
    """Pre-process and flatten gold trees into decoder targets.

    Args:
        examples: corpus examples.
        preprocessors: per-database preprocessors.
        model: the model (for its vocabulary-independent step derivation).
        mode: ``valuenet`` (full extraction pipeline) or ``light`` (gold
            values given as the option set, Section IV-A).

    Returns:
        (prepared samples, number dropped because a gold value was not in
        the candidate list).
    """
    if mode not in ("valuenet", "light"):
        raise ValueError(f"unknown mode {mode!r}")
    samples: list[TrainSample] = []
    dropped = 0
    for example in examples:
        preprocessor = preprocessors[example.db_id]
        if mode == "light":
            pre = preprocessor.run_light(example.question, example.values)
        else:
            pre = preprocessor.run(example.question)
        schema = preprocessor.schema
        steps = tree_to_steps(example.gold_semql, schema, pre.candidates)
        if steps is None:
            dropped += 1
            continue
        samples.append(TrainSample(example, pre, schema, steps))
    return samples, dropped


class Trainer:
    """Minibatch training loop with three-group Adam."""

    def __init__(
        self,
        model: ValueNetModel,
        config: TrainingConfig | None = None,
    ):
        self.model = model
        self.config = config or TrainingConfig()
        self.optimizer = model.build_optimizer(
            encoder_lr=self.config.encoder_lr,
            decoder_lr=self.config.decoder_lr,
            connection_lr=self.config.connection_lr,
            max_grad_norm=self.config.max_grad_norm,
        )

    def train(
        self,
        samples: list[TrainSample],
        *,
        epochs: int | None = None,
    ) -> TrainingHistory:
        """Run the training loop; returns per-epoch statistics."""
        history = TrainingHistory(num_prepared=len(samples))
        rng = random.Random(self.config.seed)
        order = list(range(len(samples)))
        epochs = self.config.epochs if epochs is None else epochs

        size = self.config.batch_size
        self.model.train()
        for epoch in range(epochs):
            rng.shuffle(order)
            start = time.perf_counter()
            total_loss = 0.0
            for batches, first in enumerate(range(0, len(order), size), start=1):
                batch = [samples[index] for index in order[first:first + size]]
                encodeds = self.model.encoder.encode_batch(
                    [self.model.featurize(s.pre, s.schema) for s in batch]
                )
                loss = self.model.decoder.loss_batch(encodeds, [s.steps for s in batch])
                loss.backward()
                self.optimizer.step()
                self.optimizer.zero_grad()
                total_loss += loss.item()
                done = first + len(batch)
                if self.config.log_every and batches % self.config.log_every == 0:
                    _LOG.info("epoch %d [%d/%d] loss %.3f",
                              epoch + 1, done, len(order), total_loss / done)
            history.epochs.append(
                EpochStats(
                    epoch=epoch + 1,
                    mean_loss=total_loss / max(len(order), 1),
                    num_samples=len(order),
                    seconds=time.perf_counter() - start,
                )
            )
        self.model.eval()
        return history


def train_valuenet(
    corpus: SpiderCorpus,
    mode: str,
    preprocessors: dict[str, Preprocessor],
    model_config: ModelConfig,
    training_config: TrainingConfig,
) -> tuple[ValueNetModel, TrainingHistory]:
    """Train a model on ``corpus.train``; nothing of the dev split is seen.

    The vocabulary comes from the training questions, values and
    ``corpus.train_domains``' schemas, so a dev database's words reach
    the model only as subword pieces.  In ``valuenet`` mode the samples
    are prepared over ``preprocessors``' indexes with the tagger added
    to their extraction (:class:`_TaggedExtractor`).
    ``history.num_dropped`` counts the examples :func:`prepare_samples`
    dropped.
    """
    vocab = build_vocabulary(
        [e.question for e in corpus.train],
        [corpus.schema(d) for d in corpus.train_domains],
        [str(v) for e in corpus.train for v in e.values],
        vocab_size=model_config.vocab_size,
    )
    model = ValueNetModel(vocab, model_config)
    if mode == "valuenet":
        extractor = _TaggedExtractor(corpus.train)
        preprocessors = {
            db_id: Preprocessor(
                preprocessors[db_id].database, extractor=extractor,
                index=preprocessors[db_id].index,
            )
            for db_id in corpus.train_domains
        }
    samples, dropped = prepare_samples(corpus.train, preprocessors, model, mode=mode)
    history = Trainer(model, training_config).train(samples)
    history.num_dropped = dropped
    return model, history
