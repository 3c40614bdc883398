"""The complete ValueNet neural model: encoder + decoder + vocabulary.

One :class:`ValueNetModel` serves both system variants — ValueNet and
ValueNet light differ only in *pre-processing* (where the candidate list
comes from), not in the neural architecture (paper Section IV-B5).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.config import ModelConfig
from repro.errors import ModelError, ReproError
from repro.model.beam import beam_decode
from repro.model.decoder import DecoderStep, ValueNetDecoder
from repro.model.encoder import EncodedExample, ValueNetEncoder
from repro.model.featurize import EncoderInput, SchemaFeatureCache, featurize
from repro.model.stepcache import StepCache
from repro.model.supervision import steps_to_tree
from repro.nn.layers import Module
from repro.nn.optim import Adam, ParamGroup
from repro.nn.serialization import load_module, save_module
from repro.nn.tensor import inference_mode
from repro.preprocessing.pipeline import PreprocessedQuestion
from repro.schema.model import Schema
from repro.semql.tree import SemQLNode
from repro.text.wordpiece import WordPieceVocab


class ValueNetModel(Module):
    """Encoder-decoder model over featurized questions."""

    def __init__(self, vocab: WordPieceVocab, config: ModelConfig | None = None):
        super().__init__()
        self.config = config or ModelConfig()
        self.vocab = vocab
        rng = np.random.default_rng(self.config.seed)
        self.encoder = ValueNetEncoder(len(vocab), self.config, rng)
        self.decoder = ValueNetDecoder(self.config, rng)
        # Schema token featurization is question-independent; cache it per
        # (schema, vocab) so serving featurizes each database once.
        self.schema_cache = SchemaFeatureCache()

    # ------------------------------------------------------------ forward

    def encode(self, pre: PreprocessedQuestion, schema: Schema) -> EncodedExample:
        return self.encoder.encode_batch([self.featurize(pre, schema)])[0]

    def featurize(self, pre: PreprocessedQuestion, schema: Schema) -> EncoderInput:
        return featurize(pre, schema, self.vocab, cache=self.schema_cache)

    def encode_batch(
        self, pres: list[PreprocessedQuestion], schema: Schema
    ) -> list[EncodedExample]:
        """Encode a micro-batch of questions over one schema at once.

        Runs under :func:`inference_mode` — one padded transformer
        forward for the whole batch, no autograd graph, no dropout.
        """
        with inference_mode():
            return self.encoder.encode_batch(
                [self.featurize(pre, schema) for pre in pres]
            )

    def _column_to_table(self, schema: Schema) -> list[int | None]:
        return [
            None if column.is_star() else schema.table_index(column.table)
            for column in schema.all_columns()
        ]

    def decode_batch(
        self,
        encodeds: list[EncodedExample],
        pres: list[PreprocessedQuestion],
        schema: Schema,
        *,
        beam_size: int = 1,
    ) -> list[SemQLNode | ReproError]:
        """Decode an encoded batch into one SemQL tree or one error each.

        Beam > 1 searches the whole batch in lockstep (one
        :func:`beam_decode` over a :class:`StepCache` of the batch);
        beam 1 decodes greedily, one question at a time on its own
        one-question cache.  A question that cannot be decoded gets its
        :class:`ReproError` in its slot and fails alone.
        """
        if not encodeds:
            return []
        column_to_table = self._column_to_table(schema)
        with inference_mode():
            if beam_size > 1:
                decoded = beam_decode(
                    self.decoder, encodeds, beam_size=beam_size,
                    column_to_table=column_to_table,
                    ops=StepCache(self.decoder, *encodeds),
                )
            else:
                decoded = [
                    self._greedy(encoded, column_to_table) for encoded in encodeds
                ]
        trees: list[SemQLNode | ReproError] = []
        for outcome, pre in zip(decoded, pres):
            if not isinstance(outcome, ReproError):
                try:
                    outcome = steps_to_tree(outcome, schema, pre.candidates)
                except ReproError as exc:
                    outcome = exc
            trees.append(outcome)
        return trees

    def _greedy(self, encoded, column_to_table) -> list[DecoderStep] | ReproError:
        try:
            return self.decoder.decode(
                encoded, column_to_table=column_to_table,
                ops=StepCache(self.decoder, encoded),
            )
        except ReproError as exc:
            return exc

    def predict(
        self, pre: PreprocessedQuestion, schema: Schema, *, beam_size: int = 1
    ) -> SemQLNode:
        """Grammar-constrained prediction of a SemQL tree.

        Args:
            pre: pre-processed question.
            schema: the database schema.
            beam_size: 1 decodes greedily (the paper's setting); larger
                values run beam search over the action space.

        Raises:
            ModelError: when decoding cannot complete (e.g. a value is
                required but no candidates exist).
        """
        [encoded] = self.encode_batch([pre], schema)
        [tree] = self.decode_batch([encoded], [pre], schema, beam_size=beam_size)
        if isinstance(tree, ReproError):
            raise tree
        return tree

    # ------------------------------------------------------ optimization

    def build_optimizer(
        self,
        *,
        encoder_lr: float,
        decoder_lr: float,
        connection_lr: float,
        max_grad_norm: float = 5.0,
    ) -> Adam:
        """Adam with the paper's three parameter groups (Section V-C)."""
        return Adam(
            [
                ParamGroup(self.encoder.parameters(), encoder_lr, "encoder"),
                ParamGroup(self.decoder.decoder_parameters(), decoder_lr, "decoder"),
                ParamGroup(
                    self.decoder.connection_parameters(), connection_lr, "connection"
                ),
            ],
            max_grad_norm=max_grad_norm,
        )

    # ------------------------------------------------------- persistence

    def save(self, directory: str | Path) -> None:
        """Write vocabulary + weights + config to ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.vocab.save(directory / "vocab.json")
        save_module(self, directory / "weights.npz")
        import json

        (directory / "config.json").write_text(
            json.dumps(self.config.__dict__, indent=1)
        )

    @classmethod
    def load(cls, directory: str | Path) -> "ValueNetModel":
        directory = Path(directory)
        if not (directory / "weights.npz").exists():
            raise ModelError(f"no checkpoint at {directory}")
        import json

        vocab = WordPieceVocab.load(directory / "vocab.json")
        config = ModelConfig(**json.loads((directory / "config.json").read_text()))
        model = cls(vocab, config)
        load_module(model, directory / "weights.npz")
        return model
