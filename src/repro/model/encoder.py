"""The ValueNet encoder (paper Sections III-B1 and IV-B4).

A transformer runs over the flat featurized sequence (question ⊕ columns ⊕
tables ⊕ value candidates with their locations); each input piece embeds
its WordPiece id plus segment, hint and column-type features and a
sinusoidal position, read from one table that grows with the longest
sequence seen rather than cached once per length.  Item encodings are
then produced by summarizing each item's piece span with a BiLSTM (the
paper: "bi-directional LSTM networks to summarize multi-token
columns/tables/values").
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.config import ModelConfig
from repro.model.featurize import (
    EncoderInput,
    NUM_COLUMN_TYPES,
    NUM_HINTS,
    NUM_SEGMENTS,
)
from repro.nn.layers import Embedding, Module
from repro.nn.rnn import BiLSTMSummarizer
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.nn.transformer import TransformerEncoder, sinusoidal_positions


class EncodedExample:
    """Encoder output: per-item encodings ready for the decoder.

    Attributes:
        question: (n_tokens, dim) question-token encodings.
        columns: (n_columns, dim) column encodings ('*' first).
        tables: (n_tables, dim) table encodings.
        values: (n_candidates, dim) value-candidate encodings, or None
            when the candidate list is empty.
        summary: (dim,) [CLS] encoding used to initialize the decoder.
    """

    def __init__(
        self,
        question: Tensor,
        columns: Tensor,
        tables: Tensor,
        values: Tensor | None,
        summary: Tensor,
    ):
        self.question = question
        self.columns = columns
        self.tables = tables
        self.values = values
        self.summary = summary

    @property
    def num_values(self) -> int:
        return 0 if self.values is None else self.values.shape[0]


class ValueNetEncoder(Module):
    """Transformer encoder + BiLSTM span summarization."""

    def __init__(self, vocab_size: int, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        dim = config.dim
        self.config = config
        self.piece_embedding = Embedding(vocab_size, dim, rng)
        self.segment_embedding = Embedding(NUM_SEGMENTS, dim, rng)
        self.hint_embedding = Embedding(NUM_HINTS, dim, rng)
        self.type_embedding = Embedding(NUM_COLUMN_TYPES, dim, rng)
        self.transformer = TransformerEncoder(
            dim,
            config.num_layers,
            config.num_heads,
            config.ff_dim,
            rng,
            dropout_rate=config.dropout,
        )
        self.summarizer = BiLSTMSummarizer(dim, config.summary_hidden, dim, rng)
        # Schema hints are re-injected at the *output* of the encoder: the
        # pointer networks depend heavily on the linking features, and a
        # residual hint embedding keeps them undiluted by the transformer.
        self.output_column_hint = Embedding(16, dim, rng)  # column x table hints
        self.output_table_hint = Embedding(4, dim, rng)
        self.output_value_located = Embedding(2, dim, rng)
        self._position_table = np.empty((0, dim))
        self._word_dropout_rng = np.random.default_rng(config.seed + 1)

    def _positions(self, length: int) -> Tensor:
        """The first ``length`` rows of one scaled sinusoidal table, which
        doubles when a longer sequence arrives.  A row does not depend on
        the table's length, and a regrow only replaces the reference, so
        concurrent readers always slice a complete table."""
        table = self._position_table
        if len(table) < length:
            table = sinusoidal_positions(max(length, 2 * len(table)), self.config.dim)
            table *= 0.1
            self._position_table = table
        return Tensor(table[:length])

    def encode_batch(self, inputs: list[EncoderInput]) -> list[EncodedExample]:
        """Encode a micro-batch — the one forward, for training and serving.

        Sequences are right-padded to the batch maximum and each example
        attends over its own length only, so every real position sees
        exactly the keys it would alone; every item span of every example
        is then summarized in one packed BiLSTM pass.  A question's
        encoding is the same (to floating-point tolerance) whatever batch
        it is in.

        Word dropout applies when training with autograd on, one draw per
        example in input order; under ``inference_mode()`` — the serving
        path — the forward is deterministic.
        """
        if not inputs:
            return []
        batch = len(inputs)
        sizes = np.array([inp.length for inp in inputs])
        max_len = int(sizes.max())

        def padded(sequences: Iterable[list[int]]) -> np.ndarray:
            ids = np.zeros((batch, max_len), dtype=np.int64)
            for row, sequence in zip(ids, sequences):
                row[:len(sequence)] = sequence
            return ids

        piece = padded(inp.piece_ids for inp in inputs)
        if self.training and is_grad_enabled() and self.config.word_dropout > 0:
            # Word-level dropout: random pieces become [UNK] so the model
            # cannot rely purely on memorized surface forms — essential for
            # transfer to the unseen dev databases.
            unk = 1  # WordPieceVocab's fixed [UNK] id
            for i, n in enumerate(sizes):
                dropped = self._word_dropout_rng.random(n) < self.config.word_dropout
                piece[i, :n][dropped] = unk
        embedded = (
            self.piece_embedding(piece)
            + self.segment_embedding(padded(inp.segment_ids for inp in inputs))
            + self.hint_embedding(padded(inp.hint_ids for inp in inputs))
            + self.type_embedding(padded(inp.type_ids for inp in inputs))
            + self._positions(max_len)
        )
        contextual = self.transformer(embedded, lengths=sizes)

        # Every item span of every example, example-major and in the
        # order question, columns, tables, values — so each example's
        # items of one kind are consecutive rows of the summaries.
        kinds = [
            (inp.question_spans, inp.column_spans, inp.table_spans, inp.value_spans)
            for inp in inputs
        ]
        rows, starts, lengths = np.array([
            (i, span.start, span.end - span.start)
            for i, example in enumerate(kinds) for spans in example for span in spans
        ], dtype=np.int64).T
        summaries = self.summarizer.summarize_spans(contextual, rows, starts, lengths)

        out: list[EncodedExample] = []
        offset = 0
        for i, inp in enumerate(inputs):
            items: list[Tensor | None] = []
            for spans in kinds[i]:
                items.append(summaries[offset:offset + len(spans)] if spans else None)
                offset += len(spans)
            question, columns, tables, values = items
            if inp.column_hints:
                columns = columns + self.output_column_hint(inp.column_hints)
            if inp.table_hints:
                tables = tables + self.output_table_hint(inp.table_hints)
            if values is not None and inp.value_located:
                values = values + self.output_value_located(inp.value_located)
            out.append(EncodedExample(
                question, columns, tables, values, contextual[(i, 0)]
            ))
        return out
