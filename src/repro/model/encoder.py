"""The ValueNet encoder (paper Sections III-B1 and IV-B4).

A transformer runs over the flat featurized sequence (question ⊕ columns ⊕
tables ⊕ value candidates with their locations); each input piece embeds
its WordPiece id plus segment, hint and column-type features and a
sinusoidal position.  Item encodings are then produced by summarizing each
item's piece span with a BiLSTM (the paper: "bi-directional LSTM networks
to summarize multi-token columns/tables/values").
"""

from __future__ import annotations

import numpy as np

from repro.config import ModelConfig
from repro.model.featurize import (
    EncoderInput,
    ItemSpan,
    NUM_COLUMN_TYPES,
    NUM_HINTS,
    NUM_SEGMENTS,
)
from repro.nn.layers import Embedding, Module
from repro.nn.rnn import BiLSTMSummarizer
from repro.nn.tensor import Tensor, is_grad_enabled, stack
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
        self._position_cache: dict[int, np.ndarray] = {}
        self._word_dropout_rng = np.random.default_rng(config.seed + 1)

    def _positions(self, length: int) -> np.ndarray:
        cached = self._position_cache.get(length)
        if cached is None:
            cached = sinusoidal_positions(length, self.config.dim)
            self._position_cache[length] = cached
        return cached

    def __call__(self, encoder_input: EncoderInput) -> EncodedExample:
        piece_ids = encoder_input.piece_ids
        if self.training and is_grad_enabled() and self.config.word_dropout > 0:
            # Word-level dropout: random pieces become [UNK] so the model
            # cannot rely purely on memorized surface forms — essential for
            # transfer to the unseen dev databases.
            unk = 1  # WordPieceVocab's fixed [UNK] id
            keep = self._word_dropout_rng.random(len(piece_ids))
            piece_ids = [
                pid if keep[i] >= self.config.word_dropout else unk
                for i, pid in enumerate(piece_ids)
            ]
        pieces = self.piece_embedding(piece_ids)
        segments = self.segment_embedding(encoder_input.segment_ids)
        hints = self.hint_embedding(encoder_input.hint_ids)
        types = self.type_embedding(encoder_input.type_ids)
        positions = Tensor(self._positions(encoder_input.length) * 0.1)
        embedded = pieces + segments + hints + types + positions

        contextual = self.transformer(embedded)

        question = self._summarize_spans(contextual, encoder_input.question_spans)
        columns = self._summarize_spans(contextual, encoder_input.column_spans)
        tables = self._summarize_spans(contextual, encoder_input.table_spans)
        values = (
            self._summarize_spans(contextual, encoder_input.value_spans)
            if encoder_input.value_spans
            else None
        )
        if encoder_input.column_hints:
            columns = columns + self.output_column_hint(encoder_input.column_hints)
        if encoder_input.table_hints:
            tables = tables + self.output_table_hint(encoder_input.table_hints)
        if values is not None and encoder_input.value_located:
            values = values + self.output_value_located(encoder_input.value_located)
        summary = contextual[0]
        return EncodedExample(question, columns, tables, values, summary)

    def _summarize_spans(self, contextual: Tensor, spans: list[ItemSpan]) -> Tensor:
        summaries = [
            self.summarizer(contextual[span.start:span.end]) for span in spans
        ]
        return stack(summaries, axis=0)

    # ------------------------------------------------------- batched path

    def encode_batch(self, inputs: list[EncoderInput]) -> list[EncodedExample]:
        """Encode a micro-batch with one padded transformer forward.

        Sequences are right-padded to the batch maximum and the attention
        is masked over padding, so every real position sees exactly the
        keys it would unbatched; item spans are then summarized in fused
        equal-length groups across the whole batch.  The result matches
        per-example :meth:`__call__` outputs to floating-point tolerance.

        Inference-only: word dropout is not applied (run under
        ``inference_mode()`` — the serving path does).
        """
        if not inputs:
            return []
        if len(inputs) == 1:
            return [self(inputs[0])]

        batch = len(inputs)
        max_len = max(inp.length for inp in inputs)
        piece = np.zeros((batch, max_len), dtype=np.int64)
        segment = np.zeros((batch, max_len), dtype=np.int64)
        hint = np.zeros((batch, max_len), dtype=np.int64)
        type_ = np.zeros((batch, max_len), dtype=np.int64)
        mask = np.zeros((batch, max_len), dtype=bool)
        for i, inp in enumerate(inputs):
            n = inp.length
            piece[i, :n] = inp.piece_ids
            segment[i, :n] = inp.segment_ids
            hint[i, :n] = inp.hint_ids
            type_[i, :n] = inp.type_ids
            mask[i, :n] = True

        embedded = (
            self.piece_embedding(piece)
            + self.segment_embedding(segment)
            + self.hint_embedding(hint)
            + self.type_embedding(type_)
            + Tensor(self._positions(max_len) * 0.1)
        )
        contextual = self.transformer(embedded, mask=mask)

        # Summarize every item span of every example, grouped by span
        # length so each group is one fused pass through the BiLSTM.
        categories = ("question", "column", "table", "value")
        by_length: dict[int, list[tuple[int, str, int, int, int]]] = {}
        for i, inp in enumerate(inputs):
            for kind, spans in zip(categories, (
                inp.question_spans, inp.column_spans,
                inp.table_spans, inp.value_spans,
            )):
                for j, span in enumerate(spans):
                    by_length.setdefault(span.end - span.start, []).append(
                        (i, kind, j, span.start, span.end)
                    )
        summaries: dict[tuple[int, str, int], Tensor] = {}
        for group in by_length.values():
            rows = self.summarizer.summarize_spans(
                contextual, [(i, start, end) for i, _, _, start, end in group]
            )
            for row, (i, kind, j, _, _) in enumerate(group):
                summaries[(i, kind, j)] = rows[row]

        out: list[EncodedExample] = []
        for i, inp in enumerate(inputs):
            def gather(kind: str, count: int, example: int = i) -> Tensor | None:
                if count == 0:
                    return None
                return stack(
                    [summaries[(example, kind, j)] for j in range(count)], axis=0
                )

            question = gather("question", len(inp.question_spans))
            columns = gather("column", len(inp.column_spans))
            tables = gather("table", len(inp.table_spans))
            values = gather("value", len(inp.value_spans))
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
