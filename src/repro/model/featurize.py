"""Featurization: pre-processed questions -> encoder input sequences.

Following the paper's Fig. 8, the encoder consumes one flat sequence:

    [CLS] question pieces [SEP]
          column pieces (one group per column) ...
          table pieces (one group per table) ...
          [SEP] value pieces + location pieces [SEP] ...  (per candidate)

Every piece carries, besides its WordPiece id, a *segment* id (question /
column / table / value), a *hint* id (the question hint of its token or
the schema hint of its item — the paper's prior-knowledge features), and
for column pieces the column's logical type.  Span boundaries of each item
are recorded so the encoder can summarize them back into one vector per
question token / column / table / candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.candidates.types import ValueCandidate
from repro.concurrency import make_lock
from repro.preprocessing.hints import QuestionHint, SchemaHint
from repro.preprocessing.pipeline import PreprocessedQuestion
from repro.schema.model import ColumnType, Schema
from repro.text.tokenizer import split_identifier
from repro.text.wordpiece import WordPieceVocab

# Segment ids
SEG_QUESTION = 0
SEG_COLUMN = 1
SEG_TABLE = 2
SEG_VALUE = 3
NUM_SEGMENTS = 4

# Hint vocabulary: question hints occupy 0..5, schema hints 6..9, and a
# neutral id for separators.
NUM_QUESTION_HINTS = len(QuestionHint)
NUM_SCHEMA_HINTS = len(SchemaHint)
HINT_NEUTRAL = NUM_QUESTION_HINTS + NUM_SCHEMA_HINTS
NUM_HINTS = HINT_NEUTRAL + 1

NUM_COLUMN_TYPES = len(ColumnType) + 1  # +1 for "not a column"
_COLUMN_TYPE_IDS = {t: i + 1 for i, t in enumerate(ColumnType)}


@dataclass(frozen=True)
class ItemSpan:
    """Half-open piece-index range of one item in the flat sequence."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty span [{self.start}, {self.end})")


@dataclass
class EncoderInput:
    """The flat featurized sequence plus per-item span bookkeeping."""

    piece_ids: list[int] = field(default_factory=list)
    segment_ids: list[int] = field(default_factory=list)
    hint_ids: list[int] = field(default_factory=list)
    type_ids: list[int] = field(default_factory=list)
    question_spans: list[ItemSpan] = field(default_factory=list)
    column_spans: list[ItemSpan] = field(default_factory=list)
    table_spans: list[ItemSpan] = field(default_factory=list)
    value_spans: list[ItemSpan] = field(default_factory=list)
    # Per-item schema hints (SchemaHint values), re-injected at the encoder
    # output so the pointer networks see the linking feature undiluted.
    column_hints: list[int] = field(default_factory=list)
    table_hints: list[int] = field(default_factory=list)
    # Per-candidate flag: 1 when validation located the candidate in some
    # column (located candidates are far likelier to be real values).
    value_located: list[int] = field(default_factory=list)

    @property
    def length(self) -> int:
        return len(self.piece_ids)

    def _append(self, piece: int, segment: int, hint: int, type_id: int = 0) -> None:
        self.piece_ids.append(piece)
        self.segment_ids.append(segment)
        self.hint_ids.append(hint)
        self.type_ids.append(type_id)


def _schema_hint_id(hint: SchemaHint) -> int:
    return NUM_QUESTION_HINTS + hint.value


def _question_hint_id(hint: QuestionHint) -> int:
    return hint.value


@dataclass(frozen=True)
class SchemaFeatures:
    """WordPiece encodings of one schema's tokens, computed once.

    The piece ids of a column/table name depend only on the schema and the
    vocabulary — never on the question — so re-encoding them per request
    wastes the bulk of featurization time on schema-heavy databases.  Hint
    ids *do* depend on the question and stay per-request.

    The ``schema``/``vocab`` references pin the keyed objects alive so an
    ``id()``-based cache key can never alias a collected object.
    """

    schema: Schema
    vocab: WordPieceVocab
    column_pieces: tuple[tuple[int, ...], ...]  # aligned with all_columns()
    column_type_ids: tuple[int, ...]
    table_pieces: tuple[tuple[int, ...], ...]  # aligned with schema.tables

    @staticmethod
    def build(schema: Schema, vocab: WordPieceVocab) -> "SchemaFeatures":
        column_pieces = []
        column_type_ids = []
        for column in schema.all_columns():
            words = column.words or ["all"]
            column_pieces.append(tuple(
                piece for word in words for piece in vocab.encode_word(word)
            ))
            column_type_ids.append(
                0 if column.is_star() else _COLUMN_TYPE_IDS[column.column_type]
            )
        table_pieces = tuple(
            tuple(piece for word in table.words for piece in vocab.encode_word(word))
            for table in schema.tables
        )
        return SchemaFeatures(
            schema=schema,
            vocab=vocab,
            column_pieces=tuple(column_pieces),
            column_type_ids=tuple(column_type_ids),
            table_pieces=table_pieces,
        )


class SchemaFeatureCache:
    """Thread-safe per-(schema, vocab) cache of :class:`SchemaFeatures`."""

    def __init__(self) -> None:
        self._entries: dict[tuple[int, int], SchemaFeatures] = {}  # guarded by: _lock
        self._lock = make_lock("SchemaFeatureCache._lock")

    def get(self, schema: Schema, vocab: WordPieceVocab) -> SchemaFeatures:
        key = (id(schema), id(vocab))
        with self._lock:
            entry = self._entries.get(key)
        if entry is not None and entry.schema is schema and entry.vocab is vocab:
            return entry
        entry = SchemaFeatures.build(schema, vocab)
        with self._lock:
            self._entries[key] = entry
        return entry

    def discard(self, schema: Schema) -> None:
        """Drop every entry built for ``schema`` (a retired schema object)."""
        with self._lock:
            for key in [k for k, e in self._entries.items() if e.schema is schema]:
                del self._entries[key]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def candidate_words(candidate: ValueCandidate) -> list[str]:
    """The words encoding a candidate: its value plus its first location.

    The location (table and column words) is the paper's key addition: the
    model attends not only to the value but to *where* it lives
    (Section IV-B4).
    """
    words = str(candidate.value).split() or [str(candidate.value)]
    if candidate.locations:
        location = candidate.locations[0]
        words = words + split_identifier(location.table) + split_identifier(location.column)
    return words


def featurize(
    pre: PreprocessedQuestion,
    schema: Schema,
    vocab: WordPieceVocab,
    *,
    cache: SchemaFeatureCache | None = None,
) -> EncoderInput:
    """Build the flat encoder input for one pre-processed question.

    When ``cache`` is given, the WordPiece encoding of schema tokens is
    taken from it (featurized once per database) instead of re-encoding
    every column/table name per request.
    """
    features = cache.get(schema, vocab) if cache is not None else None
    out = EncoderInput()
    out._append(vocab.cls_id, SEG_QUESTION, HINT_NEUTRAL)

    # Question tokens, one span per token.
    for hinted in pre.hinted_tokens:
        hint = _question_hint_id(hinted.hint)
        start = out.length
        for piece in vocab.encode_word(hinted.token.text):
            out._append(piece, SEG_QUESTION, hint)
        out.question_spans.append(ItemSpan(start, out.length))
    out._append(vocab.sep_id, SEG_QUESTION, HINT_NEUTRAL)

    # Columns, aligned with schema.all_columns() ('*' first).  The
    # re-injected column feature combines the column's own hint with its
    # owning table's hint (16 combinations): a partially-matched column of
    # an exactly-mentioned table ("name" in "names of cities" for
    # city.city_name) outranks the same partial match under an unmentioned
    # table (country.country_name).
    table_hint_by_name = {
        table.name.lower(): hint.value
        for table, hint in zip(schema.tables, pre.schema_hints.table_hints)
    }
    for index, (column, hint) in enumerate(
        zip(schema.all_columns(), pre.schema_hints.column_hints)
    ):
        owner_hint = (
            0 if column.is_star()
            else table_hint_by_name.get(column.table.lower(), 0)
        )
        out.column_hints.append(hint.value * 4 + owner_hint)
        hint_id = _schema_hint_id(hint)
        if features is not None:
            pieces = features.column_pieces[index]
            type_id = features.column_type_ids[index]
        else:
            type_id = 0 if column.is_star() else _COLUMN_TYPE_IDS[column.column_type]
            words = column.words or ["all"]
            pieces = [
                piece for word in words for piece in vocab.encode_word(word)
            ]
        start = out.length
        for piece in pieces:
            out._append(piece, SEG_COLUMN, hint_id, type_id)
        out.column_spans.append(ItemSpan(start, out.length))

    # Tables, aligned with schema.tables.
    for index, (table, hint) in enumerate(
        zip(schema.tables, pre.schema_hints.table_hints)
    ):
        out.table_hints.append(hint.value)
        hint_id = _schema_hint_id(hint)
        if features is not None:
            pieces = features.table_pieces[index]
        else:
            pieces = [
                piece for word in table.words for piece in vocab.encode_word(word)
            ]
        start = out.length
        for piece in pieces:
            out._append(piece, SEG_TABLE, hint_id)
        out.table_spans.append(ItemSpan(start, out.length))

    # Value candidates, each bracketed by separators (Fig. 8).
    for candidate in pre.candidates:
        out.value_located.append(1 if candidate.locations else 0)
        out._append(vocab.sep_id, SEG_VALUE, HINT_NEUTRAL)
        start = out.length
        for word in candidate_words(candidate):
            for piece in vocab.encode_word(word):
                out._append(piece, SEG_VALUE, HINT_NEUTRAL)
        out.value_spans.append(ItemSpan(start, out.length))
    if pre.candidates:
        out._append(vocab.sep_id, SEG_VALUE, HINT_NEUTRAL)
    return out


def build_vocabulary(
    questions: list[str],
    schemas: list[Schema],
    value_words: list[str],
    *,
    vocab_size: int = 2500,
) -> WordPieceVocab:
    """Train the WordPiece vocabulary over corpus text + schema identifiers.

    The paper reuses BERT's pre-trained vocabulary; offline we train our
    own.  Callers pass the training split only: its questions, the
    schemas of its databases and its gold values.  A dev question or dev
    schema passed here leaks the unseen databases' words into the
    vocabulary; they must reach the model only as subword pieces.
    :func:`repro.model.train_valuenet` is the recipe that does this.
    """
    from repro.text.tokenizer import tokenize_words

    corpus: list[str] = []
    for question in questions:
        corpus.extend(tokenize_words(question))
    for schema in schemas:
        for table in schema.tables:
            corpus.extend(table.words)
            for column in table.columns:
                corpus.extend(column.words)
    for word in value_words:
        corpus.extend(str(word).split())
    return WordPieceVocab.train(corpus, vocab_size=vocab_size)
