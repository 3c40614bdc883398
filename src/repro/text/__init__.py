"""Text utilities: tokenization, stemming, string distances, n-grams,
and a trainable WordPiece-style subword vocabulary."""

from repro.text.distance import damerau_levenshtein
from repro.text.ngrams import all_ngrams, ngrams
from repro.text.stemmer import stem, stem_all
from repro.text.tokenizer import (
    Token,
    normalize_whitespace,
    split_identifier,
    tokenize,
    tokenize_words,
)
from repro.text.wordpiece import (
    CLS_TOKEN,
    NUM_TOKEN,
    PAD_TOKEN,
    SEP_TOKEN,
    SPECIAL_TOKENS,
    UNK_TOKEN,
    WordPieceVocab,
)

__all__ = [
    "CLS_TOKEN",
    "NUM_TOKEN",
    "PAD_TOKEN",
    "SEP_TOKEN",
    "SPECIAL_TOKENS",
    "Token",
    "UNK_TOKEN",
    "WordPieceVocab",
    "all_ngrams",
    "damerau_levenshtein",
    "ngrams",
    "normalize_whitespace",
    "split_identifier",
    "stem",
    "stem_all",
    "tokenize",
    "tokenize_words",
]
