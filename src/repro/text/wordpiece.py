"""Trainable WordPiece-style subword vocabulary.

Paper Section IV-B4: "Each value token is further tokenized in word pieces
using the WordPiece segmentation algorithm.  The input for the encoder is
then a list of pre-trained embeddings, one for each word piece."

Since pre-trained BERT vocabularies are unavailable offline, this module
*trains* a subword vocabulary from a corpus using BPE-style merges and then
encodes unseen text with the standard greedy longest-match-first WordPiece
algorithm.  Continuation pieces carry the usual ``##`` prefix.  The encoder
never fails: any character outside the vocabulary falls back to ``[UNK]``.

Special tokens (ids are stable across training runs):

====== ====
token   id
====== ====
[PAD]    0
[UNK]    1
[CLS]    2
[SEP]    3
[NUM]    4
====== ====
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable
from pathlib import Path

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
NUM_TOKEN = "[NUM]"

SPECIAL_TOKENS = [PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN, NUM_TOKEN]


class WordPieceVocab:
    """A subword vocabulary with greedy longest-match encoding.

    Use :meth:`train` to build one from a corpus, or construct directly
    from a list of pieces (e.g. loaded from disk).
    """

    def __init__(self, pieces: list[str]):
        for i, special in enumerate(SPECIAL_TOKENS):
            if i >= len(pieces) or pieces[i] != special:
                raise ValueError(
                    "vocabulary must start with the special tokens "
                    f"{SPECIAL_TOKENS}; got {pieces[:len(SPECIAL_TOKENS)]}"
                )
        self._pieces = list(pieces)
        self._piece_to_id = {piece: i for i, piece in enumerate(self._pieces)}
        if len(self._piece_to_id) != len(self._pieces):
            raise ValueError("vocabulary contains duplicate pieces")
        self._max_piece_len = max(
            (len(p.removeprefix("##")) for p in self._pieces), default=1
        )

    # ------------------------------------------------------------------ API

    def __len__(self) -> int:
        return len(self._pieces)

    def __contains__(self, piece: str) -> bool:
        return piece in self._piece_to_id

    @property
    def pad_id(self) -> int:
        return self._piece_to_id[PAD_TOKEN]

    @property
    def unk_id(self) -> int:
        return self._piece_to_id[UNK_TOKEN]

    @property
    def cls_id(self) -> int:
        return self._piece_to_id[CLS_TOKEN]

    @property
    def sep_id(self) -> int:
        return self._piece_to_id[SEP_TOKEN]

    @property
    def num_id(self) -> int:
        return self._piece_to_id[NUM_TOKEN]

    def piece_id(self, piece: str) -> int:
        """Id of ``piece``, or the ``[UNK]`` id when unknown."""
        return self._piece_to_id.get(piece, self.unk_id)

    def id_to_piece(self, piece_id: int) -> str:
        return self._pieces[piece_id]

    def encode_word(self, word: str) -> list[int]:
        """Encode one word into piece ids with greedy longest-match.

        Numbers are mapped to the single ``[NUM]`` piece so the model
        generalizes over unseen literals; the surface form is preserved
        elsewhere (pointer networks copy values, they are never generated
        from the vocabulary).
        """
        word = word.lower()
        if not word:
            return [self.unk_id]
        if word.replace(".", "", 1).isdigit():
            return [self.num_id]

        ids: list[int] = []
        position = 0
        while position < len(word):
            end = min(len(word), position + self._max_piece_len)
            match_id: int | None = None
            while end > position:
                piece = word[position:end]
                if position > 0:
                    piece = "##" + piece
                found = self._piece_to_id.get(piece)
                if found is not None:
                    match_id = found
                    break
                end -= 1
            if match_id is None:
                # Unknown character: emit [UNK] and move on one character so
                # the rest of the word is still segmented.
                ids.append(self.unk_id)
                position += 1
            else:
                ids.append(match_id)
                position = end
        return ids

    # ----------------------------------------------------------- train/save

    @classmethod
    def train(
        cls,
        corpus: Iterable[str],
        *,
        vocab_size: int = 2048,
        min_frequency: int = 2,
    ) -> "WordPieceVocab":
        """Train a subword vocabulary with BPE-style merges.

        Args:
            corpus: iterable of raw words (pre-tokenized; case-insensitive).
            vocab_size: target total vocabulary size (including special
                tokens and single characters).
            min_frequency: merges below this corpus frequency stop training.
        """
        word_counts: Counter[str] = Counter(
            word.lower() for word in corpus if word and word.isalpha()
        )

        # Represent each word as a tuple of pieces; start from characters.
        splits: dict[str, list[str]] = {}
        for word in word_counts:
            pieces = [word[0]] + ["##" + ch for ch in word[1:]]
            splits[word] = pieces

        alphabet = sorted({p for pieces in splits.values() for p in pieces})
        vocab = list(SPECIAL_TOKENS) + alphabet

        def pair_counts() -> Counter[tuple[str, str]]:
            counts: Counter[tuple[str, str]] = Counter()
            for word, pieces in splits.items():
                frequency = word_counts[word]
                for left, right in zip(pieces, pieces[1:]):
                    counts[(left, right)] += frequency
            return counts

        while len(vocab) < vocab_size:
            counts = pair_counts()
            if not counts:
                break
            (left, right), best_count = counts.most_common(1)[0]
            if best_count < min_frequency:
                break
            merged = left + right.removeprefix("##")
            vocab.append(merged)
            for word, pieces in splits.items():
                if len(pieces) < 2:
                    continue
                updated: list[str] = []
                i = 0
                while i < len(pieces):
                    if (
                        i + 1 < len(pieces)
                        and pieces[i] == left
                        and pieces[i + 1] == right
                    ):
                        updated.append(merged)
                        i += 2
                    else:
                        updated.append(pieces[i])
                        i += 1
                splits[word] = updated

        return cls(vocab)

    def save(self, path: str | Path) -> None:
        """Write the vocabulary to a JSON file."""
        Path(path).write_text(json.dumps(self._pieces, indent=0))

    @classmethod
    def load(cls, path: str | Path) -> "WordPieceVocab":
        """Load a vocabulary previously written by :meth:`save`."""
        return cls(json.loads(Path(path).read_text()))
