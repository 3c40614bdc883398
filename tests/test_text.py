"""Unit and property tests for repro.text."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import (
    Token,
    WordPieceVocab,
    all_ngrams,
    damerau_levenshtein,
    ngrams,
    normalize_whitespace,
    split_identifier,
    stem,
    tokenize,
    tokenize_words,
)

WORDS = st.text(alphabet="abcdefgh", min_size=0, max_size=12)


class TestTokenizer:
    def test_basic_words_and_punct(self):
        assert tokenize_words("How many pets?") == ["How", "many", "pets", "?"]

    def test_numbers_with_decimals(self):
        tokens = tokenize("weight over 12.5 kg")
        assert [t.text for t in tokens] == ["weight", "over", "12.5", "kg"]
        assert tokens[2].is_number()

    def test_spans_cover_original_text(self):
        text = "Show all flights from 'JFK' in 2010."
        for token in tokenize(text):
            assert text[token.start:token.end] == token.text

    def test_apostrophes_stay_inside_words(self):
        assert "Kennedy's" in tokenize_words("Kennedy's airport")

    def test_capitalized_detection(self):
        token = tokenize("Paris")[0]
        assert token.is_capitalized()
        assert not tokenize("paris")[0].is_capitalized()

    def test_empty_string(self):
        assert tokenize("") == []

    def test_split_identifier_snake(self):
        assert split_identifier("home_country") == ["home", "country"]

    def test_split_identifier_camel(self):
        assert split_identifier("homeCountry") == ["home", "country"]

    def test_split_identifier_mixed(self):
        assert split_identifier("has-Pet_idX") == ["has", "pet", "id", "x"]

    def test_normalize_whitespace(self):
        assert normalize_whitespace("  a \t b\nc ") == "a b c"

    def test_token_is_word(self):
        assert Token("hello", 0, 5).is_word()
        assert not Token("42", 0, 2).is_word()


class TestStemmer:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("pets", "pet"),
            ("owned", "own"),
            ("flies", "fli"),
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("hopping", "hop"),
            ("relational", "relat"),
            ("rational", "ration"),
            ("happiness", "happi"),
        ],
    )
    def test_known_stems(self, word, expected):
        assert stem(word) == expected

    def test_short_words_unchanged(self):
        assert stem("is") == "is"
        assert stem("a") == "a"

    def test_lowercases(self):
        assert stem("Pets") == "pet"

    def test_non_alpha_passthrough(self):
        assert stem("12.5") == "12.5"

    @given(WORDS)
    def test_idempotent_on_own_output_length(self, word):
        # The stem never grows.
        assert len(stem(word)) <= max(len(word), 2)

    def test_matching_intuition(self):
        # The hint computation relies on plural/singular collapsing.
        assert stem("students") == stem("student")
        assert stem("countries") == stem("country")


class TestDistances:
    def test_damerau_transposition(self):
        assert damerau_levenshtein("ca", "ac") == 1

    def test_damerau_known(self):
        assert damerau_levenshtein("jfk", "jkf") == 1
        assert damerau_levenshtein("france", "frnace") == 1

    def test_damerau_early_exit_length_gap(self):
        assert damerau_levenshtein("a", "aaaaaa", max_distance=2) > 2

    @given(WORDS, WORDS)
    @settings(max_examples=150)
    def test_damerau_symmetry(self, a, b):
        assert damerau_levenshtein(a, b) == damerau_levenshtein(b, a)

    @given(WORDS, WORDS)
    @settings(max_examples=150)
    def test_damerau_identity(self, a, b):
        distance = damerau_levenshtein(a, b)
        assert (distance == 0) == (a == b)

    @given(WORDS, WORDS, WORDS)
    @settings(max_examples=80)
    def test_damerau_triangle_inequality(self, a, b, c):
        # Restricted DL violates the triangle inequality only in contrived
        # cases involving repeated transpositions across edits; for our
        # small alphabet strings it should hold with slack 1.
        ab = damerau_levenshtein(a, b)
        bc = damerau_levenshtein(b, c)
        ac = damerau_levenshtein(a, c)
        assert ac <= ab + bc + 1


class TestNgrams:
    def test_bigrams(self):
        assert list(ngrams(["a", "b", "c"], 2)) == [("a", "b"), ("b", "c")]

    def test_n_too_large(self):
        assert list(ngrams(["a"], 2)) == []

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            list(ngrams(["a"], 0))

    def test_all_ngrams_kennedy_example(self):
        # Paper Section IV-B2: "one trigram, two bigrams, three words".
        grams = all_ngrams(["Kennedy", "International", "Airport"])
        assert len(grams) == 6
        assert grams[0] == ("Kennedy", "International", "Airport")
        assert len([g for g in grams if len(g) == 2]) == 2
        assert len([g for g in grams if len(g) == 1]) == 3

    def test_all_ngrams_longest_first(self):
        lengths = [len(g) for g in all_ngrams(["a", "b", "c", "d"])]
        assert lengths == sorted(lengths, reverse=True)

    @given(st.lists(WORDS, min_size=1, max_size=6), st.integers(1, 6))
    def test_ngram_count(self, tokens, n):
        expected = max(0, len(tokens) - n + 1)
        assert len(list(ngrams(tokens, n))) == expected


class TestWordPiece:
    @pytest.fixture
    def vocab(self):
        corpus = (
            ["flight"] * 10 + ["flights"] * 5 + ["destination"] * 8
            + ["airport"] * 8 + ["kennedy"] * 4 + ["country"] * 6
            + ["home"] * 6 + ["france"] * 5
        )
        return WordPieceVocab.train(corpus, vocab_size=120)

    def test_special_token_ids(self, vocab):
        assert vocab.pad_id == 0
        assert vocab.unk_id == 1
        assert vocab.cls_id == 2
        assert vocab.sep_id == 3
        assert vocab.num_id == 4

    def test_known_word_roundtrips(self, vocab):
        ids = vocab.encode_word("flight")
        assert vocab.unk_id not in ids
        rebuilt = "".join(
            vocab.id_to_piece(i).removeprefix("##") for i in ids
        )
        assert rebuilt == "flight"

    def test_unseen_word_uses_pieces(self, vocab):
        ids = vocab.encode_word("francey")
        assert len(ids) >= 1

    def test_numbers_become_num_token(self, vocab):
        assert vocab.encode_word("2010") == [vocab.num_id]
        assert vocab.encode_word("12.5") == [vocab.num_id]

    def test_unknown_characters_fall_back_to_unk(self, vocab):
        ids = vocab.encode_word("zzzz")
        assert all(0 <= i < len(vocab) for i in ids)

    def test_save_load_roundtrip(self, vocab, tmp_path):
        path = tmp_path / "vocab.json"
        vocab.save(path)
        loaded = WordPieceVocab.load(path)
        assert len(loaded) == len(vocab)
        assert loaded.encode_word("destination") == vocab.encode_word("destination")

    @given(st.text(alphabet="abcdefghij", min_size=1, max_size=15))
    @settings(max_examples=60)
    def test_encode_never_fails(self, word):
        corpus = ["abc"] * 5 + ["def"] * 5
        vocab = WordPieceVocab.train(corpus, vocab_size=30)
        ids = vocab.encode_word(word)
        assert ids, "encode_word must always produce at least one piece"
        assert all(0 <= i < len(vocab) for i in ids)

    def test_rejects_bad_special_order(self):
        with pytest.raises(ValueError):
            WordPieceVocab(["[UNK]", "[PAD]"])
