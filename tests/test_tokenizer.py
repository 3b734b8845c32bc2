"""Unit and property tests for the deterministic word-piece tokenizer."""

import pytest
from hypothesis import given, strategies as st

from repro.tokenizer import WordPieceTokenizer, default_tokenizer


@pytest.fixture(scope="module")
def tok():
    return WordPieceTokenizer()


class TestBasics:
    def test_empty_string(self, tok):
        assert tok.tokenize("") == []
        assert tok.count("") == 0

    def test_whitespace_only(self, tok):
        assert tok.count("   \t\n") == 0

    def test_simple_sentence(self, tok):
        pieces = tok.tokenize("What is the voltage across RL?")
        assert pieces[0] == "what"
        assert "?" in pieces

    def test_punctuation_separate_tokens(self, tok):
        assert tok.count("a,b") == 3

    def test_numbers_tokenize(self, tok):
        pieces = tok.tokenize("R1 = 4700")
        assert "=" in pieces

    def test_case_insensitive(self, tok):
        assert tok.count("VOLTAGE") == tok.count("voltage")

    def test_known_word_single_token(self, tok):
        assert tok.tokenize("voltage") == ["voltage"]

    def test_unknown_word_multiple_pieces(self, tok):
        pieces = tok.tokenize("xylophonist")
        assert len(pieces) > 1
        assert all(p.startswith("##") for p in pieces[1:])

    def test_deterministic(self, tok):
        text = "Compute the Elmore delay of the RC ladder shown."
        assert tok.tokenize(text) == tok.tokenize(text)

    def test_extra_vocab(self):
        custom = WordPieceTokenizer(extra_vocab=["zzyzx"])
        assert custom.tokenize("zzyzx") == ["zzyzx"]

    def test_default_tokenizer_is_shared(self):
        assert default_tokenizer() is default_tokenizer()


class TestWordMemoization:
    def test_memoized_output_unchanged(self):
        """The per-word cache must not change tokenization: a warmed
        tokenizer agrees with a fresh one on every prompt word."""
        corpus = [
            "What is the voltage across RL?",
            "Compute the Elmore delay of the RC ladder shown.",
            "What is the voltage across RL?",  # repeats hit the cache
            "xylophonist xylophonist 4700 kohm",
        ]
        warmed = WordPieceTokenizer()
        for text in corpus:
            warmed.tokenize(text)  # warm the word cache
        for text in corpus:
            assert warmed.tokenize(text) == \
                WordPieceTokenizer().tokenize(text)

    def test_repeated_words_populate_cache_once(self):
        tok = WordPieceTokenizer()
        tok.tokenize("clock clock clock signal")
        assert len(tok._word_cache) == 2  # 'clock' and 'signal'

    def test_cache_is_bounded(self):
        tok = WordPieceTokenizer()
        tok.word_cache_limit = 8
        for i in range(100):
            tok.tokenize(f"word{i}")
        assert len(tok._word_cache) <= 8
        # eviction never changes results
        assert tok.tokenize("word0") == WordPieceTokenizer().tokenize("word0")


class TestDetokenize:
    def test_round_trip_words(self, tok):
        text = "the clock signal"
        assert tok.detokenize(tok.tokenize(text)) == text

    def test_continuations_rejoin(self, tok):
        pieces = tok.tokenize("xylophonist")
        assert tok.detokenize(pieces) == "xylophonist"


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
               max_size=200))
def test_every_ascii_string_tokenizes(text):
    tok = default_tokenizer()
    pieces = tok.tokenize(text)
    assert isinstance(pieces, list)
    # token count is bounded by character count (no token is empty)
    assert len(pieces) <= len(text)


@given(st.lists(st.sampled_from(
    ["voltage", "clock", "the", "delay", "cache", "etch"]),
    min_size=1, max_size=20))
def test_word_sequences_round_trip(words):
    tok = default_tokenizer()
    text = " ".join(words)
    assert tok.detokenize(tok.tokenize(text)) == text


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz ", max_size=50),
       st.text(alphabet="abcdefghijklmnopqrstuvwxyz ", max_size=50))
def test_count_is_additive_over_concatenation_bound(left, right):
    # No word spans a space, so splitting a text at one leaves every word,
    # and so the count, whole.
    tok = default_tokenizer()
    assert tok.count(left + " " + right) == tok.count(left) + tok.count(right)


def test_count_is_not_additive_inside_a_word():
    # Greedy longest-match has no bound when the split falls mid-word:
    # "model" exists only as a word-initial piece, so "aaaamodel" is
    # a ##a ##a ##a ##m ##o ##de ##l.
    tok = default_tokenizer()
    assert tok.count("aaaamodel") == 8
    assert (tok.count("aaaa"), tok.count("model")) == (4, 1)
