import math

import pytest
from pytest import approx
from hypothesis import given, settings
from hypothesis import strategies as st

from speechscore.content import (TfidfVocabulary, fit_vocabulary, tokenize,
                                 vectorize)
from speechscore.features import ExtractorConfig


def test_tokenize():
    assert tokenize("The cat, the CAT!") == ["the", "cat", "the", "cat"]
    assert tokenize("...") == []


class TestFitVocabulary:
    def test_hand_counts(self):
        vocab = fit_vocabulary(["a b", "b c"], ExtractorConfig(min_df=1))
        assert vocab.terms == ["a", "b", "c"]
        assert vocab.document_frequency["b"] == 2
        assert vocab.n_documents == 2

    def test_min_df(self):
        vocab = fit_vocabulary(["a b", "b c"], ExtractorConfig(min_df=2))
        assert vocab.terms == ["b"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_vocabulary(["", "   "], ExtractorConfig())

    def test_max_terms_by_df_then_lexicographic(self):
        docs = ["a b c", "a b d", "a e"]
        vocab = fit_vocabulary(docs, ExtractorConfig(min_df=1, max_terms=2))
        # df: a=3, b=2, rest 1 -> keep a, b
        assert vocab.terms == ["a", "b"]
        tied = fit_vocabulary(["x y", "y x", "z w"],
                              ExtractorConfig(min_df=1, max_terms=3))
        # x and y have df 2; w and z tie at 1, lexicographic keeps w
        assert tied.terms == ["w", "x", "y"]

    def test_smoothed_idf(self):
        vocab = fit_vocabulary(["a b", "b c"], ExtractorConfig(min_df=1))
        assert vocab.idf["b"] == approx(math.log(3 / 3) + 1)
        assert vocab.idf["a"] == approx(math.log(3 / 2) + 1)
        assert all(v > 0 for v in vocab.idf.values())

    def test_deterministic(self):
        docs = ["gamma beta alpha", "beta alpha", "alpha gamma"]
        v1 = fit_vocabulary(docs, ExtractorConfig(min_df=1))
        v2 = fit_vocabulary(list(docs), ExtractorConfig(min_df=1))
        assert v1.terms == v2.terms == sorted(v1.terms)


class TestVectorize:
    def test_single_term_normalizes_to_one(self):
        vocab = fit_vocabulary(["b b", "b"], ExtractorConfig(min_df=1))
        vec = vectorize(vocab, "b b", set())
        assert vec["tfidf:b"] == approx(1.0)

    def test_equal_idf_components(self):
        vocab = fit_vocabulary(["a b", "a b"], ExtractorConfig(min_df=1))
        vec = vectorize(vocab, "a b", set())
        assert vec["tfidf:a"] == approx(0.7071067811865475)
        assert vec["tfidf:b"] == approx(0.7071067811865475)

    def test_oov_zero_vector(self):
        vocab = fit_vocabulary(["a b"], ExtractorConfig(min_df=1))
        flags = set()
        vec = vectorize(vocab, "zzz qqq", flags)
        assert all(v == 0.0 for v in vec.values())
        assert "content_all_oov" in flags

    def test_fit_transform_separation(self):
        vocab = fit_vocabulary(["a b", "b c"], ExtractorConfig(min_df=1))
        df_before = dict(vocab.document_frequency)
        vectorize(vocab, "a totally new document with new words", set())
        assert vocab.document_frequency == df_before
        assert vocab.terms == ["a", "b", "c"]

    @given(st.lists(st.text(alphabet="abcxyz ", min_size=1, max_size=30),
                    min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_unit_norm_property(self, docs):
        try:
            vocab = fit_vocabulary(docs, ExtractorConfig(min_df=1))
        except ValueError:
            return
        for doc in docs:
            vec = vectorize(vocab, doc, set())
            norm = math.sqrt(sum(v * v for v in vec.values()))
            assert norm == approx(1.0, abs=1e-9) or norm == 0.0


def test_serialization_round_trip(tmp_path):
    # No term occurs in every document, so the document count cannot be
    # recovered from the largest document frequency.
    vocab = fit_vocabulary(["a b", "b c", "c d", "d"],
                           ExtractorConfig(min_df=1))
    assert vocab.n_documents == 4
    assert max(vocab.document_frequency.values()) == 2
    path = tmp_path / "vocab.tsv"
    vocab.save(path)
    assert TfidfVocabulary.load(path) == vocab


def test_load_requires_document_count_header(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("a\t1\t1.5\n", encoding="utf-8")
    with pytest.raises(ValueError):
        TfidfVocabulary.load(path)
