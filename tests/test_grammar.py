import pytest
from pytest import approx

from speechscore.features import ExtractorConfig
from speechscore.grammar import (UNIT_FEATURES, UnitCounts,
                                 count_and_complexity_features,
                                 grammar_features, heuristic_syntax,
                                 lexical_features, syntactic_features,
                                 unit_counts_from_spans, word_tokens)

from conftest import make_response, make_tokens, make_word, tok

CONFIG = ExtractorConfig()


def _parts(tokens):
    """The Tokens of a token list and their word tokens."""
    made = make_tokens(tokens)
    return made, word_tokens(made)


def _words(tokens):
    return _parts(tokens)[1]


class TestLexicalFeatures:
    def test_ttr_ndw_by_hand(self, resources):
        tokens = [tok("the", "DET", stop=True), tok("cat", "NOUN"),
                  tok("saw", "VERB"), tok("the", "DET", stop=True),
                  tok("cat", "NOUN")]
        f = lexical_features(_words(tokens), resources, CONFIG, set())
        assert f["ttr"] == approx(3 / 5)
        assert f["ndw"] == 3

    def test_common_verbs_not_sophisticated(self, resources):
        tokens = [tok("run", "VERB"), tok("run", "VERB")]
        f = lexical_features(_words(tokens), resources, CONFIG, set())
        assert f["vs1"] == 0.0
        assert f["vs2"] == 0.0

    def test_sophisticated_verb(self, resources):
        # "barks" has rank 4000 > 2000 -> sophisticated
        tokens = [tok("barks", "VERB"), tok("run", "VERB")]
        f = lexical_features(_words(tokens), resources, CONFIG, set())
        assert f["vs1"] == approx(1 / 2)
        assert f["vs2"] == approx(1 / 2)

    def test_unknown_word_is_sophisticated(self, resources):
        tokens = [tok("xylophonic", "ADJ"), tok("cat", "NOUN")]
        f = lexical_features(_words(tokens), resources, CONFIG, set())
        assert f["ls1"] == approx(1 / 2)

    def test_ld_density_vs_diversity(self, resources):
        tokens = [tok("cat", "NOUN"), tok("cat", "NOUN"),
                  tok("the", "DET", stop=True), tok("run", "VERB")]
        dens = lexical_features(_words(tokens), resources,
                                ExtractorConfig(ld_mode="density"), set())
        dive = lexical_features(_words(tokens), resources,
                                ExtractorConfig(ld_mode="diversity"), set())
        assert dens["ld"] == approx(3 / 4)
        assert dive["ld"] == approx(2 / 4)

    def test_short_response_fallback(self, resources):
        flags = set()
        tokens = [tok(f"w{i}", "NOUN") for i in range(10)]
        f = lexical_features(_words(tokens), resources, CONFIG, flags)
        assert "grammar_short_response" in flags
        assert f["ndwz"] == f["ndwerz"] == f["ndwesz"] == 10

    def test_fifty_token_windows(self, resources):
        tokens = [tok(f"w{i % 60}", "NOUN") for i in range(80)]
        f = lexical_features(_words(tokens), resources,
                             ExtractorConfig(seed=3), set())
        assert f["ndwz"] == len({f"w{i % 60}" for i in range(50)})
        assert 1 <= f["ndwerz"] <= 50
        assert 1 <= f["ndwesz"] <= 50
        again = lexical_features(_words(tokens), resources,
                                 ExtractorConfig(seed=3), set())
        assert again["ndwerz"] == f["ndwerz"] and again["ndwesz"] == f["ndwesz"]

    def test_all_distinct_fifty(self, resources):
        tokens = [tok(f"word{i}", "NOUN") for i in range(50)]
        f = lexical_features(_words(tokens), resources, CONFIG, set())
        assert f["ndwz"] == 50 and f["ttr"] == 1.0

    def test_empty_rejected(self, resources):
        with pytest.raises(ValueError):
            lexical_features(_words([]), resources, CONFIG, set())

    def test_no_verbs_flagged(self, resources):
        flags = set()
        lexical_features(_words([tok("cat", "NOUN")]), resources, CONFIG, flags)
        assert "grammar_no_verbs" in flags


class TestSyntacticFeatures:
    def test_mls(self):
        f = syntactic_features(UnitCounts(W=100, S=5, T=5, C=5), set())
        assert f["MLS"] == approx(20.0)

    def test_hand_ratios(self):
        f = syntactic_features(UnitCounts(W=80, S=6, C=12, T=8, DC=4, VP=10,
                                          CT=3, CP=2, CN=5), set())
        assert f["C/T"] == approx(1.5)
        assert f["DC/C"] == approx(4 / 12)
        assert f["DC/T"] == approx(0.5)
        assert f["T/S"] == approx(8 / 6)

    def test_zero_denominator_flagged(self):
        flags = set()
        f = syntactic_features(UnitCounts(W=10, S=1, C=0, T=0), flags)
        assert f["MLT"] == 0.0 and f["C/T"] == 0.0
        assert any(x.startswith("grammar_zero_denominator") for x in flags)

    def test_emits_all_thirteen(self):
        f = syntactic_features(UnitCounts(W=10, S=1, C=1, T=1), set())
        assert len(f) == 13


class TestCountComplexity:
    def test_hand_sum(self, resources):
        tokens = [tok("cat", "NOUN"), tok("run", "VERB")]
        f = count_and_complexity_features(*_parts(tokens), resources, set())
        assert f["total_text_complexity_mAvg"] == approx(5.0)
        assert f["average_word_complexity_mAvg"] == approx(2.5)
        assert f["total_text_complexity_no_sw_mAvg"] == approx(5.0)

    def test_identical_lexicons_symmetry(self, resources):
        tokens = [tok("cat", "NOUN"), tok("cat", "NOUN")]
        f = count_and_complexity_features(*_parts(tokens), resources, set())
        # cat has the same avg and mode score
        assert f["total_text_complexity_mAvg"] == f["total_text_complexity_mMod"]

    def test_stopword_variants(self, resources):
        tokens = [tok("the", "DET", stop=True), tok("dog", "NOUN")]
        f = count_and_complexity_features(*_parts(tokens), resources, set())
        assert f["total_text_complexity_no_sw_mAvg"] == approx(2.5)
        assert f["total_text_complexity_no_sw_mMod"] == approx(3.0)

    def test_all_stopwords_flagged(self, resources):
        flags = set()
        tokens = [tok("the", "DET", stop=True), tok("a", "DET", stop=True)]
        f = count_and_complexity_features(*_parts(tokens), resources, flags)
        assert f["total_text_complexity_no_sw_mAvg"] == 0.0
        assert "grammar_all_stopwords" in flags

    def test_pos_totals(self, resources):
        tokens = [tok("big", "ADJ"), tok("cat", "NOUN"), tok("ran", "VERB"),
                  tok("fast", "ADV"), tok("it", "PRON"), tok("and", "CONJ"),
                  tok("the", "DET"), tok("big", "ADJ")]
        f = count_and_complexity_features(*_parts(tokens), resources, set())
        assert f["total_adjectives"] == 2
        assert f["total_nouns"] == 1
        assert f["total_pronoun"] == 1

    def test_average_syllables(self, resources):
        tokens = [tok("the", "DET", stop=True, syl=1), tok("tiger", "NOUN", syl=2),
                  tok("elephant", "NOUN", syl=3)]
        f = count_and_complexity_features(*_parts(tokens), resources, set())
        assert f["average_syllables_in_words"] == approx(2.5)


def _sentence(words_pos):
    return [tok(w, p) for w, p in words_pos]


class TestHeuristicSyntax:
    def test_two_sentences(self):
        tokens = _sentence([("the", "DET"), ("dog", "NOUN"), ("barks", "VERB"),
                            (".", "PUNCT"), ("the", "DET"), ("cat", "NOUN"),
                            ("runs", "VERB"), (".", "PUNCT")])
        u = heuristic_syntax(*_parts(tokens))
        assert (u.S, u.C, u.T) == (2, 2, 2)
        assert u.W == 6

    def test_clause_initial_conjunction(self):
        tokens = _sentence([("she", "PRON"), ("runs", "VERB"), ("and", "CONJ"),
                            ("he", "PRON"), ("walks", "VERB")])
        u = heuristic_syntax(*_parts(tokens))
        assert u.T == 2
        assert u.CP >= 0

    def test_noun_coordination_is_not_clause(self):
        tokens = _sentence([("cats", "NOUN"), ("and", "CONJ"), ("dogs", "NOUN"),
                            ("run", "VERB")])
        u = heuristic_syntax(*_parts(tokens))
        assert u.T == 1
        assert u.CP == 1      # NOUN and NOUN

    def test_no_verbs(self):
        tokens = _sentence([("the", "DET"), ("cat", "NOUN")])
        u = heuristic_syntax(*_parts(tokens))
        assert u.C == 0 and u.VP == 0
        f = syntactic_features(u, set())
        assert f["MLC"] == 0.0

    def test_dependent_clause(self):
        tokens = _sentence([("she", "PRON"), ("left", "VERB"),
                            ("because", "CONJ"), ("he", "PRON"),
                            ("slept", "VERB")])
        u = heuristic_syntax(*_parts(tokens))
        assert u.DC == 1
        assert u.CT == 1
        assert u.DC <= u.C

    def test_aux_chain_counts_once(self):
        tokens = _sentence([("she", "PRON"), ("has", "AUX"), ("been", "AUX"),
                            ("running", "VERB")])
        u = heuristic_syntax(*_parts(tokens))
        assert u.C == 1 and u.VP == 1

    def test_complex_nominal(self):
        tokens = _sentence([("big", "ADJ"), ("cat", "NOUN"), ("of", "PREP"),
                            ("town", "NOUN")])
        u = heuristic_syntax(*_parts(tokens))
        assert u.CN == 1      # cat: ADJ before (the PREP after also matches once)

    def test_empty(self):
        assert heuristic_syntax(*_parts([])).W == 0


def test_grammar_features_full(resources):
    words = [make_word(w, i * 0.5, i * 0.5 + 0.4)
             for i, w in enumerate(["the", "cat", "saw", "the", "dog", "."])]
    tokens = _sentence([("the", "DET"), ("cat", "NOUN"), ("saw", "VERB"),
                        ("the", "DET"), ("dog", "NOUN"), (".", "PUNCT")])
    r = make_response(words, tokens)
    f = grammar_features(r, resources, CONFIG, set())
    assert len(f) == 47
    assert f["W"] == 5
    assert f["ttr"] == approx(4 / 5)


def test_annotated_spans_take_precedence(resources):
    from speechscore.corpus import SyntaxSpans
    words = [make_word(w, i * 0.5, i * 0.5 + 0.4)
             for i, w in enumerate(["cats", "run"])]
    tokens = _sentence([("cats", "NOUN"), ("run", "VERB")])
    spans = SyntaxSpans(sentences=[(0, 2)], t_units=[(0, 2)], clauses=[(0, 2)],
                        verb_phrases=[(0, 2), (1, 2)])
    r = make_response(words, tokens, syntax=spans)
    f = grammar_features(r, resources, CONFIG, set())
    assert f["VP"] == 2      # annotated count, not the heuristic's 1


def test_grammar_features_match_its_parts():
    """`grammar_features` selects the words once; its features and flags are
    those of the parts called on those words."""
    import dataclasses

    from speechscore.corpus import SyntaxSpans, default_resources
    from speechscore.synth import SynthSpec, synth_corpus

    resources = default_resources()
    responses, _ = synth_corpus(SynthSpec(n=50, seed=3), resources)
    spans = SyntaxSpans(sentences=[(0, 2)], t_units=[(0, 2)], clauses=[(0, 2)],
                        verb_phrases=[(0, 2), (1, 2)])
    for response in responses[:25] + [dataclasses.replace(r, syntax=spans)
                                      for r in responses[25:]]:
        flags, expected_flags = set(), set()
        config = ExtractorConfig(seed=5)
        got = grammar_features(response, resources, config, flags)
        words = word_tokens(response.tokens)
        want = lexical_features(words, resources, config, expected_flags)
        units = (heuristic_syntax(response.tokens, words)
                 if response.syntax is None
                 else unit_counts_from_spans(response, words))
        want.update(syntactic_features(units, expected_flags))
        want.update(count_and_complexity_features(response.tokens, words,
                                                  resources, expected_flags))
        want.update({name: float(getattr(units, name)) for name in UNIT_FEATURES})
        assert list(got) == list(want)
        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]
        assert flags == expected_flags
