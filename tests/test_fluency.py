import pytest
from pytest import approx

from speechscore.corpus import Words
from speechscore.fluency import (EmptyResponse, fluency_features,
                                 mean_absolute_deviation)

from conftest import make_response, make_word, silence_profile


def timeline(spans, texts=None):
    texts = texts or [f"w{i}" for i in range(len(spans))]
    return make_response([make_word(t, a, b) for t, (a, b) in zip(texts, spans)])


class TestSilenceProfile:
    def test_hand_timeline(self, resources):
        r = timeline([(0.0, 0.5), (0.7, 1.2), (1.8, 2.3)])
        p = silence_profile(r)
        assert [d for _, d in p.gaps] == approx([0.2, 0.6])
        assert [d for _, d in p.silences] == approx([0.2, 0.6])
        assert [d for _, d in p.long_silences] == approx([0.6])
        assert p.response_time == approx(2.3)
        assert p.articulation_time == approx(1.5)
        # the features read the same profile
        f = fluency_features(r, resources, set())
        assert f["mean_silence"] == approx(0.4)
        assert f["longpfreq"] == approx(1 / 3)
        assert f["speaking_rate"] == approx(3 / p.response_time)
        assert f["articulation_rate"] == approx(3 / p.articulation_time)

    def test_single_word(self):
        p = silence_profile(timeline([(1.0, 2.0)]))
        assert p.gaps == []
        assert p.response_time == approx(1.0)
        assert p.articulation_time == approx(1.0)

    def test_threshold_is_strict(self, resources):
        # build a gap that computes to exactly the float 0.145: the first
        # word ends on 2**-10 so the subtraction is exact
        end1 = 2.0 ** -10
        r = timeline([(0.0, end1), (end1 + 0.145, 2.0)])
        p = silence_profile(r)
        assert p.gaps[0][1] == 0.145
        assert p.silences == []
        assert fluency_features(r, resources, set())["general_silence"] == 0.0

    def test_leading_trailing_ignored(self):
        # words start late and the profile only sees inter-word gaps
        p = silence_profile(timeline([(5.0, 5.5), (5.6, 6.0)]))
        assert len(p.gaps) == 1
        assert p.response_time == approx(1.0)

    def test_empty_response(self, resources):
        r = timeline([(0.0, 0.4)])
        r.words = Words.from_rows([])
        with pytest.raises(EmptyResponse):
            silence_profile(r)
        with pytest.raises(EmptyResponse):
            fluency_features(r, resources, set())


def test_mean_absolute_deviation():
    assert mean_absolute_deviation([0.2, 0.6, 0.4]) == approx(0.4 / 3)


class TestFluencyFeatures:
    def test_silence_statistics(self, resources):
        spans, t = [], 0.0
        gaps = [0.2, 0.6, 0.4]
        for gap in [0.0] + gaps:
            t += gap
            spans.append((t, t + 0.5))
            t += 0.5
        f = fluency_features(timeline(spans), resources, set())
        assert f["general_silence"] == 3
        assert f["mean_silence"] == approx(0.4)
        assert f["silence_absolute_deviation"] == approx((0.2 + 0.2 + 0.0) / 3)

    def test_direct_ratios(self, resources):
        # 100 words, exactly 12 silences, rescaled to an 80 s response:
        # SilenceRate1 = 12/100 and SilenceRate2 = 12/80
        spans, t = [], 0.0
        for i in range(100):
            if i:
                t += 0.3 if i <= 12 else 0.08
            spans.append((t, t + 0.4))
            t = spans[-1][1]
        scale = 80.0 / spans[-1][1]
        spans = [(a * scale, b * scale) for a, b in spans]
        f = fluency_features(timeline(spans), resources, set())
        assert f["general_silence"] == 12
        assert f["SilenceRate1"] == approx(0.12)
        assert f["SilenceRate2"] == approx(0.15)

    def test_speaking_rate(self, resources):
        # 120 words over exactly 60 s
        spans = [(i * 0.5, i * 0.5 + 0.4) for i in range(120)]
        spans[-1] = (spans[-1][0], 60.0)
        f = fluency_features(timeline(spans), resources, set())
        assert f["speaking_rate"] == approx(120 / 60.0)

    def test_filled_pause_rate(self, resources):
        r = timeline([(0.0, 0.4), (0.5, 0.9), (1.0, 1.4), (1.5, 2.0)],
                     texts=["um", "the", "uh", "cat"])
        f = fluency_features(r, resources, set())
        assert f["filled_pause_rate"] == approx(2 / 2.0)
        # fillers excluded from the word-count denominators
        assert f["speaking_rate"] == approx(2 / 2.0)

    def test_degenerate_short(self, resources):
        flags = set()
        r = timeline([(0.0, 0.4), (0.6, 1.0)], texts=["uh", "cat"])
        f = fluency_features(r, resources, flags)
        assert "fluency_degenerate" in flags
        assert f["general_silence"] == 0.0
        assert f["SilenceRate1"] == 0.0

    def test_articulation_vs_speaking(self, resources):
        r = timeline([(0.0, 0.5), (0.8, 1.2), (1.4, 2.0)])
        f = fluency_features(r, resources, set())
        assert f["articulation_rate"] >= f["speaking_rate"]
        dense = timeline([(0.0, 0.5), (0.5, 1.0)])
        g = fluency_features(dense, resources, set())
        assert g["articulation_rate"] == approx(g["speaking_rate"])

    def test_dilation_property(self, resources):
        spans = [(0.0, 0.5), (0.7, 1.2), (1.8, 2.3), (3.0, 3.5)]
        c = 2.0
        f1 = fluency_features(timeline(spans), resources, set())
        f2 = fluency_features(timeline([(a * c, b * c) for a, b in spans]),
                              resources, set())
        for rate in ("speaking_rate", "articulation_rate", "SilenceRate2"):
            assert f2[rate] == approx(f1[rate] / c)
        for count in ("general_silence", "SilenceRate1", "longpfreq"):
            assert f2[count] == approx(f1[count])

    def test_punctuation_pseudo_words_ignored(self, resources):
        r = make_response([make_word("cat", 0.0, 0.5),
                           make_word(".", 0.55, 0.56),
                           make_word("runs", 0.9, 1.4)])
        p = silence_profile(r)
        assert len(p.gaps) == 1
        assert p.gaps[0][1] == approx(0.4)
        f = fluency_features(r, resources, set())
        assert f["speaking_rate"] == approx(2 / 1.4)
