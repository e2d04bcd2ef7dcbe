import pytest
from pytest import approx

from speechscore.prosody import (IntervalSequence, NoNuclei, interval_features,
                                 interval_sequence, normalized_pvi,
                                 prosody_features, raw_pvi, stress_features,
                                 syllabify)

from conftest import make_response, make_word


class TestSyllabify:
    def test_single_syllable_cat(self):
        r = make_response([make_word("cat", 0.0, 0.3,
                                     [("K", "c", 0), ("AE", "v", 1), ("T", "c", 0)])])
        sylls = syllabify(r)
        assert len(sylls) == 1
        s = sylls[0]
        assert [p.label for p in s.onset] == ["K"]
        assert s.nucleus.label == "AE"
        assert [p.label for p in s.coda] == ["T"]
        assert s.stressed

    def test_onset_maximal_about(self):
        # AH0 B AW1 T: the B attaches to the second syllable's onset
        r = make_response([make_word("about", 0.0, 0.4,
                                     [("AH", "v", 0), ("B", "c", 0),
                                      ("AW", "v", 1), ("T", "c", 0)])])
        sylls = syllabify(r)
        assert len(sylls) == 2
        assert sylls[0].onset == () and sylls[0].coda == ()
        assert [p.label for p in sylls[1].onset] == ["B"]
        assert [p.label for p in sylls[1].coda] == ["T"]
        assert not sylls[0].stressed and sylls[1].stressed

    def test_no_nuclei(self):
        r = make_response([make_word("mm", 0.0, 0.2,
                                     [("M", "c", 0), ("M", "c", 0)])])
        with pytest.raises(NoNuclei):
            syllabify(r)

    def test_pause_breaks_syllable(self):
        # trailing consonant before a pause stays a coda instead of jumping
        # across the gap into the next word's onset
        r = make_response([
            make_word("at", 0.0, 0.2, [("AE", "v", 1), ("T", "c", 0)]),
            make_word("it", 0.5, 0.7, [("IH", "v", 0), ("T", "c", 0)])])
        sylls = syllabify(r)
        assert len(sylls) == 2
        assert [p.label for p in sylls[0].coda] == ["T"]
        assert sylls[1].onset == ()
        assert sylls[0].end == approx(0.2)

    def test_secondary_stress_switch(self):
        r = make_response([make_word("ab", 0.0, 0.2,
                                     [("AE", "v", 2), ("B", "c", 0)])])
        assert not syllabify(r)[0].stressed
        assert syllabify(r, include_secondary=True)[0].stressed


def _syllable_row(n, stressed_at, start_step=0.2):
    words = []
    for i in range(n):
        stress = 1 if i in stressed_at else 0
        words.append(make_word(f"w{i}", i * start_step, i * start_step + start_step,
                               [("AH", "v", stress)]))
    return syllabify(make_response(words))


class TestStressFeatures:
    def test_percentage(self):
        sylls = _syllable_row(10, {0, 2, 5, 7})
        f = stress_features(sylls)
        assert f["StressedSyllPercent"] == approx(40.0)

    def test_distances_by_hand(self):
        sylls = _syllable_row(10, {0, 2, 6})
        f = stress_features(sylls)
        assert f["StressDistanceSyllMean"] == approx(3.0)
        assert f["StressDistanceSyllSD"] == approx(1.0)
        # nucleus starts step by 0.2 s
        assert f["StressDistanceMean"] == approx(0.6)
        assert f["StressDistanceSD"] == approx(0.2)

    def test_single_stressed_degenerate(self):
        flags = set()
        f = stress_features(_syllable_row(5, {2}), flags)
        assert "prosody_too_few_stressed" in flags
        assert f["StressDistanceSyllMean"] == 0.0

    def test_empty_error(self):
        with pytest.raises(ValueError):
            stress_features([])


class TestIntervalFeatures:
    def test_pvi_by_hand(self):
        f = interval_features(IntervalSequence([100.0, 200.0], [], []), 300.0)
        assert f["vowelPVI"] == approx(100.0)
        assert f["vowelPVINorm"] == approx(100.0 * (100.0 / 150.0))

    def test_constant_durations(self):
        f = interval_features(IntervalSequence([150.0] * 3, [], []), 450.0)
        assert f["vowelPVI"] == 0.0
        assert f["vowelDurationSD"] == 0.0
        assert f["vowelSDNorm"] == 0.0

    def test_percentage(self):
        f = interval_features(IntervalSequence([400.0], [600.0], []), 1000.0)
        assert f["vowelPercentage"] == approx(40.0)
        assert f["consonantPercentage"] == approx(60.0)
        assert f["vowelPercentage"] + f["consonantPercentage"] == approx(100.0)

    def test_pvi_needs_two(self):
        flags = set()
        f = interval_features(IntervalSequence([100.0], [], []), 100.0, flags)
        assert f["vowelPVI"] == 0.0
        assert "prosody_single_vowel_interval" in flags

    def test_non_positive_duration_rejected(self):
        with pytest.raises(ValueError):
            interval_features(IntervalSequence([0.0, 10.0], [], []), 10.0)

    def test_dilation(self):
        base = [100.0, 180.0, 140.0, 220.0]
        f1 = interval_features(IntervalSequence(list(base), [], []), sum(base))
        c = 3.0
        f2 = interval_features(IntervalSequence([d * c for d in base], [], []),
                               c * sum(base))
        assert f2["vowelPVINorm"] == approx(f1["vowelPVINorm"])
        assert f2["vowelPVI"] == approx(c * f1["vowelPVI"])
        assert f2["vowelPercentage"] == approx(f1["vowelPercentage"])

    def test_permutation_changes_pvi_not_sd(self):
        a = [100.0, 200.0, 100.0]
        b = [100.0, 100.0, 200.0]
        fa = interval_features(IntervalSequence(list(a), [], []), 400.0)
        fb = interval_features(IntervalSequence(list(b), [], []), 400.0)
        assert fa["vowelDurationSD"] == approx(fb["vowelDurationSD"])
        assert fa["vowelPVI"] != fb["vowelPVI"]

    def test_raw_and_normalized_pvi_formulas(self):
        assert raw_pvi([100.0, 200.0, 150.0]) == approx((100 + 50) / 2)
        assert normalized_pvi([100.0, 200.0]) == approx(200.0 / 3)


class TestIntervalSequence:
    def test_runs_and_phonation(self):
        # K AE T | pause | S IY -> consonant runs {K T S merged? no: T then
        # pause then S are separate}, vowel runs {AE}, {IY}
        r = make_response([
            make_word("cat", 0.0, 0.3,
                      [("K", "c", 0), ("AE", "v", 1), ("T", "c", 0)]),
            make_word("see", 0.6, 0.8, [("S", "c", 0), ("IY", "v", 1)])])
        seq, total = interval_sequence(r)
        assert seq.vocalic == approx([100.0, 100.0])
        assert seq.consonantal == approx([100.0, 100.0, 100.0])
        assert total == approx(500.0)

    def test_adjacent_same_class_merge(self):
        r = make_response([make_word("xx", 0.0, 0.4,
                                     [("S", "c", 0), ("T", "c", 0),
                                      ("AH", "v", 1), ("N", "c", 0)])])
        seq, _ = interval_sequence(r)
        assert seq.consonantal == approx([200.0, 100.0])


def test_prosody_features_full():
    r = make_response([
        make_word("cat", 0.0, 0.3, [("K", "c", 0), ("AE", "v", 1), ("T", "c", 0)]),
        make_word("about", 0.5, 0.9,
                  [("AH", "v", 0), ("B", "c", 0), ("AW", "v", 1), ("T", "c", 0)])])
    f = prosody_features(r)
    assert len(f) == 19
    assert f["StressedSyllPercent"] == approx(100.0 * 2 / 3)


@pytest.mark.parametrize("include_secondary", [False, True])
def test_prosody_features_compose_public_steps(include_secondary):
    r = make_response([
        make_word("cat", 0.0, 0.3, [("K", "c", 0), ("AE", "v", 2), ("T", "c", 0)]),
        make_word("about", 0.5, 0.9,
                  [("AH", "v", 0), ("B", "c", 0), ("AW", "v", 1), ("T", "c", 0)]),
        make_word("it", 0.9, 1.1, [("IH", "v", 2), ("T", "c", 0)])])
    flags, expected_flags = set(), set()
    expected = stress_features(syllabify(r, include_secondary), expected_flags)
    expected.update(interval_features(*interval_sequence(r, include_secondary),
                                      expected_flags))
    assert prosody_features(r, include_secondary, flags) == expected
    assert flags == expected_flags
