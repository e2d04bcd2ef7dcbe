from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from speechscore.corpus import parse_response
from speechscore.prosody import (_GAP_EPS, IntervalSequence, NoNuclei,
                                 Syllables, _intervals, _syllables, _timeline,
                                 interval_features, normalized_pvi,
                                 prosody_features, raw_pvi, stress_features)

import record_oracle as old
from conftest import make_payload, make_response, make_word
from record_oracle import PhonemeClass, Stress

_NO_SYLLABLES = Syllables(*[np.zeros(0)] * 7)


def _timeline_columns(r):
    """Start, end, class and stress of the response's timeline phonemes."""
    kept, phones = _timeline(r), r.phones
    return (phones.start[kept], phones.end[kept], phones.klass[kept],
            phones.stress[kept])


def syllables_of(r, include_secondary=False):
    return _syllables(*_timeline_columns(r), r.response_id, include_secondary)


def syllabify(r, include_secondary=False):
    """Each syllable's onset, nucleus and coda labels, start, end and
    stress, read from the columns that `_syllables` gives."""
    s = syllables_of(r, include_secondary)
    labels = [r.phones.label[i] for i in _timeline(r)]
    return [SimpleNamespace(onset=labels[f:n], nucleus=labels[n],
                            coda=labels[n + 1:l + 1], start=a, end=b,
                            stressed=stressed)
            for f, n, l, a, b, stressed in zip(
                s.first.tolist(), s.nucleus.tolist(), s.last.tolist(),
                s.start.tolist(), s.end.tolist(), s.stressed.tolist())]


def interval_sequence(r, include_secondary=False):
    """The interval lists and total phonation time; a response without
    nuclei has no syllabic intervals."""
    start, end, klass, stress = _timeline_columns(r)
    try:
        syllables = _syllables(start, end, klass, stress, r.response_id,
                               include_secondary)
    except NoNuclei:
        syllables = _NO_SYLLABLES
    return _intervals(start, end, klass, syllables)


class TestSyllabify:
    def test_single_syllable_cat(self):
        r = make_response([make_word("cat", 0.0, 0.3,
                                     [("K", "c", 0), ("AE", "v", 1), ("T", "c", 0)])])
        sylls = syllabify(r)
        assert len(sylls) == 1
        s = sylls[0]
        assert s.onset == ["K"]
        assert s.nucleus == "AE"
        assert s.coda == ["T"]
        assert s.stressed

    def test_onset_maximal_about(self):
        # AH0 B AW1 T: the B attaches to the second syllable's onset
        r = make_response([make_word("about", 0.0, 0.4,
                                     [("AH", "v", 0), ("B", "c", 0),
                                      ("AW", "v", 1), ("T", "c", 0)])])
        sylls = syllabify(r)
        assert len(sylls) == 2
        assert sylls[0].onset == [] and sylls[0].coda == []
        assert sylls[1].onset == ["B"]
        assert sylls[1].coda == ["T"]
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
        assert sylls[0].coda == ["T"]
        assert sylls[1].onset == []
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
    return syllables_of(make_response(words))


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
            stress_features(_NO_SYLLABLES)


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
    expected = stress_features(syllables_of(r, include_secondary), expected_flags)
    expected.update(interval_features(*interval_sequence(r, include_secondary),
                                      expected_flags))
    assert prosody_features(r, include_secondary, flags) == expected
    assert flags == expected_flags


# Oracle: the per-phoneme timeline, stretch, syllable and interval passes as
# they were before they were fused and unrolled, over the object records of
# `record_oracle`. The package must reproduce their floats bit for bit.

def _oracle_timeline(response):
    out = []
    for word in response.words:
        for ph in word.phonemes:
            if ph.klass is PhonemeClass.SILENCE or ph.duration <= 0:
                continue
            out.append(ph)
    return out


def _oracle_stretches(phonemes):
    out = []
    prev_end = None
    for ph in phonemes:
        if prev_end is None or abs(ph.start - prev_end) > _GAP_EPS:
            out.append([])
        out[-1].append(ph)
        prev_end = ph.end
    return out


def _oracle_syllables(phonemes, response_id, include_secondary):
    if not any(p.klass is PhonemeClass.VOWEL for p in phonemes):
        raise NoNuclei(response_id)

    stressed_levels = {Stress.PRIMARY}
    if include_secondary:
        stressed_levels.add(Stress.SECONDARY)

    syllables = []
    for stretch in _oracle_stretches(phonemes):
        nuclei = [i for i, p in enumerate(stretch) if p.klass is PhonemeClass.VOWEL]
        onset_start = 0
        for k, nucleus_idx in enumerate(nuclei):
            coda_end = nucleus_idx + 1 if k + 1 < len(nuclei) else len(stretch)
            onset = tuple(stretch[onset_start:nucleus_idx])
            nucleus = stretch[nucleus_idx]
            coda = tuple(stretch[nucleus_idx + 1:coda_end])
            first = onset[0] if onset else nucleus
            last = coda[-1] if coda else nucleus
            syllables.append(old.Syllable(
                onset=onset, nucleus=nucleus, coda=coda,
                start=first.start, end=last.end,
                stressed=nucleus.stress in stressed_levels))
            onset_start = nucleus_idx + 1
    return syllables


def _oracle_intervals(phonemes, syllables):
    vocalic = []
    consonantal = []
    run_class = None
    run_ms = 0.0
    prev_end = None

    def close_run():
        if run_class is PhonemeClass.VOWEL and run_ms > 0:
            vocalic.append(run_ms)
        elif run_class is PhonemeClass.CONSONANT and run_ms > 0:
            consonantal.append(run_ms)

    for ph in phonemes:
        contiguous = prev_end is not None and abs(ph.start - prev_end) <= _GAP_EPS
        if ph.klass is not run_class or not contiguous:
            close_run()
            run_class = ph.klass
            run_ms = 0.0
        run_ms += ph.duration * 1000.0
        prev_end = ph.end
    close_run()

    syllabic = [(s.end - s.start) * 1000.0 for s in syllables]
    total_phonation_ms = sum(ph.duration for ph in phonemes) * 1000.0
    return IntervalSequence(vocalic, consonantal, syllabic), total_phonation_ms


def _oracle_prosody_features(response, include_secondary, flags):
    phonemes = _oracle_timeline(response)
    syllables = _oracle_syllables(phonemes, response.response_id, include_secondary)
    features = old.stress_features(syllables, flags)
    intervals, total_ms = _oracle_intervals(phonemes, syllables)
    features.update(old.interval_features(intervals, total_ms, flags))
    return features


def _oracle_view(s):
    return ([p.label for p in s.onset], s.nucleus.label,
            [p.label for p in s.coda], s.start.hex(), s.end.hex(), s.stressed)


def _view(s):
    return (s.onset, s.nucleus, s.coda, s.start.hex(), s.end.hex(), s.stressed)


# Pauses: none, one inside the contiguity tolerance, one just past it, and
# ordinary pauses between words.
_GAPS = st.sampled_from([0.0, 0.0, 0.5 * _GAP_EPS, 3 * _GAP_EPS]) | st.floats(0.0, 0.6)
_DURATIONS = st.sampled_from([0.0, 0.01, 0.1]) | st.floats(1e-4, 0.3)
_PHONE = st.tuples(st.sampled_from("vvccs"), st.integers(0, 2), _DURATIONS)
_WORD = st.tuples(_GAPS, st.lists(_PHONE, max_size=6), st.floats(0.01, 0.3))
_CLASS_NAMES = {"v": "vowel", "c": "consonant", "s": "silence"}


def _timeline_payload(words):
    """Words laid end to end after their gaps; each word spans its
    phonemes, stretched by ``pad`` when they leave it no duration."""
    built = []
    t = 0.0
    n = 0
    for i, (gap, phones, pad) in enumerate(words):
        start = t = t + gap
        phonemes = []
        for klass, stress, duration in phones:
            phonemes.append({"label": f"p{n}", "class": _CLASS_NAMES[klass],
                             "stress": stress, "start": t, "end": t + duration})
            t += duration
            n += 1
        if t <= start:
            t = start + pad
        built.append({"text": f"w{i}", "start": start, "end": t,
                      "phonemes": phonemes})
    return make_payload(built)


@given(st.lists(_WORD, min_size=1, max_size=12), st.booleans())
@settings(max_examples=400, deadline=None)
def test_fused_passes_match_oracle_bit_for_bit(words, include_secondary):
    payload = _timeline_payload(words)
    r, o = parse_response(payload), old.parse_response(payload)
    phonemes = _oracle_timeline(o)
    seq, total = interval_sequence(r, include_secondary)
    try:
        syllables = _oracle_syllables(phonemes, o.response_id, include_secondary)
    except NoNuclei:
        with pytest.raises(NoNuclei):
            syllabify(r, include_secondary)
        with pytest.raises(NoNuclei):
            prosody_features(r, include_secondary)
        expected_seq, expected_total = _oracle_intervals(phonemes, [])
    else:
        assert [_view(s) for s in syllabify(r, include_secondary)] == \
            [_oracle_view(s) for s in syllables]
        flags, expected_flags = set(), set()
        got = prosody_features(r, include_secondary, flags)
        expected = _oracle_prosody_features(o, include_secondary, expected_flags)
        assert {k: v.hex() for k, v in got.items()} == \
            {k: v.hex() for k, v in expected.items()}
        assert flags == expected_flags
        expected_seq, expected_total = _oracle_intervals(phonemes, syllables)
    for name in ("vocalic", "consonantal", "syllabic"):
        assert [v.hex() for v in getattr(seq, name)] == \
            [v.hex() for v in getattr(expected_seq, name)]
    assert total.hex() == expected_total.hex()


def test_syllables_are_parallel_columns():
    syllables = syllables_of(make_response([
        make_word("a", 0.0, 0.1, [("AH", "v", 1)]),
        make_word("it", 0.1, 0.3, [("IH", "v", 0), ("T", "c", 0)])]))
    assert {len(column) for column in vars(syllables).values()} == {2}
    assert syllables.stressed.tolist() == [True, False]
