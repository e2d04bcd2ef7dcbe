import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechscore.corpus import (CorpusError, FeatureMatrix, Grade,
                                fit_standardizer, load_corpus,
                                stratified_split)

from conftest import make_response, make_word


def _alignment_payload(rid, grade="A2", word_start=0.0):
    return {
        "response_id": rid, "prompt_id": "p1", "grade": grade,
        "words": [
            {"text": "the", "start": word_start, "end": word_start + 0.2,
             "phonemes": [
                 {"label": "DH", "class": "consonant", "start": word_start,
                  "end": word_start + 0.1},
                 {"label": "AH", "class": "vowel", "stress": 0,
                  "start": word_start + 0.1, "end": word_start + 0.2}]},
            {"text": "cat", "start": word_start + 0.3, "end": word_start + 0.7,
             "phonemes": []},
        ],
        "tokens": [{"token": "the", "pos": "DET", "stopword": True},
                   {"token": "cat", "pos": "NOUN"}],
    }


def _write_corpus(tmp_path, payloads):
    names = []
    for i, payload in enumerate(payloads):
        name = f"resp{i}.json"
        (tmp_path / name).write_text(json.dumps(payload))
        names.append(name)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(names) + "\n")
    return manifest


class TestLoadCorpus:
    def test_well_formed(self, tmp_path):
        manifest = _write_corpus(tmp_path, [_alignment_payload(f"r{i}")
                                            for i in range(3)])
        corpus = load_corpus(manifest)
        assert len(corpus.responses) == 3
        assert corpus.rejected == []
        assert corpus.responses[0].tokens[0].pos == "DET"

    def test_overlapping_words_rejected(self, tmp_path):
        bad = _alignment_payload("bad")
        bad["words"][1]["start"] = 0.1    # starts before word 1 ends
        manifest = _write_corpus(tmp_path, [_alignment_payload("ok"), bad])
        corpus = load_corpus(manifest)
        assert len(corpus.responses) == 1
        assert len(corpus.rejected) == 1
        assert "overlap" in corpus.rejected[0][1]

    def test_empty_manifest_warns(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("")
        with pytest.warns(UserWarning):
            corpus = load_corpus(manifest)
        assert corpus.responses == []

    def test_missing_file_fatal(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("nope.json\n")
        with pytest.raises(FileNotFoundError):
            load_corpus(manifest)

    def test_order_independent(self, tmp_path):
        payloads = [_alignment_payload(f"r{i}") for i in range(4)]
        m1 = _write_corpus(tmp_path, payloads)
        ids1 = [r.response_id for r in load_corpus(m1).responses]
        m1.write_text("\n".join(f"resp{i}.json" for i in (2, 0, 3, 1)) + "\n")
        ids2 = [r.response_id for r in load_corpus(m1).responses]
        assert ids1 == ids2

    def test_directory_input(self, tmp_path):
        _write_corpus(tmp_path, [_alignment_payload("r0")])
        corpus = load_corpus(tmp_path)
        assert len(corpus.responses) == 1


def _graded_corpus(counts):
    responses = []
    i = 0
    for label, n in counts.items():
        for _ in range(n):
            responses.append(make_response(
                [make_word("hi", 0.0, 0.5)], grade=label,
                response_id=f"r{i:04d}"))
            i += 1
    return responses


class TestStratifiedSplit:
    def test_allocation_by_hand(self):
        # 100 responses split 50/30/20 at 70:10:20 -> test gets 10/6/4
        responses = _graded_corpus({"A2": 50, "LB1": 30, "HB1": 20})
        split = stratified_split(responses, seed=3)
        by_grade = {r.response_id: r.grade.label for r in responses}
        test_counts = {}
        for rid in split.test:
            test_counts[by_grade[rid]] = test_counts.get(by_grade[rid], 0) + 1
        assert test_counts == {"A2": 10, "LB1": 6, "HB1": 4}
        assert len(split.train) == 70 and len(split.valid) == 10

    def test_deterministic(self):
        responses = _graded_corpus({"A2": 30, "LB1": 30})
        s1 = stratified_split(responses, seed=11)
        s2 = stratified_split(list(reversed(responses)), seed=11)
        assert s1.train == s2.train and s1.test == s2.test

    def test_small_grade_rejected(self):
        responses = _graded_corpus({"A2": 10, "LB1": 1})
        with pytest.raises(CorpusError, match="LB1"):
            stratified_split(responses, seed=0)

    @given(st.dictionaries(st.sampled_from(["A2", "LB1", "HB1", "LB2", "HB2"]),
                           st.integers(3, 40), min_size=1),
           st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_stratification_property(self, counts, seed):
        responses = _graded_corpus(counts)
        split = stratified_split(responses, seed=seed)
        total = len(responses)
        by_grade = {r.response_id: r.grade.label for r in responses}
        buckets = {"train": split.train, "valid": split.valid, "test": split.test}
        assert set.union(*buckets.values()) == {r.response_id for r in responses}
        for name, ids in buckets.items():
            if not ids:
                continue
            for label, n in counts.items():
                got = sum(1 for rid in ids if by_grade[rid] == label)
                assert abs(got / len(ids) - n / total) <= 1.0 / len(ids) + 1e-9


def _matrix(values, columns=None, groups=None):
    values = np.asarray(values, dtype=float)
    columns = columns or [f"c{i}" for i in range(values.shape[1])]
    return FeatureMatrix(response_ids=[f"r{i}" for i in range(values.shape[0])],
                         columns=columns,
                         groups=groups or ["FF"] * len(columns),
                         values=values)


class TestStandardizer:
    def test_hand_zscore(self):
        matrix = _matrix([[2.0], [4.0], [6.0]])
        std = fit_standardizer(matrix)
        out = std.transform(matrix)
        expected = [-1.224744871391589, 0.0, 1.224744871391589]
        assert np.allclose(out.values[:, 0], expected, atol=1e-12)

    def test_constant_column_passthrough(self):
        matrix = _matrix([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        std = fit_standardizer(matrix)
        out = std.transform(matrix)
        assert np.array_equal(out.values[:, 0], [5.0, 5.0, 5.0])
        assert std.zero_variance == ["c0"]

    def test_schema_mismatch(self):
        std = fit_standardizer(_matrix([[1.0], [2.0]]))
        wide = _matrix([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            std.transform(wide)

    def test_train_statistics(self):
        rng = np.random.default_rng(0)
        matrix = _matrix(rng.normal(3, 2, size=(40, 5)))
        out = fit_standardizer(matrix).transform(matrix)
        assert np.all(np.abs(out.values.mean(axis=0)) < 1e-9)
        assert np.allclose(out.values.std(axis=0), 1.0)

    @given(st.lists(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
                    min_size=2, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, rows):
        matrix = _matrix(rows)
        std = fit_standardizer(matrix)
        back = std.inverse_transform(std.transform(matrix))
        scale = np.maximum(1.0, np.abs(matrix.values).max(axis=0))
        assert np.all(np.abs(back.values - matrix.values) / scale < 1e-12)


def test_csv_round_trip(tmp_path):
    matrix = _matrix([[1.5, -2.25], [0.1, 3.0]], columns=["a", "b"],
                     groups=["FF", "GVF"])
    path = tmp_path / "m.csv"
    matrix.to_csv(path)
    back = FeatureMatrix.from_csv(path)
    assert back.columns == matrix.columns
    assert back.groups == matrix.groups
    assert np.array_equal(back.values, matrix.values)


def test_grade_ordinals():
    assert [Grade.from_label(l).ordinal for l in
            ("A2", "LB1", "HB1", "LB2", "HB2")] == [0, 1, 2, 3, 4]
