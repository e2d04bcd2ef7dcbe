import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechscore.corpus import (CONSONANT, PRIMARY, AlignedResponse,
                                CorpusError, FeatureMatrix, Grade, Phones,
                                Words, fit_standardizer, load_corpus,
                                parse_response, stratified_split)

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


def _message(operation):
    """The error message of a failing operation, as this Python words it."""
    try:
        operation()
    except (TypeError, ValueError) as exc:
        return str(exc)
    raise AssertionError("operation did not fail")


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
        assert corpus.responses[0].tokens.pos[0] == "DET"

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

    def test_top_level_array_rejected(self, tmp_path):
        manifest = _write_corpus(tmp_path, [[_alignment_payload("r0")],
                                            _alignment_payload("r1")])
        corpus = load_corpus(manifest)
        assert [r.response_id for r in corpus.responses] == ["r1"]
        assert len(corpus.rejected) == 1
        assert corpus.rejected[0][0].endswith("resp0.json")
        assert "JSON object" in corpus.rejected[0][1]

    def test_word_given_as_string_rejected(self, tmp_path):
        bad = _alignment_payload("bad")
        bad["words"][1] = "cat"
        corpus = load_corpus(_write_corpus(tmp_path, [bad, _alignment_payload("ok")]))
        assert [r.response_id for r in corpus.responses] == ["ok"]
        assert corpus.rejected == [(str(tmp_path / "resp0.json"),
                                    "word 1 is not a JSON object")]

    @pytest.mark.parametrize("syllables", [None, 3])
    def test_numeric_token_stringified(self, tmp_path, syllables):
        payload = _alignment_payload("r0")
        payload["tokens"][1]["token"] = 5
        if syllables is not None:
            payload["tokens"][1]["syllables"] = syllables
        corpus = load_corpus(_write_corpus(tmp_path, [payload]))
        assert corpus.rejected == []
        tokens = corpus.responses[0].tokens
        # "5" has no vowel letter and no letter at all: zero syllables
        assert (tokens.token[1], tokens.syllables[1]) == ("5", syllables or 0)

    def test_infinite_count_rejected(self, tmp_path):
        bad = _alignment_payload("bad")
        bad["words"][0]["phonemes"][1]["stress"] = float("inf")
        corpus = load_corpus(_write_corpus(tmp_path, [bad]))
        assert corpus.responses == []
        assert [reason for _, reason in corpus.rejected] == [
            "cannot convert float infinity to integer"]

    def test_deeply_nested_file_rejected(self, tmp_path):
        manifest = _write_corpus(tmp_path, [_alignment_payload("ok")])
        (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
        manifest.write_text("deep.json\nresp0.json\n")
        corpus = load_corpus(manifest)
        assert [r.response_id for r in corpus.responses] == ["ok"]
        assert "maximum recursion depth" in corpus.rejected[0][1]

    @pytest.mark.parametrize("prompt_id, plain", [
        ("", False), (".", False), ("..", False), ("../p", False),
        ("/abs", False), ("a\\b", False), ("a\0b", False),
        ("p1", True), ("..p", True), ("p.1", True)])
    def test_prompt_id_must_be_one_plain_path_component(self, tmp_path,
                                                        prompt_id, plain):
        payload = _alignment_payload("r0")
        payload["prompt_id"] = prompt_id
        corpus = load_corpus(_write_corpus(tmp_path, [payload]))
        assert len(corpus.responses) == plain
        if not plain:
            assert corpus.rejected == [(
                str(tmp_path / "resp0.json"),
                f"prompt_id {prompt_id!r} is not one plain path component")]

    def test_existing_reject_reasons_unchanged(self, tmp_path):
        payloads = [_alignment_payload(f"r{i}") for i in range(4)]
        payloads[0]["words"][0]["phonemes"][0]["class"] = "glide"
        payloads[1]["words"][0]["phonemes"][0] = "DH"
        del payloads[2]["tokens"][0]["token"]
        payloads[3]["tokens"][0]["syllables"] = None
        corpus = load_corpus(_write_corpus(tmp_path, payloads))
        assert [reason for _, reason in corpus.rejected] == [
            "'glide' is not a valid PhonemeClass",
            _message(lambda: payloads[1]["words"][0]["phonemes"][0]["class"]),
            "'token'",
            _message(lambda: int(None))]


class TestRecords:
    def test_columns_are_read_only(self):
        r = parse_response(_alignment_payload("r0"))
        for columns in (r.words, r.phones, r.tokens):
            for name, value in vars(columns).items():
                if isinstance(value, np.ndarray):
                    assert not value.flags.writeable, name
                else:
                    assert isinstance(value, tuple), name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(columns, dataclasses.fields(columns)[0].name, ())
        with pytest.raises(ValueError, match="read-only"):
            r.phones.start[0] = 1.0

    @pytest.mark.parametrize("where, value, match", [
        (("words", 0, "phonemes", 1), {"label": "AH", "class": "vowel",
                                       "start": 0.2, "end": 0.1},
         "ends before it starts"),
        (("words", 1, "start"), 0.7, "non-positive duration"),
        (("tokens", 1, "pos"), "NOPE", "unknown POS tag"),
    ])
    def test_post_init_checks_kept(self, where, value, match):
        payload = _alignment_payload("r0")
        *path, key = where
        target = payload
        for step in path:
            target = target[step]
        target[key] = value
        with pytest.raises(CorpusError, match=match):
            parse_response(payload)

    def test_stressed_consonant_rejected_when_built(self):
        """A payload's stress digit is read for vowels only, so only columns
        built directly can stress a consonant."""
        payload = _alignment_payload("r0")
        payload["words"][0]["phonemes"][0]["stress"] = 1
        r = parse_response(payload)
        assert r.phones.stress.tolist() == [0, 0]
        phones = r.phones
        with pytest.raises(CorpusError, match="carries stress"):
            AlignedResponse("r0", "p1", r.words, Phones(
                [CONSONANT], [PRIMARY], ["T"], phones.start[:1],
                phones.end[:1], [0]), r.tokens)

    def test_built_columns_checked(self):
        r = parse_response(_alignment_payload("r0"))
        with pytest.raises(CorpusError, match="Words columns differ in length"):
            Words(("cat",), [0.0, 1.0], [0.5])
        for owners in ([0, 2], [-1, 0], [1, 0]):
            phones = dataclasses.replace(r.phones, word=owners)
            with pytest.raises(CorpusError, match="do not index their words"):
                AlignedResponse("r0", "p1", r.words, phones, r.tokens)


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

    @pytest.mark.parametrize("ratios", [
        (1.0, -1.0, 1.0), (math.nan, 1.0, 1.0), (0.0, 0.0, 0.0),
        (math.inf, 1.0, 1.0), (1.0, 0.0, 0.0), (-1.0, -1.0, -1.0),
        (0.5, 0.5)])
    def test_ratios_must_be_three_finite_positive_numbers(self, ratios):
        responses = _graded_corpus({"A2": 10, "LB1": 10})
        with pytest.raises(ValueError, match="three finite positive") as err:
            stratified_split(responses, ratios=ratios)
        assert repr(ratios) in str(err.value)

    def test_ratios_are_divided_by_their_sum(self):
        responses = _graded_corpus({"A2": 50, "LB1": 30, "HB1": 20})
        weights = stratified_split(responses, ratios=(7, 1, 2), seed=3)
        shares = stratified_split(responses, ratios=(0.7, 0.1, 0.2), seed=3)
        assert weights == shares and weights.ratios == (0.7, 0.1, 0.2)

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
    """The z-scoring that fit_linear and fit_logistic apply to their rows."""

    def test_hand_zscore(self):
        X = np.array([[2.0], [4.0], [6.0]])
        out = fit_standardizer(X).transform(X)
        expected = [-1.224744871391589, 0.0, 1.224744871391589]
        assert np.allclose(out[:, 0], expected, atol=1e-12)

    def test_constant_column_passthrough(self):
        X = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        std = fit_standardizer(X)
        out = std.transform(X)
        assert np.array_equal(out[:, 0], [5.0, 5.0, 5.0])
        assert list(std.std == 0) == [True, False]

    def test_train_statistics(self):
        rng = np.random.default_rng(0)
        X = rng.normal(3, 2, size=(40, 5))
        out = fit_standardizer(X).transform(X)
        assert np.all(np.abs(out.mean(axis=0)) < 1e-9)
        assert np.allclose(out.std(axis=0), 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_standardizer(np.zeros((0, 3)))


def test_csv_round_trip(tmp_path):
    matrix = _matrix([[1.5, -2.25], [0.1, 3.0]], columns=["a", "b"],
                     groups=["FF", "GVF"])
    path = tmp_path / "m.csv"
    matrix.to_csv(path)
    back = FeatureMatrix.from_csv(path)
    assert back.columns == matrix.columns
    assert back.groups == matrix.groups
    assert np.array_equal(back.values, matrix.values)


_CSV_FLOATS = (st.floats(allow_nan=False, allow_subnormal=True)
               | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                  math.inf, -math.inf, math.nan, 1e308, -1e308]))

# Ids with every character csv must quote, the line breaks str.splitlines
# splits at but csv does not, and a leading quote.
_CSV_IDS = st.text(st.sampled_from([",", '"', "\r", "\n", "\x85", "\u2028", " ",
                                    "r", "7", "\u00e9"])
                   | st.characters(exclude_categories=("Cs",)), max_size=6)
_CSV_IDS = _CSV_IDS | _CSV_IDS.map(lambda rid: '"' + rid)


def _reference_from_csv(path):
    """The two-pass reader kept as an oracle: csv.reader splits every field
    of every row for its id, then np.loadtxt reads the file again."""
    import csv
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        groups = next(reader)[1:]
        columns = next(reader)[1:]
        ids = [record[0] for record in reader]
    if ids and columns:
        values = np.loadtxt(path, dtype=np.float64, delimiter=",",
                            quotechar='"', comments=None, skiprows=2,
                            usecols=range(1, len(columns) + 1), ndmin=2,
                            encoding="utf-8")
    else:
        values = np.zeros((len(ids), len(columns)))
    return FeatureMatrix(response_ids=ids, columns=columns, groups=groups,
                         values=values)


def _read_both(path):
    """Both readers' results, or the exception type each raised."""
    outcomes = []
    for read in (FeatureMatrix.from_csv, _reference_from_csv):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                m = read(path)
            outcomes.append((m.response_ids, m.columns, m.groups,
                             m.values.shape, m.values.tobytes()))
        except Exception as exc:
            outcomes.append(type(exc))
    return outcomes


@given(st.integers(0, 4).flatmap(
    lambda p: st.lists(st.tuples(_CSV_IDS, st.lists(_CSV_FLOATS, min_size=p,
                                                    max_size=p)),
                       min_size=0, max_size=5).map(lambda rows: (p, rows))))
@settings(max_examples=300, deadline=None)
def test_csv_round_trip_is_bit_exact(tmp_path_factory, case):
    p, rows = case
    values = np.asarray([v for _, v in rows], dtype=np.float64).reshape(len(rows), p)
    matrix = FeatureMatrix(response_ids=[rid for rid, _ in rows],
                           columns=[f"c{j}" for j in range(p)],
                           groups=["FF"] * p, values=values)
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    matrix.to_csv(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = FeatureMatrix.from_csv(path)
    assert back.response_ids == matrix.response_ids
    assert back.columns == matrix.columns and back.groups == matrix.groups
    assert back.values.shape == (len(rows), p)
    assert back.values.tobytes() == values.tobytes()
    new, oracle = _read_both(path)
    assert new == oracle


@pytest.mark.parametrize("text", [
    "id,FF,GVF\nresponse_id,a,b\nr0,1.5,-2\nr1,0.1,3e2\n",       # LF only
    "id,FF,GVF\r\nresponse_id,a,b\r\nr0,1.5,-2\r\nr1,0.1,3e2",  # no final break
    "id,FF\rresponse_id,a\rr0,1.5\rr1,2\r",                       # CR only
    'id,FF\r\nresponse_id,a\r\n"r,0",1.5\r\n"say ""hi""\n",2\r\n',
    "id,FF\r\nresponse_id,a\r\nr\x85\u2028x,1.5\r\n",
    "id,FF,FF\r\nresponse_id,a,b\r\nr0,1.5,\"2.5\"\r\n",           # quoted number
    "id,FF\r\nresponse_id,a\r\nr0, 1.5 \r\n",                     # padded number
    "id,FF\r\nresponse_id,a\r\nr0,1.5,9\r\n",                     # extra field
    "id,FF,GVF\r\nresponse_id,a,b\r\n",                            # 0 rows
    "id,FF,GVF\r\nresponse_id,a,b",                                # 0 rows, no break
    "id\r\nresponse_id\r\nr0\r\n\"\"\r\n\"a\nb\"\r\n",                # 0 columns
])
def test_hand_written_csv_reads_as_the_oracle_does(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    new, oracle = _read_both(path)
    assert not isinstance(new, type)
    assert new == oracle


_HEADER = "id,FF,FF\r\nresponse_id,a,b\r\n"


@pytest.mark.parametrize("text", [
    _HEADER + "r0,1.5,2\r\nr1,0.5\r\n",              # ragged: a field short
    _HEADER + "r0,1.5,2\r\nr1\r\n",                  # id only
    _HEADER + "r0,1.5,2\r\nr1,,2\r\n",               # empty field
    _HEADER + "r0,1.5,2\r\n\r\nr1,1,2\r\n",          # blank line
    _HEADER + "r0,1.5,2\r\nr1,1,x\r\n",              # not a number
    "id\r\nresponse_id\r\nr0\r\n\r\nr1\r\n",          # blank line, 0 columns
])
def test_malformed_csv_raises_where_the_oracle_raises(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    new, oracle = _read_both(path)
    assert isinstance(oracle, type) and isinstance(new, type)
    assert new is ValueError


def test_row_without_values_is_named(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes((_HEADER + "r0,1.5,2\r\nr1\r\nr2,1,2\r\n").encode("utf-8"))
    with pytest.raises(ValueError, match="malformed CSV row 2: 'r1"):
        FeatureMatrix.from_csv(path)


def test_grade_ordinals():
    assert [Grade.from_label(l).ordinal for l in
            ("A2", "LB1", "HB1", "LB2", "HB2")] == [0, 1, 2, 3, 4]
