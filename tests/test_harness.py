import json
from dataclasses import replace

import numpy as np
import pytest

from speechscore import features, harness, learners
from speechscore.cli import main as cli_main
from speechscore.corpus import (SECONDARY, SyntaxSpans, default_resources,
                                load_corpus)
from speechscore.features import ExtractorConfig, GROUP_ORDER, extract_matrix
from speechscore.harness import (_train, ablation_additive,
                                 ablation_leave_one_out, human_agreement,
                                 load_prompt_dataset, prepare_prompt,
                                 run_benchmark, save_prompt_dataset)
from speechscore.learners import (LogisticModel, class_weights, fit_logistic,
                                  fit_model)
from speechscore.metrics import pearson
from speechscore.synth import SynthSpec, synth_corpus, write_corpus

from conftest import make_response, make_word

SMALL_CONFIG = ExtractorConfig(groups=("CF", "FF", "SPF", "GVF"), max_terms=40)
FAST_PARAMS = {"gbt": {"n_stages": 25, "max_depth": 3},
               "random_forest": {"n_trees": 15},
               "decision_tree": {"max_depth": 4}}


@pytest.fixture(scope="module")
def small_dataset():
    resources = default_resources()
    responses, _ = synth_corpus(
        SynthSpec(n=120, grade_levels=3, seed=5, second_rater_disagreement=0.2),
        resources)
    return prepare_prompt(responses, resources, replace(SMALL_CONFIG, seed=5))


class TestSynthCorpus:
    def test_deterministic(self):
        spec = SynthSpec(n=60, grade_levels=3, seed=9)
        r1, _ = synth_corpus(spec)
        r2, _ = synth_corpus(SynthSpec(n=60, grade_levels=3, seed=9))
        assert [r.response_id for r in r1] == [r.response_id for r in r2]
        assert [r.grade.label for r in r1] == [r.grade.label for r in r2]
        assert r1[0].words.start.tolist() == r2[0].words.start.tolist()

    def test_histogram_near_targets(self):
        responses, _ = synth_corpus(SynthSpec(n=500, grade_levels=3, seed=7))
        counts = {}
        for r in responses:
            counts[r.grade.label] = counts.get(r.grade.label, 0) + 1
        for label, n in counts.items():
            assert abs(n / 500 - 1 / 3) < 0.1 / 3 + 0.05, counts

    def test_rate_only_correlation(self):
        resources = default_resources()
        responses, _ = synth_corpus(
            SynthSpec(n=200, grade_levels=3, seed=4, score_function="rate_only"),
            resources)
        matrix = extract_matrix(responses, resources,
                                ExtractorConfig(groups=("FF",)))
        y = np.array([r.grade.ordinal for r in responses], dtype=float)
        assert pearson(matrix.column("speaking_rate"), y) > 0.6

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(n=10, grade_levels=3)

    @pytest.mark.parametrize("field, value", [
        ("noise", -2.0), ("noise", float("nan")), ("noise", float("inf")),
        ("second_rater_disagreement", 3.0),
        ("second_rater_disagreement", -0.1),
        ("second_rater_disagreement", float("nan")),
        ("prompt_id", "../x"), ("prompt_id", "a/b"), ("prompt_id", ""),
        ("score_function", "rate")])
    def test_out_of_range_spec_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SynthSpec(n=60, **{field: value})

    def test_spec_range_ends_accepted(self):
        for disagreement in (None, 0.0, 1.0):
            SynthSpec(n=60, noise=0.0, second_rater_disagreement=disagreement)

    def test_unsatisfiable_bands(self):
        with pytest.raises(ValueError, match="distinct latent bands"):
            synth_corpus(SynthSpec(n=60, grade_levels=5, seed=0, noise=0.0,
                                   score_function=lambda z: z["ttr"] * 0.0))

    def test_second_rater(self):
        responses, _ = synth_corpus(
            SynthSpec(n=80, grade_levels=3, seed=2,
                      second_rater_disagreement=0.3))
        assert all(r.grade2 is not None for r in responses)
        disagreements = sum(r.grade.ordinal != r.grade2.ordinal
                            for r in responses)
        assert 0 < disagreements < 50

    def test_audio_layer(self):
        responses, audio = synth_corpus(SynthSpec(n=50, grade_levels=2, seed=1,
                                                  audio=True))
        assert set(audio) == {r.response_id for r in responses}
        buf = audio[responses[0].response_id]
        assert buf.sample_rate == 16000
        assert np.abs(buf.samples).max() <= 1.0

    def test_written_corpus_round_trips(self, tmp_path):
        responses, _ = synth_corpus(SynthSpec(n=50, grade_levels=2, seed=3,
                                              second_rater_disagreement=0.2))
        # One response also carries syntax spans and a wav path.
        n = len(responses[0].tokens)
        responses[0].syntax = SyntaxSpans(
            sentences=[(0, n)], t_units=[(0, n)], clauses=[(0, 3), (3, n)],
            dependent_clauses=[(3, n)], complex_t_units=[(0, n)],
            complex_nominals=[(1, 3)], verb_phrases=[(2, 4)])
        responses[0].audio_path = tmp_path / "audio" / "first.wav"
        manifest = write_corpus(responses, tmp_path)
        corpus = load_corpus(manifest)
        assert len(corpus.responses) == 50
        assert corpus.rejected == []
        assert any(SECONDARY in r.phones.stress for r in corpus.responses)
        original = {r.response_id: r for r in responses}
        assert sorted(original) == [r.response_id for r in corpus.responses]
        assert corpus.responses[0].syntax is not None
        for r in corpus.responses:
            o = original[r.response_id]
            assert (r.prompt_id, r.transcript, r.grade, r.grade2, r.syntax,
                    r.audio_path) == \
                (o.prompt_id, o.transcript, o.grade, o.grade2, o.syntax,
                 o.audio_path)
            assert r.words.text == o.words.text
            for name in ("start", "end"):
                assert getattr(r.words, name).tobytes() == \
                    getattr(o.words, name).tobytes()
            assert r.phones.label == o.phones.label
            for name in ("klass", "stress", "start", "end", "word"):
                assert getattr(r.phones, name).tobytes() == \
                    getattr(o.phones, name).tobytes()
            assert r.tokens == o.tokens


class TestPreparePrompt:
    def test_one_seed_matches_the_cli(self, tmp_path):
        """The library flow extracts what `synth` + `extract --seed 7` do."""
        corpus, feats = tmp_path / "corpus", tmp_path / "cli"
        assert cli_main(["synth", "--n", "60", "--seed", "7",
                         "--out", str(corpus)]) == 0
        assert cli_main(["extract", "--manifest", str(corpus / "manifest.txt"),
                         "--resources", str(corpus / "resources"),
                         "--out", str(feats), "--groups", "CF,FF,SPF,GVF",
                         "--max-terms", "120", "--seed", "7"]) == 0
        resources = default_resources()
        responses, _ = synth_corpus(SynthSpec(n=60, seed=7), resources)
        config = ExtractorConfig(groups=("CF", "FF", "SPF", "GVF"),
                                 max_terms=120, seed=7)
        save_prompt_dataset(prepare_prompt(responses, resources, config),
                            tmp_path / "library")
        written = sorted(p.name for p in (tmp_path / "library").iterdir())
        assert "features.csv" in written
        for name in written:
            assert (tmp_path / "library" / name).read_bytes() == \
                (feats / name).read_bytes(), name

    @pytest.mark.parametrize("field, value", [
        ("min_df", 0), ("max_terms", 1e3), ("max_terms", True),
        ("rank_threshold", -1), ("ld_mode", "dens"), ("fmin", 0.0),
        ("fmin", 600.0), ("fmax", float("nan")), ("frame", -0.04),
        ("hop", float("inf")), ("groups", ())])
    def test_out_of_range_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExtractorConfig(**{field: value})

    def test_group_partition(self, small_dataset):
        matrix = small_dataset.matrix
        assert set(matrix.groups) == {"CF", "FF", "SPF", "GVF"}
        assert len(matrix.columns) == len(set(matrix.columns))
        order = [g for g in GROUP_ORDER if g in matrix.groups]
        boundaries = [matrix.groups[0]]
        for g in matrix.groups:
            if g != boundaries[-1]:
                boundaries.append(g)
        assert boundaries == order     # contiguous group blocks

    def test_standardized_train_stats(self, small_dataset):
        # The matrix holds raw features; a linear model z-scores the train
        # rows itself, with their own mean and std.
        X, _, _, _ = small_dataset.design("train")
        assert np.all(X[:, small_dataset.matrix.columns.index("speaking_rate")] > 0)
        for formulation in ("regression", "classification"):
            model = _train(small_dataset, "linear", formulation, None, seed=5)
            assert np.array_equal(model.scaler.mean, X.mean(axis=0))
            assert np.array_equal(model.scaler.std, X.std(axis=0))
            Z = model.scaler.transform(X)
            assert np.all(np.abs(Z.mean(axis=0)) < 1e-9)
            stds = Z.std(axis=0)
            assert np.all((np.abs(stds - 1) < 1e-9) | (stds == 0))

    def test_vocabulary_from_train_only(self, small_dataset):
        vocab = small_dataset.vocabulary
        assert vocab is not None
        assert vocab.n_documents == len(small_dataset.split.train)

    def test_save_load_round_trip(self, small_dataset, tmp_path):
        save_prompt_dataset(small_dataset, tmp_path)
        back = load_prompt_dataset(tmp_path)
        assert back.prompt_id == small_dataset.prompt_id
        assert back.matrix.columns == small_dataset.matrix.columns
        assert back.matrix.groups == small_dataset.matrix.groups
        assert back.matrix.response_ids == small_dataset.matrix.response_ids
        assert np.array_equal(back.matrix.values, small_dataset.matrix.values)
        assert back.y == small_dataset.y
        assert back.y2 == small_dataset.y2
        assert back.vocabulary == small_dataset.vocabulary
        assert back.vocabulary.n_documents == len(back.split.train)


class TestBenchmark:
    def test_cardinality_and_hh(self, small_dataset):
        report = run_benchmark(small_dataset,
                               models=("gbt", "length_baseline"),
                               formulations=("regression", "classification"),
                               seed=5, params=FAST_PARAMS)
        assert len(report["rows"]) == 4
        for row in report["rows"]:
            assert {"qwk", "pearson_r", "mse", "confusion"} <= set(row["test"])
        assert "human_human" in report
        assert report["human_human"]["test"]["qwk"] <= 1.0

    def test_human_agreement_computed_once(self, small_dataset, monkeypatch):
        calls = []

        def counted(dataset, split_name):
            calls.append(split_name)
            return human_agreement(dataset, split_name)

        monkeypatch.setattr(harness, "human_agreement", counted)
        report = run_benchmark(small_dataset, models=("length_baseline",),
                               formulations=("regression", "classification"),
                               seed=5)
        assert len(report["rows"]) == 2
        assert calls == list(harness.SPLITS)
        assert report["human_human"] == {
            s: human_agreement(small_dataset, s) for s in harness.SPLITS}

    def test_reproducible(self, small_dataset):
        r1 = run_benchmark(small_dataset, models=("gbt",),
                           formulations=("regression",), seed=5,
                           params=FAST_PARAMS)
        r2 = run_benchmark(small_dataset, models=("gbt",),
                           formulations=("regression",), seed=5,
                           params=FAST_PARAMS)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_unknown_model_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            run_benchmark(small_dataset, models=("nope",))

    def test_unknown_formulation_rejected_before_any_fit(self, small_dataset,
                                                         monkeypatch):
        fits = []
        monkeypatch.setattr(learners, "fit_model",
                            lambda *args, **kwargs: fits.append(args))
        with pytest.raises(ValueError, match="regresion"):
            run_benchmark(small_dataset, models=("gbt",),
                          formulations=("regression", "regresion"))
        assert fits == []

    def test_human_agreement_none_without_rater2(self):
        resources = default_resources()
        responses, _ = synth_corpus(SynthSpec(n=60, grade_levels=3, seed=8))
        dataset = prepare_prompt(responses, resources,
                                 replace(SMALL_CONFIG, seed=8))
        assert human_agreement(dataset, "test") is None


class TestAblations:
    def test_additive_stages(self, small_dataset):
        report = ablation_additive(small_dataset, seed=5,
                                   params=FAST_PARAMS["gbt"])
        assert [row["configuration"] for row in report.rows] == [
            "CF", "CF+FF", "CF+FF+SPF", "CF+FF+SPF+GVF"]
        sizes = [len(row["groups"]) for row in report.rows]
        assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)
        assert report.rows[-1]["pct_change"] == 0.0

    def test_leave_one_out_rows(self, small_dataset):
        report = ablation_leave_one_out(small_dataset, seed=5,
                                        params=FAST_PARAMS["gbt"])
        assert report.rows[0]["configuration"] == "full"
        assert report.rows[0]["pct_change"] == 0.0
        assert {row["configuration"] for row in report.rows[1:]} == {
            "~CF", "~FF", "~SPF", "~GVF"}

    def test_custom_order(self, small_dataset):
        report = ablation_additive(small_dataset, order=("FF", "CF"), seed=5,
                                   params=FAST_PARAMS["gbt"])
        assert report.rows[0]["configuration"] == "FF"
        assert report.rows[1]["configuration"] == "FF+CF"

    def test_unknown_group_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            ablation_additive(small_dataset, order=("AF",), seed=5)

    def test_every_stage_retrains(self, small_dataset):
        # configurations with different groups cannot share fitted structure:
        # QWK from single-group FF model differs from the full stack
        report = ablation_additive(small_dataset, order=("FF", "CF", "SPF", "GVF"),
                                   seed=5, params=FAST_PARAMS["gbt"])
        assert len({round(row["qwk"], 6) for row in report.rows}) >= 2


def test_linear_key_classifies_with_logistic(small_dataset):
    X, y, _, columns = small_dataset.design("train")
    weights = class_weights(y)
    model = fit_model("linear", {}, X, y, weights, task="classification",
                      n_classes=small_dataset.n_classes, feature_names=columns)
    direct = fit_logistic(X, y, weights, n_classes=small_dataset.n_classes,
                          feature_names=columns)
    assert isinstance(model, LogisticModel)
    assert np.array_equal(model.coef, direct.coef)
    assert np.array_equal(model.intercept, direct.intercept)


@pytest.mark.parametrize("edit, message", [
    (lambda row: row.pop("longpfreq"), "no column 'longpfreq' for response"),
    (lambda row: row.update(extra=1.0), r"unknown columns: \['extra'\]")])
def test_extracted_rows_hold_every_column_once(resources, monkeypatch, edit,
                                               message):
    fluency_features = features.fluency_features

    def edited(response, resources, flags):
        row = fluency_features(response, resources, flags)
        edit(row)
        return row

    monkeypatch.setattr(features, "fluency_features", edited)
    response = make_response([make_word("cat", 0.0, 0.5),
                              make_word("runs", 0.7, 1.2)])
    with pytest.raises(ValueError, match=message):
        extract_matrix([response], resources, ExtractorConfig(groups=("FF",)))
