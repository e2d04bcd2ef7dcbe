"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time

import numpy as np
import pytest

from speechscore.acoustic import acoustic_features, pitch_track
from speechscore.cli import main as cli_main
from speechscore.corpus import FeatureMatrix, default_resources
from speechscore.explain import pdp, shap_summary, tree_shap
from speechscore.features import ExtractorConfig
from speechscore.harness import (ablation_additive, ablation_leave_one_out,
                                 prepare_prompt, run_benchmark, tune,
                                 _evaluate, _train)
from speechscore.learners import (TreeEnsembleModel, fit_forest, fit_gbt,
                                  fit_single_tree, load_model, save_model)
from speechscore.metrics import mse, pearson, qwk, weight_matrix
from speechscore.prosody import IntervalSequence, interval_features
from speechscore.synth import SynthSpec, synth_corpus
from speechscore.trees import TreeParams

from conftest import make_response, make_tokens, make_word, silence_profile, tok
from shap_oracle import brute_force_shap
from test_acoustic import perturbed_tone, sine
from test_explain import random_tree, wrap

GENERATING_GROUP = "FF"       # carries speaking rate and the pause structure


def _report(criterion, detail):
    print(f"[criterion {criterion}] PASS: {detail}")


class Stopwatch:
    def __init__(self, budget):
        self.budget = budget
        self.start = time.monotonic()

    def done(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.budget, f"runtime {elapsed:.1f}s over budget"
        return elapsed


def test_criterion_1_metric_oracles():
    watch = Stopwatch(1.0)
    expected_w = np.array([[0, 0.25, 1], [0.25, 0, 0.25], [1, 0.25, 0]])
    assert np.max(np.abs(weight_matrix(3) - expected_w)) < 1e-12
    assert abs(qwk([0, 1], [1, 0], 2) - (-1.0)) < 1e-12
    assert abs(mse([1, 2], [1, 3]) - 0.5) < 1e-12
    assert abs(mse([0.0], [3.0]) - 9.0) < 1e-12
    assert abs(pearson([1, 2, 3], [1, 2, 4]) - 0.9819805060619659) < 1e-12
    assert abs(pearson([1.0, 2.0, 5.0], [-2.0, -4.0, -10.0]) - (-1.0)) < 1e-12
    _report(1, f"metric oracles exact to 1e-12 ({watch.done():.2f}s)")


def test_criterion_2_qwk_independence():
    watch = Stopwatch(1.0)
    rng = np.random.default_rng(20240817)
    h = rng.integers(0, 5, 10000)
    p = rng.integers(0, 5, 10000)
    kappa = qwk(h, p, 5)
    assert abs(kappa) < 0.05
    assert qwk(h, h, 5) == 1.0
    _report(2, f"|kappa|={abs(kappa):.4f} on 10k random pairs; "
               f"perfect agreement = 1 ({watch.done():.2f}s)")


def test_criterion_3_feature_oracles(resources):
    watch = Stopwatch(1.0)
    from speechscore.fluency import fluency_features
    from speechscore.grammar import (count_and_complexity_features,
                                     lexical_features, syntactic_features,
                                     UnitCounts, word_tokens)

    # silence profile on the hand timeline
    r = make_response([make_word("a", 0.0, 0.5), make_word("b", 0.7, 1.2),
                       make_word("c", 1.8, 2.3)])
    profile = silence_profile(r)
    assert abs(profile.response_time - 2.3) < 1e-9
    assert abs(profile.articulation_time - 1.5) < 1e-9
    assert np.allclose([d for _, d in profile.silences], [0.2, 0.6], atol=1e-9)
    assert np.allclose([d for _, d in profile.long_silences], [0.6], atol=1e-9)

    # filler rate: "um the uh cat" over 2 s
    words = [make_word(w, i * 0.5, i * 0.5 + 0.45)
             for i, w in enumerate(["um", "the", "uh", "cat"])]
    words[-1] = make_word("cat", 1.5, 2.0)
    r2 = make_response(words)
    f2 = fluency_features(r2, resources, set())
    assert abs(f2["filled_pause_rate"] - 1.0) < 1e-9

    # PVI pair
    fi = interval_features(IntervalSequence([100.0, 200.0], [], []), 300.0,
                           set())
    assert abs(fi["vowelPVI"] - 100.0) < 1e-9
    assert abs(fi["vowelPVINorm"] - 200.0 / 3) < 1e-9

    # ttr and MLS and complexity sums
    tokens = [tok("the", "DET", stop=True), tok("cat", "NOUN"),
              tok("saw", "VERB"), tok("the", "DET", stop=True), tok("cat", "NOUN")]
    fl = lexical_features(word_tokens(make_tokens(tokens)), resources,
                          ExtractorConfig(), set())
    assert abs(fl["ttr"] - 0.6) < 1e-9
    fs = syntactic_features(UnitCounts(W=100, S=5, C=12, T=8, DC=4), set())
    assert abs(fs["MLS"] - 20.0) < 1e-9
    assert abs(fs["C/T"] - 1.5) < 1e-9
    assert abs(fs["DC/C"] - 1 / 3) < 1e-9
    assert abs(fs["DC/T"] - 0.5) < 1e-9
    pair = make_tokens([tok("cat", "NOUN"), tok("run", "VERB")])
    fc = count_and_complexity_features(pair, word_tokens(pair), resources,
                                       set())
    assert abs(fc["total_text_complexity_mAvg"] - 5.0) < 1e-9
    assert abs(fc["average_word_complexity_mAvg"] - 2.5) < 1e-9
    _report(3, f"fluency/prosody/grammar hand oracles exact to 1e-9 "
               f"({watch.done():.2f}s)")


def test_criterion_4_dsp_oracles():
    watch = Stopwatch(30.0)
    config = ExtractorConfig()
    audio = sine(100.0, seconds=2.0)
    track = pitch_track(audio, config)
    assert track.periods.size > 100
    assert np.all(np.abs(track.periods - 0.010) <= 1.0 / 16000 + 1e-12)
    features = acoustic_features(audio, track, config, set())
    stable = {n: features[n] for n in
              ("rapJitter", "ppq5Jitter", "ddpJitter", "localShimmer",
               "apq3Shimmer", "aqpq5Shimmer", "ddaShimmer")}
    assert all(v < 1e-3 for v in stable.values()), stable

    jitter = []
    for p in (0.0, 0.01, 0.02, 0.05):
        tone = perturbed_tone(p, seconds=2.0)
        features = acoustic_features(tone, pitch_track(tone, config), config,
                                     set())
        jitter.append(features["rapJitter"])
    assert jitter == sorted(jitter), jitter
    assert jitter[-1] > jitter[0]

    rng = np.random.default_rng(1)
    from speechscore.acoustic import PeriodTrack
    track2 = PeriodTrack(0.01 * (1 + 0.05 * rng.standard_normal(60)),
                         0.5 * (1 + 0.3 * rng.random(60)))
    f = acoustic_features(audio, track2, config, set())
    assert f["ddpJitter"] == 3.0 * f["rapJitter"]
    assert f["ddaShimmer"] == 3.0 * f["apq3Shimmer"]
    _report(4, f"tone period exact to 1 lag, stability < 1e-3, jitter "
               f"monotone {np.round(jitter, 5).tolist()} ({watch.done():.1f}s)")


def test_criterion_5_shap_correctness():
    watch = Stopwatch(120.0)
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(1000):
        p = int(rng.integers(1, 9))
        model = wrap([random_tree(rng, p, max_depth=3)],
                     [f"f{i}" for i in range(p)])
        x = rng.uniform(-1, 1, p)
        phi, base = tree_shap(model, x)
        worst = max(worst, float(np.max(np.abs(phi - brute_force_shap(model, x)))))
        pred = float(model.trees[0].predict(x[None, :])[0])
        assert abs(base + phi.sum() - pred) < 1e-6
    assert worst < 1e-9

    X = rng.uniform(-2, 2, size=(200, 5))
    y = X[:, 0] + np.sin(2 * X[:, 1]) + 0.2 * rng.standard_normal(200)
    gbt = fit_gbt(X, y, n_stages=40, params=TreeParams(max_depth=3))
    preds = gbt.predict(X)
    err = 0.0
    for i in range(200):
        phi, base = tree_shap(gbt, X[i])
        err = max(err, abs(base + phi.sum() - preds[i]))
    assert err < 1e-6

    gbt.feature_names = gbt.feature_names + ["dummy"]
    for i in range(0, 200, 40):
        phi, _ = tree_shap(gbt, np.append(X[i], 123.0))
        assert phi[-1] == 0.0
    _report(5, f"1000-tree oracle equivalence max err {worst:.2e}; GBT local "
               f"accuracy max err {err:.2e}; dummy phi = 0 ({watch.done():.1f}s)")


def test_criterion_6_pdp_correctness():
    watch = Stopwatch(10.0)

    class Additive:
        def predict_value(self, X):
            return X[:, 0] + X[:, 1]

    rng = np.random.default_rng(3)
    bg = FeatureMatrix(response_ids=[f"r{i}" for i in range(300)],
                       columns=["a", "b"], groups=["FF", "FF"],
                       values=rng.uniform(-2, 2, size=(300, 2)))
    curve = pdp(Additive(), bg, "a", n_grid=20)
    expected = curve.grid + bg.values[:, 1].mean()
    assert np.max(np.abs(curve.mean_prediction - expected)) < 1e-9

    from test_explain import manual_tree
    step_model = wrap([manual_tree(0, 0.0, 0.0, 1.0)], ["a"])
    grid_bg = FeatureMatrix(response_ids=[f"g{i}" for i in range(101)],
                            columns=["a"], groups=["FF"],
                            values=np.linspace(-1, 1, 101).reshape(-1, 1))
    step = pdp(step_model, grid_bg, "a", n_grid=20)
    assert np.all(step.mean_prediction[step.grid <= 0] == 0.0)
    assert np.all(step.mean_prediction[step.grid > 0] == 1.0)
    _report(6, f"additive identity < 1e-9 and exact step curve "
               f"({watch.done():.1f}s)")


def test_criterion_7_learner_properties(tmp_path):
    watch = Stopwatch(60.0)
    rng = np.random.default_rng(11)
    X = rng.uniform(-3, 3, size=(300, 1))
    y = X[:, 0] + 0.1 * rng.standard_normal(300)
    gbt = fit_gbt(X, y, n_stages=60, learning_rate=0.1)
    assert all(a >= b - 1e-12 for a, b in zip(gbt.train_loss, gbt.train_loss[1:]))

    Xte = rng.uniform(-3, 3, size=(300, 1))
    yte = Xte[:, 0] + 0.1 * rng.standard_normal(300)
    tree = fit_single_tree(X, y, params=TreeParams(max_depth=5))
    forest = fit_forest(X, y, n_trees=60, seed=1, params=TreeParams(max_depth=5))
    mse_tree = float(np.mean((tree.predict(Xte) - yte) ** 2))
    mse_forest = float(np.mean((forest.predict(Xte) - yte) ** 2))
    assert mse_forest <= mse_tree

    nu, k = 0.25, 8
    shrink = fit_gbt(np.zeros((30, 1)), np.full(30, 5.0), n_stages=k,
                     learning_rate=nu, init="zero", params=TreeParams(max_depth=0))
    expected = 5.0 * (1 - (1 - nu) ** k)
    assert abs(shrink.predict(np.zeros((1, 1)))[0] - expected) < 1e-9

    save_model(gbt, tmp_path / "gbt.json")
    reloaded = load_model(tmp_path / "gbt.json")
    assert np.array_equal(reloaded.predict(Xte), gbt.predict(Xte))
    _report(7, f"monotone loss, forest mse {mse_forest:.4f} <= tree "
               f"{mse_tree:.4f}, shrinkage identity, bit-identical reload "
               f"({watch.done():.1f}s)")


@pytest.fixture(scope="module")
def e2e():
    """Criterion-8 pipeline, shared with criterion 10."""
    resources = default_resources()
    responses, _ = synth_corpus(
        SynthSpec(n=800, grade_levels=3, seed=7,
                  score_function="rate_ttr_pause"), resources)
    config = ExtractorConfig(groups=("CF", "FF", "SPF", "GVF"), max_terms=120,
                             seed=7)
    dataset = prepare_prompt(responses, resources, config)
    best, cv_table = tune(dataset, {"max_depth": [3, 4], "n_stages": [100]},
                          seed=7)
    model = _train(dataset, "gbt", "regression", best, seed=7)
    test_eval = _evaluate(dataset, model, "test", "gbt")
    return {"dataset": dataset, "best": best, "cv_table": cv_table,
            "model": model, "test": test_eval}


def test_criterion_8_end_to_end(e2e):
    watch = Stopwatch(300.0)
    dataset, model = e2e["dataset"], e2e["model"]
    test_qwk = e2e["test"]["qwk"]
    assert test_qwk >= 0.7, f"held-out QWK {test_qwk:.3f} < 0.7"

    X_train, _, _, columns = dataset.design("train")
    curve = pdp(model, X_train, "speaking_rate", n_grid=20,
                feature_names=columns)
    middle = curve.mean_prediction[2:18]     # middle 80 % of the grid
    assert np.all(np.diff(middle) >= -1e-9), middle

    summary = shap_summary(model, dataset.design("test")[0])
    top3 = [name for name, _ in summary.ranking[:3]]
    generating = {"speaking_rate", "SilenceRate1", "SilenceRate2",
                  "general_silence", "ttr"}
    assert generating & set(top3), top3

    additive = ablation_additive(dataset, seed=7, params=e2e["best"])
    stage_qwk = {row["configuration"]: row["qwk"] for row in additive.rows}
    jump = stage_qwk["CF+FF"] - stage_qwk["CF"]
    assert jump >= 0.2, stage_qwk

    loo = ablation_leave_one_out(dataset, seed=7, params=e2e["best"])
    drops = {row["configuration"]: row["pct_change"] for row in loo.rows}
    assert drops[f"~{GENERATING_GROUP}"] <= -10.0, drops
    _report(8, f"QWK={test_qwk:.3f}, PDP monotone, SHAP top3={top3}, "
               f"+FF jump={jump:.2f}, ~FF drop={drops['~FF']:.1f}% "
               f"({watch.done():.1f}s)")


def test_criterion_9_thread_determinism(tmp_path):
    watch = Stopwatch(300.0)
    corpus = tmp_path / "corpus"
    assert cli_main(["synth", "--n", "150", "--grades", "3", "--seed", "13",
                     "--out", str(corpus)]) == 0
    artifacts = {}
    for threads in (1, 8):
        base = tmp_path / f"threads{threads}"
        feats, run = base / "features", base / "run"
        assert cli_main(["extract", "--manifest", str(corpus / "manifest.txt"),
                         "--resources", str(corpus / "resources"),
                         "--out", str(feats), "--groups", "CF,FF,SPF,GVF",
                         "--max-terms", "50", "--seed", "13",
                         "--threads", str(threads)]) == 0
        assert cli_main(["train", "--features", str(feats), "--out", str(run),
                         "--model", "gbt", "--task", "regression",
                         "--seed", "13", "--threads", str(threads),
                         "--grid", json.dumps({"max_depth": [3, 4],
                                               "n_stages": [30]})]) == 0
        assert cli_main(["evaluate", "--features", str(feats),
                         "--model", str(run / "model.json"),
                         "--out", str(run), "--seed", "13"]) == 0
        artifacts[threads] = {
            "features": (feats / "features.csv").read_bytes(),
            "model": (run / "model.json").read_bytes(),
            "cv": (run / "cv_table.json").read_bytes(),
            "report": (run / "report.json").read_bytes()}
    for name in ("features", "model", "cv", "report"):
        assert artifacts[1][name] == artifacts[8][name], name
    _report(9, f"1-thread and 8-thread runs byte-identical "
               f"(features, model, cv table, report) ({watch.done():.1f}s)")


def test_criterion_10_regression_vs_classification(e2e):
    watch = Stopwatch(300.0)
    dataset, best = e2e["dataset"], e2e["best"]
    report = run_benchmark(dataset, models=("linear", "gbt", "length_baseline"),
                           formulations=("regression", "classification"),
                           seed=7, params={"gbt": best})
    cells = {(row["model"], row["formulation"]): row["test"]["qwk"]
             for row in report["rows"]}
    assert len(cells) == 6
    reg, clf = cells[("gbt", "regression")], cells[("gbt", "classification")]
    assert reg >= clf - 0.05, (reg, clf)
    _report(10, f"comparison table emitted; regression QWK {reg:.3f} >= "
                f"classification {clf:.3f} - 0.05 ({watch.done():.1f}s)")
