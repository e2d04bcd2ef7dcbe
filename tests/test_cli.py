import csv
import json
from pathlib import Path

import numpy as np
import pytest

from speechscore import cli, learners
from speechscore.cli import build_parser, main
from speechscore.corpus import FeatureMatrix, SplitAssignment


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """synth -> extract once for the whole module."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus"
    feats = root / "features"
    assert main(["synth", "--n", "100", "--grades", "3", "--seed", "5",
                 "--out", str(corpus), "--second-rater", "0.2"]) == 0
    assert main(["extract", "--manifest", str(corpus / "manifest.txt"),
                 "--resources", str(corpus / "resources"),
                 "--out", str(feats), "--groups", "CF,FF,SPF,GVF",
                 "--max-terms", "40", "--seed", "5"]) == 0
    return root


def test_synth_writes_corpus(pipeline_dirs):
    corpus = pipeline_dirs / "corpus"
    files = list(corpus.glob("synth-1-*.json"))
    assert len(files) == 100
    assert (corpus / "manifest.txt").exists()
    assert (corpus / "resources" / "frequency.tsv").exists()


def test_extract_artifacts(pipeline_dirs):
    feats = pipeline_dirs / "features"
    lines = (feats / "features.csv").read_text().splitlines()
    assert len(lines) == 2 + 100         # two header rows
    header_groups = lines[0].split(",")
    assert header_groups[0] == "id" and "FF" in header_groups
    assert (feats / "splits.json").exists()
    assert (feats / "vocabulary.tsv").exists()


def test_train_evaluate_explain_ablate_report(pipeline_dirs):
    feats = pipeline_dirs / "features"
    run = pipeline_dirs / "run"
    assert main(["train", "--features", str(feats), "--out", str(run),
                 "--model", "gbt", "--task", "regression", "--seed", "5",
                 "--params", json.dumps({"n_stages": 25, "max_depth": 3})]) == 0
    model = run / "model.json"
    assert model.exists()

    assert main(["evaluate", "--features", str(feats), "--model", str(model),
                 "--out", str(run), "--seed", "5"]) == 0
    report = json.loads((run / "report.json").read_text())
    assert {"valid", "test"} <= set(report)
    assert -1.0 <= report["test"]["qwk"] <= 1.0
    assert "human_human" in report

    for kind, artifacts in (
            ("importance", ["importance.csv", "importance.svg"]),
            ("shap", ["shap_values.csv", "shap_ranking.csv", "shap_summary.svg"])):
        assert main(["explain", "--features", str(feats), "--model", str(model),
                     "--out", str(run), "--kind", kind, "--max-samples", "10",
                     "--seed", "5"]) == 0
        for name in artifacts:
            assert (run / name).exists(), name

    assert main(["explain", "--features", str(feats), "--model", str(model),
                 "--out", str(run), "--kind", "pdp",
                 "--feature", "speaking_rate", "--seed", "5"]) == 0
    assert (run / "pdp_speaking_rate.csv").exists()
    assert (run / "pdp_speaking_rate.svg").exists()

    assert main(["ablate", "--features", str(feats), "--out", str(run),
                 "--mode", "drop", "--seed", "5",
                 "--params", json.dumps({"n_stages": 15, "max_depth": 3})]) == 0
    ablation = json.loads((run / "ablation_drop.json").read_text())
    assert ablation["rows"][0]["configuration"] == "full"

    assert main(["report", "--features", str(feats), "--out", str(run),
                 "--models", "gbt,length_baseline",
                 "--formulations", "regression", "--seed", "5"]) == 0
    bench = json.loads((run / "benchmark.json").read_text())
    assert len(bench["rows"]) == 2
    assert (run / "synth-1" / "gbt" / "regression" / "report.json").exists()
    assert (run / "benchmark.csv").exists()


@pytest.mark.parametrize("grid, params", [
    ({"max_depth": [4], "n_stages": [5]}, {}),
    ({"max_depth": [3, 4], "n_stages": [5]}, {"max_depth": 2,
                                              "min_samples_leaf": 3}),
])
def test_grid_search_scores_the_refit_model(pipeline_dirs, tmp_path,
                                            monkeypatch, grid, params):
    # Neither grid names min_samples_leaf, so CV folds and the refit must
    # take it from the same place; --params stay fixed in both.
    fits, learner_calls = [], []
    real_fit_model, real_fit_gbt = learners.fit_model, learners.fit_gbt

    def record_fit(kind, point, *args, **kwargs):
        fits.append(dict(learners.DEFAULT_PARAMS[kind], **(point or {})))
        return real_fit_model(kind, point, *args, **kwargs)

    def record_gbt(X, y, weights=None, **kwargs):
        learner_calls.append({k: kwargs[k] for k in
                              ("n_stages", "learning_rate", "params", "task")})
        return real_fit_gbt(X, y, weights, **kwargs)
    monkeypatch.setattr(learners, "fit_model", record_fit)
    monkeypatch.setattr(learners, "fit_gbt", record_gbt)
    run = tmp_path / "run"
    argv = ["train", "--features", str(pipeline_dirs / "features"),
            "--out", str(run), "--model", "gbt", "--seed", "5",
            "--folds", "3", "--grid", json.dumps(grid)]
    if params:
        argv += ["--params", json.dumps(params)]
    assert main(argv) == 0
    assert len(fits) == len(learner_calls) == 3 + 1      # folds + refit
    *cv_fits, refit = fits
    *cv_calls, refit_call = learner_calls
    assert all(fit == refit for fit in cv_fits)
    assert all(call == refit_call for call in cv_calls)
    leaf = params.get("min_samples_leaf",
                      learners.DEFAULT_PARAMS["gbt"]["min_samples_leaf"])
    assert refit_call["params"].min_samples_leaf == leaf
    cv_table = json.loads((run / "cv_table.json").read_text())
    assert len(cv_table) == 1
    assert json.loads((run / "model.json").read_text())["params"] == \
        cv_table[0]["params"]


@pytest.mark.parametrize("model, task, option, value, key", [
    ("linear", "classification", "--grid", {"max_iter": [200, 400]}, "max_iter"),
    ("gbt", "regression", "--params", {"n_trees": 5}, "n_trees"),
])
def test_unknown_model_parameter_rejected(pipeline_dirs, tmp_path, capsys,
                                          model, task, option, value, key):
    code = main(["train", "--features", str(pipeline_dirs / "features"),
                 "--out", str(tmp_path / "run"), "--model", model,
                 "--task", task, option, json.dumps(value)])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ValueError"
    assert key in payload["message"]
    assert not (tmp_path / "run" / "model.json").exists()


@pytest.mark.parametrize("mtry, code", [(0, 1), (-1, 1), (5, 1),
                                         (None, 0), (1, 0)])
def test_mtry_must_be_null_or_within_the_columns(pipeline_dirs, tmp_path,
                                                 capsys, mtry, code):
    # length_baseline fits on its one column, W.
    assert main(["train", "--features", str(pipeline_dirs / "features"),
                 "--out", str(tmp_path / "run"), "--model", "length_baseline",
                 "--params", json.dumps({"mtry": mtry, "n_trees": 3})]) == code
    assert (tmp_path / "run" / "model.json").exists() == (code == 0)
    if code:
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ValueError"
        assert "mtry" in payload["message"]


@pytest.mark.parametrize("model, task", [("gbt", "regression"),
                                         ("linear", "classification")])
def test_evaluate_report_matches_benchmark_row(pipeline_dirs, tmp_path,
                                               model, task):
    feats, run = pipeline_dirs / "features", tmp_path / "run"
    assert main(["train", "--features", str(feats), "--out", str(run),
                 "--model", model, "--task", task, "--seed", "5"]) == 0
    assert main(["evaluate", "--features", str(feats),
                 "--model", str(run / "model.json"), "--out", str(run)]) == 0
    assert main(["report", "--features", str(feats), "--out", str(tmp_path),
                 "--models", model, "--formulations", task, "--seed", "5"]) == 0
    report = json.loads((run / "report.json").read_text())
    bench = json.loads((tmp_path / "benchmark.json").read_text())
    [row] = bench["rows"]
    for key in ("valid", "test"):
        assert report[key] == row[key], key
    assert report["human_human"] == bench["human_human"]


def test_explanations_in_raw_feature_units(pipeline_dirs, tmp_path,
                                           monkeypatch):
    feats = pipeline_dirs / "features"
    run = tmp_path / "run"
    assert main(["train", "--features", str(feats), "--out", str(run),
                 "--model", "gbt", "--seed", "5",
                 "--params", json.dumps({"n_stages": 10, "max_depth": 3})]) == 0
    payload = json.loads((run / "model.json").read_text())
    assert "standardizer" not in payload
    matrix = FeatureMatrix.from_csv(feats / "features.csv")
    split = SplitAssignment.from_json(
        json.loads((feats / "splits.json").read_text()))
    train = matrix.restrict(split.train)

    # Every threshold is the midpoint of two raw train values.
    for tree in payload["trees"]:
        for f, t in zip(tree["feature"], tree["threshold"]):
            if f >= 0:
                xs = train.values[:, f]
                assert t in (xs[:, None] + xs[None, :]) / 2.0

    real, summaries = cli.shap_summary, []

    def spy(model, rows):
        summaries.append(real(model, rows))
        return summaries[-1]
    monkeypatch.setattr(cli, "shap_summary", spy)
    assert main(["explain", "--features", str(feats),
                 "--model", str(run / "model.json"), "--out", str(run),
                 "--kind", "shap", "--seed", "5"]) == 0
    assert np.array_equal(summaries[0].feature_values, train.values)

    assert main(["explain", "--features", str(feats),
                 "--model", str(run / "model.json"), "--out", str(run),
                 "--kind", "pdp", "--feature", "speaking_rate",
                 "--seed", "5"]) == 0
    with open(run / "pdp_speaking_rate.csv", newline="") as fh:
        grid = [float(row["grid"]) for row in csv.DictReader(fh)]
    column = train.column("speaking_rate")
    assert column.min() <= min(grid) < max(grid) <= column.max()


@pytest.fixture(scope="module")
def narrow_features(pipeline_dirs):
    """The pipeline corpus extracted again with a 20-term vocabulary."""
    feats = pipeline_dirs / "features20"
    corpus = pipeline_dirs / "corpus"
    assert main(["extract", "--manifest", str(corpus / "manifest.txt"),
                 "--resources", str(corpus / "resources"),
                 "--out", str(feats), "--groups", "CF,FF,SPF,GVF",
                 "--max-terms", "20", "--seed", "5"]) == 0
    return feats


@pytest.mark.parametrize("trained_on, applied_to", [("features20", "features"),
                                                    ("features", "features20")])
def test_model_must_match_the_features(pipeline_dirs, narrow_features, tmp_path,
                                       capsys, trained_on, applied_to):
    run = tmp_path / "run"
    assert main(["train", "--features", str(pipeline_dirs / trained_on),
                 "--out", str(run), "--seed", "5",
                 "--params", json.dumps({"n_stages": 5})]) == 0
    model_columns = json.loads((run / "model.json").read_text())["feature_names"]
    columns = FeatureMatrix.from_csv(
        pipeline_dirs / applied_to / "features.csv").columns
    assert model_columns != columns
    at = next(i for i, (a, b) in enumerate(zip(model_columns, columns)) if a != b)
    for command in (["evaluate"], ["explain", "--kind", "pdp",
                                   "--feature", "speaking_rate"]):
        out = tmp_path / command[0]
        assert main(command + ["--features", str(pipeline_dirs / applied_to),
                               "--model", str(run / "model.json"),
                               "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ValueError"
        assert f"column {at} is {model_columns[at]!r} in the model but " \
               f"{columns[at]!r} in the features" in payload["message"]
        assert not list(out.glob("*.csv")) + list(out.glob("*.json"))


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_importance_and_shap_refuse_linear_models(pipeline_dirs, tmp_path,
                                                  capsys, task):
    feats, run = pipeline_dirs / "features", tmp_path / "run"
    assert main(["train", "--features", str(feats), "--out", str(run),
                 "--model", "linear", "--task", task, "--seed", "5"]) == 0
    explain = ["explain", "--features", str(feats),
               "--model", str(run / "model.json"), "--out", str(run)]
    for kind in ("importance", "shap"):
        assert main(explain + ["--kind", kind]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ValueError"
        assert "tree ensembles only" in payload["message"]
    assert main(explain + ["--kind", "pdp", "--feature", "speaking_rate"]) == 0
    assert (run / "pdp_speaking_rate.csv").exists()


@pytest.mark.parametrize("argv, needles", [
    (["--kind", "shap", "--max-samples", "0"], ["--max-samples", "got 0"]),
    (["--kind", "shap", "--max-samples", "-130"], ["--max-samples", "got -130"]),
    (["--kind", "pdp", "--feature", "speaking_rate", "--n-grid", "0"],
     ["grid size", "got 0"]),
    (["--kind", "pdp", "--feature", "nosuch"], ["'nosuch'", "{p} columns"]),
])
def test_explain_rejects_bad_arguments(pipeline_dirs, tmp_path, capsys, argv,
                                       needles):
    feats, run, out = pipeline_dirs / "features", tmp_path / "run", tmp_path / "out"
    assert main(["train", "--features", str(feats), "--out", str(run),
                 "--seed", "5", "--params", json.dumps({"n_stages": 5})]) == 0
    p = len(json.loads((run / "model.json").read_text())["feature_names"])
    assert main(["explain", "--features", str(feats), "--model",
                 str(run / "model.json"), "--out", str(out)] + argv) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ValueError"
    for needle in needles:
        assert needle.format(p=p) in payload["message"]
    assert not list(out.iterdir())


def test_error_is_machine_readable(tmp_path, capsys):
    code = main(["extract", "--manifest", str(tmp_path / "missing.txt"),
                 "--resources", str(tmp_path), "--out", str(tmp_path / "o")])
    assert code != 0
    err = capsys.readouterr().err.strip().splitlines()[-1]
    payload = json.loads(err)
    assert payload["error"] == "FileNotFoundError"


def test_unknown_group_error(pipeline_dirs, capsys):
    corpus = pipeline_dirs / "corpus"
    code = main(["extract", "--manifest", str(corpus / "manifest.txt"),
                 "--resources", str(corpus / "resources"),
                 "--out", str(corpus / "x"), "--groups", "QQ"])
    assert code != 0
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "QQ" in payload["message"]


def test_help_lists_flags_with_defaults():
    parser = build_parser()
    for command, flags in {
        "extract": ["--manifest", "--resources", "--out", "--groups", "--seed",
                    "--threads", "--min-df", "--max-terms", "--fmin", "--fmax"],
        "train": ["--features", "--model", "--task", "--grid", "--folds"],
        "evaluate": ["--features", "--model", "--out"],
        "explain": ["--kind", "--feature", "--n-grid", "--max-samples"],
        "ablate": ["--mode", "--order", "--params"],
        "synth": ["--n", "--grades", "--score-function", "--noise", "--audio"],
        "report": ["--models", "--formulations"],
    }.items():
        text = parser.speechscore_subcommands[command].format_help()
        for flag in flags:
            assert flag in text, (command, flag)
        assert "default" in text


def test_config_file_supplies_defaults(pipeline_dirs, tmp_path):
    corpus = pipeline_dirs / "corpus"
    config = tmp_path / "run.conf"
    config.write_text("max_terms = 17\nseed = 5\n# comment\ngroups = CF,FF\n")
    out = tmp_path / "feats"
    assert main(["extract", "--manifest", str(corpus / "manifest.txt"),
                 "--resources", str(corpus / "resources"),
                 "--out", str(out), "--config", str(config)]) == 0
    lines = (out / "features.csv").read_text().splitlines()
    groups = set(lines[0].split(",")[1:])
    assert groups == {"CF", "FF"}
    n_cf = sum(1 for g in lines[0].split(",") if g == "CF")
    assert n_cf <= 17


def test_determinism_across_thread_counts(pipeline_dirs, tmp_path):
    corpus = pipeline_dirs / "corpus"
    outs = []
    for threads, name in ((1, "t1"), (8, "t8")):
        out = tmp_path / name
        assert main(["extract", "--manifest", str(corpus / "manifest.txt"),
                     "--resources", str(corpus / "resources"),
                     "--out", str(out), "--groups", "CF,FF,SPF,GVF",
                     "--max-terms", "40", "--seed", "5",
                     "--threads", str(threads)]) == 0
        outs.append(out)
    for name in ("features.csv", "labels.csv", "splits.json", "vocabulary.tsv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
