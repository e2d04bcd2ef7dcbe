import csv
import json
from pathlib import Path

import numpy as np
import pytest

from speechscore import cli, learners
from speechscore.cli import build_parser, main
from speechscore.corpus import RESOURCE_FILES, RESOURCES_DIR, FeatureMatrix
from speechscore.harness import load_prompt_dataset


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
    train, _, _, columns = load_prompt_dataset(feats).design("train")

    # Every threshold is the midpoint of two raw train values.
    for tree in payload["trees"]:
        for f, t in zip(tree["feature"], tree["threshold"]):
            if f >= 0:
                xs = train[:, f]
                assert t in (xs[:, None] + xs[None, :]) / 2.0

    real, summaries = cli.shap_summary, []

    def spy(model, rows):
        summaries.append(real(model, rows))
        return summaries[-1]
    monkeypatch.setattr(cli, "shap_summary", spy)
    assert main(["explain", "--features", str(feats),
                 "--model", str(run / "model.json"), "--out", str(run),
                 "--kind", "shap", "--seed", "5"]) == 0
    assert np.array_equal(summaries[0].feature_values, train)

    assert main(["explain", "--features", str(feats),
                 "--model", str(run / "model.json"), "--out", str(run),
                 "--kind", "pdp", "--feature", "speaking_rate",
                 "--seed", "5"]) == 0
    with open(run / "pdp_speaking_rate.csv", newline="") as fh:
        grid = [float(row["grid"]) for row in csv.DictReader(fh)]
    column = train[:, columns.index("speaking_rate")]
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
                 "--resources", str(RESOURCES_DIR), "--out", str(tmp_path / "o")])
    assert code != 0
    err = capsys.readouterr().err.strip().splitlines()[-1]
    payload = json.loads(err)
    assert payload["error"] == "FileNotFoundError"
    assert "missing.txt" in payload["message"]


def test_missing_resources_exit_without_output(pipeline_dirs, tmp_path,
                                               capsys):
    out = tmp_path / "out"
    assert main(["extract", "--manifest",
                 str(pipeline_dirs / "corpus" / "manifest.txt"),
                 "--resources", str(tmp_path / "nonexistent"),
                 "--out", str(out), "--groups", "FF,GVF"]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "FileNotFoundError"
    for name in RESOURCE_FILES:
        assert name in payload["message"]
    assert not out.exists()


@pytest.mark.parametrize("ratios", ["1:-1:1", "nan:1:1", "0:0:0"])
def test_bad_split_ratios_rejected(pipeline_dirs, tmp_path, capsys, ratios):
    corpus = pipeline_dirs / "corpus"
    assert main(["extract", "--manifest", str(corpus / "manifest.txt"),
                 "--resources", str(corpus / "resources"),
                 "--out", str(tmp_path / "x"), "--groups", "FF",
                 "--ratios", ratios]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ValueError"
    assert "three finite positive numbers" in payload["message"]
    assert not (tmp_path / "x" / "splits.json").exists()


def test_misspelled_formulation_rejected(pipeline_dirs, tmp_path, capsys):
    out = tmp_path / "report"
    assert main(["report", "--features", str(pipeline_dirs / "features"),
                 "--out", str(out), "--models", "linear",
                 "--formulations", "regresion"]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ValueError"
    assert "regresion" in payload["message"]
    assert not list(out.iterdir())


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


def _exit_code(argv) -> int:
    """`main`'s exit code, including argparse's exit 2 on a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _command(pipeline_dirs, command, out):
    if command == "extract":
        corpus = pipeline_dirs / "corpus"
        return ["extract", "--manifest", str(corpus / "manifest.txt"),
                "--resources", str(corpus / "resources"), "--out", str(out),
                "--groups", "FF"]
    model = "random_forest" if command == "train-forest" else "gbt"
    return ["train", "--features", str(pipeline_dirs / "features"),
            "--out", str(out), "--model", model]


def _param(key, value, model="gbt"):
    command = "train" if model == "gbt" else "train-forest"
    return (command, "params", json.dumps({key: value}), 1,
            f"{key} for {model} must be")


# (subcommand, option, value outside its range, exit code, text that the
# error must hold). Exit 1 is a range error in the JSON channel; exit 2 is
# argparse's usage error for a value of the wrong type or choice.
OUT_OF_RANGE = [
    ("extract", "min-df", "0", 1, "min_df"),
    ("extract", "min-df", "-3", 1, "min_df"),
    ("extract", "max-terms", "0", 1, "max_terms"),
    ("extract", "max-terms", "1e3", 2, "--max-terms"),
    ("extract", "rank-threshold", "-1", 1, "rank_threshold"),
    ("extract", "ld-mode", "dens", 2, "--ld-mode"),
    ("extract", "fmin", "0", 1, "fmin"),
    ("extract", "fmin", "500", 1, "fmin"),
    ("extract", "fmax", "nan", 1, "fmax"),
    ("extract", "fmax", "inf", 1, "fmax"),
    ("extract", "frame", "-0.04", 1, "frame"),
    ("extract", "frame", "nan", 1, "frame"),
    ("extract", "hop", "0", 1, "hop"),
    ("extract", "hop", "-1", 1, "hop"),
    ("extract", "threads", "0", 1, "--threads"),
    ("extract", "threads", "-1", 1, "--threads"),
    ("train", "threads", "0", 1, "--threads"),
    *(_param(key, value) for key, value in [
        ("max_depth", 0), ("max_depth", True), ("max_depth", 2.7),
        ("max_depth", None), ("min_samples_leaf", -4),
        ("min_samples_leaf", 0), ("min_samples_split", 1), ("n_stages", 0),
        ("learning_rate", "0.1"), ("learning_rate", True),
        ("learning_rate", 0), ("learning_rate", 1.5)]),
    _param("n_trees", 0, model="random_forest"),
    ("train", "params", "[1, 2]", 1, "mapping"),
    ("train", "grid", '{"max_depth": 3}', 1, "'max_depth'"),
    ("train", "grid", "[1]", 1, "--grid must be a JSON object"),
]


def test_empty_groups_rejected_before_any_output(pipeline_dirs, tmp_path, capsys):
    out = tmp_path / "out"
    # The last --groups wins over the helper's FF.
    assert main(_command(pipeline_dirs, "extract", out) + ["--groups", ","]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ValueError"
    assert "groups must name at least one" in payload["message"]
    assert not out.exists()


def test_params_must_be_an_object_before_the_grid_merge(pipeline_dirs, tmp_path,
                                                        capsys):
    out = tmp_path / "out"
    argv = _command(pipeline_dirs, "train", out) + [
        "--grid", '{"max_depth": [3]}', "--params", "[1, 2]"]
    assert main(argv) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ValueError"
    assert payload["message"].startswith("--params must be a JSON object")
    assert not out.exists()


def test_bad_ratios_rejected_before_rejects_are_written(pipeline_dirs, tmp_path,
                                                        capsys):
    corpus = pipeline_dirs / "corpus"
    manifest = tmp_path / "manifest.txt"
    (tmp_path / "bad.json").write_text("[]", encoding="utf-8")
    names = (corpus / "manifest.txt").read_text(encoding="utf-8").split()
    manifest.write_text("".join(f"{corpus / name}\n" for name in names)
                        + "bad.json\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["extract", "--manifest", str(manifest),
            "--resources", str(corpus / "resources"), "--out", str(out),
            "--groups", "FF"]
    assert main(argv + ["--ratios", "1:-1:1"]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "three finite positive numbers" in payload["message"]
    assert not out.exists()
    # The same corpus with valid ratios writes the reject beside the features.
    assert main(argv) == 0
    assert json.loads((out / "rejects.json").read_text())[0]["source"] == \
        str(tmp_path / "bad.json")


@pytest.mark.parametrize("route", ["argv", "config"])
@pytest.mark.parametrize("command, option, value, code, needle", OUT_OF_RANGE)
def test_out_of_range_option_rejected_before_any_output(
        pipeline_dirs, tmp_path, capsys, route, command, option, value, code,
        needle):
    out = tmp_path / "out"
    argv = _command(pipeline_dirs, command, out)
    if route == "argv":
        argv += [f"--{option}", value]
    else:
        config = tmp_path / "run.conf"
        config.write_text(f"{option.replace('-', '_')} = {value}\n")
        argv += ["--config", str(config)]
    assert _exit_code(argv) == code
    err = capsys.readouterr().err.strip().splitlines()[-1]
    if code == 1:
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        err = payload["message"]
    assert needle in err
    assert not out.exists()


@pytest.mark.parametrize("command, options", [
    ("extract", ["--min-df", "1", "--groups", "CF,FF"]),
    ("extract", ["--max-terms", "1", "--groups", "CF,FF"]),
    ("extract", ["--rank-threshold", "1", "--groups", "GVF"]),
    ("extract", ["--ld-mode", "diversity", "--groups", "GVF"]),
    ("extract", ["--fmin", "499.9"]),
    ("extract", ["--fmax", "75.1"]),
    ("extract", ["--frame", "1e-3"]),
    ("extract", ["--hop", "1e-3"]),
    ("extract", ["--threads", "2"]),
    ("train", ["--params", '{"max_depth": 1}']),
    ("train", ["--params", '{"min_samples_leaf": 1}']),
    ("train", ["--params", '{"min_samples_split": 2}']),
    ("train", ["--params", '{"n_stages": 1}']),
    ("train", ["--params", '{"learning_rate": 1}']),
    ("train-forest", ["--params", '{"n_trees": 1}']),
])
def test_option_range_ends_accepted(pipeline_dirs, tmp_path, command, options):
    out = tmp_path / "out"
    # A later --groups overrides the helper's FF.
    assert main(_command(pipeline_dirs, command, out) + options) == 0
    assert (out / ("features.csv" if command == "extract"
                   else "model.json")).exists()


def test_config_semantics(pipeline_dirs, tmp_path, capsys):
    def extract(out, *extra, config=None):
        argv = _command(pipeline_dirs, "extract", tmp_path / out) + list(extra)
        if config is not None:
            (tmp_path / f"{out}.conf").write_text(config)
            argv += ["--config", str(tmp_path / f"{out}.conf")]
        return _exit_code(argv)

    # A value on the command line wins, even when it equals the default.
    assert extract("wins", "--groups", "CF", "--max-terms", "1000",
                   config="max_terms = 7\n") == 0
    header = (tmp_path / "wins" / "features.csv").read_text().splitlines()[0]
    assert header.split(",").count("CF") > 7

    # An unknown key, or one that only abbreviates an option, is an error.
    for config in ("max_term = 5\n", "func = 3\n"):
        assert extract("unknown", config=config) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "unknown").exists()

    # `key = true` is the bare flag; `key = false` leaves the flag off.
    assert extract("flag", "--groups", "SPF", "--include-secondary-stress") == 0
    assert extract("true", "--groups", "SPF",
                   config="include_secondary_stress = true\n") == 0
    assert extract("plain", "--groups", "SPF") == 0
    assert extract("false", "--groups", "SPF",
                   config="include_secondary_stress = false\n") == 0
    for a, b in (("flag", "true"), ("plain", "false")):
        assert (tmp_path / a / "features.csv").read_bytes() == \
            (tmp_path / b / "features.csv").read_bytes()


def test_prompt_id_cannot_leave_the_output_directory(pipeline_dirs, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    escaping = {"../escaped", str(tmp_path / "abs"), "..", ""}
    for i, src in enumerate(sorted((pipeline_dirs / "corpus").glob("*.json"))):
        payload = json.loads(src.read_text())
        payload["prompt_id"] = sorted(escaping)[i // 10 % 4] if i % 10 == 0 \
            else "p1"
        (corpus / src.name).write_text(json.dumps(payload))
    out = tmp_path / "out" / "feats"
    assert main(["extract", "--manifest", str(corpus),
                 "--resources", str(pipeline_dirs / "corpus" / "resources"),
                 "--out", str(out), "--groups", "FF"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "out"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["feats"]
    assert (out / "features.csv").exists()
    rejects = json.loads((out / "rejects.json").read_text())
    assert len(rejects) == 10
    assert all("not one plain path component" in r["reason"] for r in rejects)
    assert {json.loads(Path(r["source"]).read_text())["prompt_id"]
            for r in rejects} == escaping
