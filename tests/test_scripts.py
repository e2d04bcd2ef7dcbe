"""Smoke runs of the scripts under scripts/: each must exit 0.

They import the harness and learner names that refactors move, and tier-1
would not otherwise run them. Each runs in its own interpreter with
``PYTHONPATH=src`` and writes only under the test's temporary directory.
"""

import hashlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script),
         *(a.format(tmp=tmp_path) for a in args)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


@pytest.mark.parametrize("script, args", [
    ("af_profile.py", ["--seconds", "1", "--repeats", "1"]),
    ("fit_profile.py", ["--n", "50", "--models", "gbt", "--tasks", "regression",
                        "classification", "--repeats", "1"]),
])
def test_script_runs(tmp_path, script, args):
    stdout = _run(tmp_path, script, args)
    if script == "fit_profile.py":
        _check_fit_digests(tmp_path, stdout)


def _check_fit_digests(tmp_path, stdout):
    """Each fit_profile row's digest is the SHA-256 prefix of the model file
    that `save_model` writes for the same fit."""
    from speechscore.harness import load_prompt_dataset
    from speechscore.learners import fit_model, save_model, task_weights

    header, *rows = stdout.splitlines()
    assert header.split()[4:6] == ["fit_s", "model_sha256"]
    script = runpy.run_path(str(ROOT / "scripts" / "fit_profile.py"))
    features = tmp_path / "features"
    script["_build"](50, 7, features)
    dataset = load_prompt_dataset(features)
    X, y, _, columns = dataset.design("train")
    seen = set()
    for row in rows:
        _, _, model, task, _, digest = row.split()[:6]
        fitted = fit_model(model, {}, X, y, task_weights(y, task), task=task,
                           n_classes=dataset.n_classes, seed=7, feature_names=columns)
        save_model(fitted, tmp_path / "model.json")
        data = (tmp_path / "model.json").read_bytes()
        assert digest == hashlib.sha256(data).hexdigest()[:12]
        seen.add((model, task))
    assert seen == {("gbt", "regression"), ("gbt", "classification")}


def test_artifact_digests_runs(tmp_path):
    """One sorted ``sha256  path`` line per pipeline output."""
    lines = _run(tmp_path, "artifact_digests.py", ["--n", "50", "--seed", "7"]).splitlines()
    paths = [line.split("  ", 1)[1] for line in lines]
    assert paths == sorted(paths) and len(set(paths)) == len(paths)
    assert all(len(line.split("  ", 1)[0]) == 64 for line in lines)
    for expected in ("corpus/manifest.txt", "features/features.csv",
                     "gbt_regression/model.json", "gbt_regression/cv_table.json",
                     "gbt_classification/report.json",
                     "gbt_classification/cv_table.json", "explain/importance.csv",
                     "explain/pdp_speaking_rate.csv", "explain/shap_values.csv",
                     "report/benchmark.json", "ablate/ablation_add.json",
                     "ablate/ablation_drop.json", "audio_corpus/subset.txt"):
        assert expected in paths, expected
    digest = {path: sha for sha, path in (line.split("  ", 1) for line in lines)}
    for framing in ("audio_features", "audio_features_frame30"):
        for name in ("features.csv", "flags.json", "labels.csv", "splits.json"):
            assert (digest[f"{framing}_threads1/{name}"]
                    == digest[f"{framing}_threads2/{name}"]), (framing, name)


def test_explain_profile_runs(tmp_path):
    from speechscore.cli import main

    corpus, feats, run = tmp_path / "corpus", tmp_path / "features", tmp_path / "run"
    assert main(["synth", "--n", "50", "--seed", "3", "--out", str(corpus)]) == 0
    assert main(["extract", "--manifest", str(corpus / "manifest.txt"),
                 "--resources", str(corpus / "resources"), "--out", str(feats),
                 "--groups", "FF,SPF", "--seed", "3"]) == 0
    assert main(["train", "--features", str(feats), "--out", str(run),
                 "--seed", "3", "--params", '{"n_stages": 3}']) == 0
    stdout = _run(tmp_path, "explain_profile.py",
                  ["--features", str(feats), "--model", str(run / "model.json"),
                   "--repeats", "1"])
    for piece in ("load_prompt_dataset", "shap_summary", "csv shap_values.csv",
                  "svg shap_summary.svg"):
        assert piece in stdout


def test_extract_profile_runs(tmp_path):
    """One timing line per extract layer, then the digest of the
    features.csv that `extract` writes for the same corpus."""
    from speechscore.cli import main

    lines = _run(tmp_path, "extract_profile.py",
                 ["--n", "50", "--repeats", "1"]).splitlines()
    assert [line.split()[0] for line in lines[1:-1]] == [
        "read", "json", "parse", "fluency", "prosody", "grammar", "vectorize",
        "csv"]
    corpus, features = tmp_path / "corpus", tmp_path / "features"
    for argv in (["synth", "--n", "50", "--out", str(corpus)],
                 ["extract", "--manifest", str(corpus),
                  "--resources", str(corpus / "resources"),
                  "--out", str(features), "--groups", "CF,FF,SPF,GVF",
                  "--max-terms", "120"]):
        assert main(argv + ["--seed", "7"]) == 0
    digest = hashlib.sha256((features / "features.csv").read_bytes()).hexdigest()
    assert lines[-1] == f"features.csv sha256 {digest[:12]}"
