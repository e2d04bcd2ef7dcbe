"""Smoke runs of the scripts under scripts/: each must exit 0.

They import the harness and learner names that refactors move, and tier-1
would not otherwise run them. Each runs in its own interpreter with
``PYTHONPATH=src`` and writes only under the test's temporary directory.
"""

import os
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
    ("run_synthetic_experiment.py", ["--n", "50", "--out", "{tmp}/out"]),
    ("af_profile.py", ["--seconds", "1", "--repeats", "1"]),
    ("fit_profile.py", ["--n", "50", "--models", "gbt", "--tasks", "regression",
                        "--repeats", "1"]),
])
def test_script_runs(tmp_path, script, args):
    _run(tmp_path, script, args)


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
