"""Print the SHA-256 of every file the command-line pipeline writes.

Runs, through `speechscore.cli.main` only and in a temporary directory:
synth; extract (text groups, 120 vocabulary terms); train a grid-searched
GBT regressor and a grid-searched GBT classifier, whose CV tables cover
plain and stratified folds; evaluate both; explain the regressor
three ways (importance, PDP, SHAP); report; ablate add and drop. Then, on
a second corpus of 50 responses with audio and two grades: extract of all
five groups (AF from WAVs read by path) on the first three responses of
each grade in manifest order, once at ``--threads 1`` and once at
``--threads 2``, into two directories; then the same two extracts at
``--frame 0.03 --hop 0.007 --fmin 90 --fmax 400``. Then it prints one
``sha256  path`` line per output file, sorted by path, with paths relative
to the run directory.

It calls nothing but the CLI, so one copy of this file runs against any
checkout's ``src/``; identical output shows that a change keeps every
artifact byte-identical:

    PYTHONPATH=src python scripts/artifact_digests.py --n 200 --seed 7 > new.txt
    PYTHONPATH=../old/src python scripts/artifact_digests.py --n 200 --seed 7 > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from speechscore.cli import main as cli

GRID = '{"max_depth": [2, 3]}'
PARAMS = '{"n_stages": 30}'
# The AF subset's output directories, each with its extract options: the
# default framing, and one whose pitch FFT length (675 at 16 kHz) is not a
# power of two.
FRAMINGS = {
    "audio_features": [],
    "audio_features_frame30": ["--frame", "0.03", "--hop", "0.007",
                               "--fmin", "90", "--fmax", "400"],
}


def run_pipeline(root: Path, n: int, seed: int) -> None:
    corpus, feats = root / "corpus", root / "features"
    regressor, classifier = root / "gbt_regression", root / "gbt_classification"
    steps = [
        ["synth", "--n", str(n), "--grades", "3", "--out", str(corpus)],
        ["extract", "--manifest", str(corpus / "manifest.txt"),
         "--resources", str(corpus / "resources"), "--out", str(feats),
         "--groups", "CF,FF,SPF,GVF", "--max-terms", "120"],
        ["train", "--features", str(feats), "--out", str(regressor),
         "--model", "gbt", "--grid", GRID, "--params", PARAMS],
        ["train", "--features", str(feats), "--out", str(classifier),
         "--model", "gbt", "--task", "classification", "--grid", GRID,
         "--params", PARAMS],
    ]
    for model in (regressor, classifier):
        steps.append(["evaluate", "--features", str(feats),
                      "--model", str(model / "model.json"), "--out", str(model)])
    for kind in (["importance"], ["pdp", "--feature", "speaking_rate"], ["shap"]):
        steps.append(["explain", "--features", str(feats),
                      "--model", str(regressor / "model.json"),
                      "--out", str(root / "explain"), "--kind", *kind])
    steps.append(["report", "--features", str(feats), "--out", str(root / "report")])
    for mode in ("add", "drop"):
        steps.append(["ablate", "--features", str(feats), "--out",
                      str(root / "ablate"), "--mode", mode, "--params", PARAMS])
    for step in steps:
        _run(step, seed)

    audio = root / "audio_corpus"
    _run(["synth", "--n", "50", "--grades", "2", "--audio", "--out", str(audio)], seed)
    subset = _grade_subset(audio, 3)
    for name, framing in FRAMINGS.items():
        for threads in ("1", "2"):
            _run(["extract", "--manifest", str(subset),
                  "--resources", str(audio / "resources"),
                  "--out", str(root / f"{name}_threads{threads}"),
                  "--groups", "CF,FF,SPF,GVF,AF", "--threads", threads,
                  *framing], seed)


def _run(step: list[str], seed: int) -> None:
    # The steps' progress lines would mix with the digests on stdout.
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli(step + ["--seed", str(seed)])
    if status != 0:
        raise SystemExit(f"step failed ({status}): {' '.join(step)}")


def _grade_subset(corpus: Path, per_grade: int) -> Path:
    """A manifest of the first `per_grade` responses of each grade, in
    manifest order; the split needs at least three of each."""
    picked, seen = [], {}
    for name in (corpus / "manifest.txt").read_text(encoding="utf-8").split():
        grade = json.loads((corpus / name).read_text(encoding="utf-8"))["grade"]
        seen[grade] = seen.get(grade, 0) + 1
        if seen[grade] <= per_grade:
            picked.append(name)
    subset = corpus / "subset.txt"
    subset.write_text("\n".join(picked) + "\n", encoding="utf-8")
    return subset


def digests(root: Path) -> list[str]:
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
            f"{path.relative_to(root).as_posix()}"
            for path in sorted(root.rglob("*")) if path.is_file()]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=200, help="synthetic responses")
    parser.add_argument("--seed", type=int, default=7, help="seed of every step")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        run_pipeline(Path(tmp), args.n, args.seed)
        print("\n".join(digests(Path(tmp))))


if __name__ == "__main__":
    main()
