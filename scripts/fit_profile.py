#!/usr/bin/env python3
"""Fit time, model digest, page faults and peak memory of each tree learner.

For each corpus size, a child process builds the text feature matrix of
the synthetic corpus at the given seed, as the benchmark does (`synth`, then
`extract` of CF, FF, SPF and GVF at `--max-terms 120`). Then, for each
learner kind and formulation, another child loads the train split, fits
the learner with its row of `learners.DEFAULT_PARAMS` `--repeats` times and
reports the fastest fit in seconds, the first 12 hex digits of the SHA-256
of the fitted model's JSON (the bytes `save_model` writes), the minor page
faults (`ru_minflt`) per fit and peak RSS (`ru_maxrss`): once after loading
and once after fitting. Each step runs in its own process so that one peak
does not hide the next. Runs of two versions of the code at the same seed
and sizes then compare speed and byte identity per learner and formulation.

Usage:
    PYTHONPATH=src python scripts/fit_profile.py [--n 200 800] [--seed 7]
        [--models decision_tree random_forest gbt]
        [--tasks regression classification] [--repeats 3]
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def _build(n: int, seed: int, features: Path) -> None:
    from speechscore import cli

    corpus = features.with_name(features.name + "-corpus")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["synth", "--n", str(n), "--out", str(corpus)],
                     ["extract", "--manifest", str(corpus),
                      "--resources", str(corpus / "resources"),
                      "--out", str(features), "--groups", "CF,FF,SPF,GVF",
                      "--max-terms", "120"]):
            if cli.main(argv + ["--seed", str(seed)]) != 0:
                raise SystemExit(f"speechscore {argv[0]} failed")


def _child(features: str, model: str, task: str, repeats: int, seed: int) -> None:
    import numpy as np
    from speechscore.harness import load_prompt_dataset
    from speechscore.learners import class_weights, fit_model

    dataset = load_prompt_dataset(features)
    X, y, _, columns = dataset.design("train")
    # Unit weights for regression, spelled out rather than read from
    # `learners.task_weights`, so that the script runs on older trees too.
    weights = (class_weights(y) if task == "classification"
               else np.ones(y.size))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    input_rss, faults = usage.ru_maxrss / 1024.0, usage.ru_minflt
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fitted = fit_model(model, {}, X, y, weights, task=task,
                           n_classes=dataset.n_classes, seed=seed,
                           feature_names=columns)
        best = min(best, time.perf_counter() - start)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    payload = json.dumps(fitted.to_json(), sort_keys=True).encode("utf-8")
    print(f"{X.shape[0]:>6} {X.shape[1]:>4} {model:>14} {task:>14} {best:8.3f} "
          f"{hashlib.sha256(payload).hexdigest()[:12]:>12} "
          f"{(usage.ru_minflt - faults) / repeats:>12.0f} {input_rss:>13.1f} "
          f"{usage.ru_maxrss / 1024.0:>12.1f}", flush=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=[200, 800],
                    help="corpus sizes; 70%% of each is the train split")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--models", nargs="+",
                    default=["decision_tree", "random_forest", "gbt"],
                    choices=["decision_tree", "random_forest", "gbt"])
    ap.add_argument("--tasks", nargs="+", default=["regression", "classification"],
                    choices=["regression", "classification"])
    ap.add_argument("--repeats", type=int, default=3,
                    help="fits per learner; the fastest is reported")
    ap.add_argument("--build", metavar="FEATURES", help=argparse.SUPPRESS)
    ap.add_argument("--child", nargs=3, metavar=("FEATURES", "MODEL", "TASK"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if args.build:
        _build(args.n[0], args.seed, Path(args.build))
        return
    if args.child:
        _child(*args.child, args.repeats, args.seed)
        return
    print(f"{'rows':>6} {'cols':>4} {'model':>14} {'task':>14} {'fit_s':>8} "
          f"{'model_sha256':>12} {'minflt/fit':>12} {'input_rss_mb':>13} "
          f"{'peak_rss_mb':>12}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.n:
            features = Path(tmp) / f"features{n}"
            subprocess.run([sys.executable, __file__, "--build", str(features),
                            "--n", str(n), "--seed", str(args.seed)], check=True)
            for model in args.models:
                for task in args.tasks:
                    subprocess.run([sys.executable, __file__, "--child",
                                    str(features), model, task,
                                    "--repeats", str(args.repeats),
                                    "--seed", str(args.seed)], check=True)


if __name__ == "__main__":
    main()
