#!/usr/bin/env python3
"""In-process time of each piece behind `evaluate` and `explain`.

For an extract-stage directory and a trained model, it runs each piece
`--repeats` times in one process and prints the fastest run in
milliseconds: loading the dataset and the model, the evaluation report,
SHAP, gain importance and one PDP, and each CSV and SVG those commands
write. Each piece calls the functions the CLI calls, with the CLI's
arguments. The fastest of many runs of a few milliseconds varies far less
than a whole benchmark run, so two source trees can be compared piece by
piece by running this script against each.

Importance and SHAP explain tree ensembles only; for a linear model their
pieces are skipped.

Usage:
    PYTHONPATH=src python scripts/explain_profile.py --features DIR
        --model DIR/model.json [--repeats 15] [--max-samples 200]
        [--feature NAME]
"""

import argparse
import tempfile
import time
from pathlib import Path

from speechscore import cli, harness, svg
from speechscore.corpus import write_float_csv
from speechscore.explain import gain_importance, pdp, shap_summary
from speechscore.learners import load_model

# The PDP grid size of `explain`'s --n-grid default.
PDP_GRID = 20


def _fastest(repeats: int, fn):
    """Run fn `repeats` times; return its last result and the fastest run."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--features", required=True, help="extract-stage directory")
    ap.add_argument("--model", required=True, help="model.json path")
    ap.add_argument("--repeats", type=int, default=15,
                    help="runs per piece; the fastest is reported")
    ap.add_argument("--max-samples", type=int, default=200,
                    help="train rows explained by SHAP, as in `explain`")
    ap.add_argument("--feature", default=None,
                    help="PDP feature (default: the top SHAP feature, or "
                         "the first column)")
    args = ap.parse_args()
    if args.repeats < 1 or args.max_samples < 1:
        raise SystemExit("--repeats and --max-samples must be at least 1")

    timings = []

    def piece(name, fn):
        result, best = _fastest(args.repeats, fn)
        timings.append((name, best))
        return result

    dataset = piece("load_prompt_dataset",
                    lambda: harness.load_prompt_dataset(args.features))
    model, payload = piece("load_model",
                           lambda: load_model(args.model, with_payload=True))
    model_key = harness.recorded_model_key(payload)
    X, _, columns = harness._inputs(dataset, model_key, "train", model=model)
    piece("evaluation_entries", lambda: harness.evaluation_entries(
        dataset, model, model_key))

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        piece("csv features.csv", lambda: dataset.matrix.to_csv(out / "features.csv"))
        feature = args.feature or columns[0]
        try:
            summary = piece("shap_summary",
                            lambda: shap_summary(model, X[:args.max_samples]))
            ranking = piece("gain_importance", lambda: gain_importance(model))
        except ValueError as exc:       # not a tree ensemble
            print(f"skipping SHAP and importance: {exc}")
        else:
            feature = args.feature or summary.ranking[0][0]
            piece("csv shap_values.csv", lambda: write_float_csv(
                out / "shap_values.csv", [summary.columns], summary.phi))
            piece("csv shap_ranking.csv", lambda: cli._write_csv(
                out / "shap_ranking.csv", ["feature", "mean_abs_phi"],
                ([name, repr(value)] for name, value in summary.ranking)))
            piece("csv importance.csv", lambda: cli._write_csv(
                out / "importance.csv", ["feature", "importance"],
                ([name, repr(value)] for name, value in ranking.entries)))
            piece("svg shap_summary.svg", lambda: svg.beeswarm(
                summary.ranking, summary.phi, summary.feature_values,
                summary.columns, "SHAP summary", out / "shap_summary.svg"))
            top = ranking.entries[:25]
            piece("svg importance.svg", lambda: svg.bar_chart(
                [n for n, _ in top], [v for _, v in top],
                "feature importance (gain)", out / "importance.svg"))
        curve = piece(f"pdp {feature}",
                      lambda: pdp(model, X, columns, feature, n_grid=PDP_GRID))
        piece("csv pdp.csv", lambda: cli._write_csv(
            out / "pdp.csv", ["grid", "mean_prediction"],
            ([repr(float(g)), repr(float(v))]
             for g, v in zip(curve.grid, curve.mean_prediction))))
        piece("svg pdp.svg", lambda: svg.line_chart(
            curve.grid, curve.mean_prediction, f"partial dependence: {feature}",
            out / "pdp.svg", x_label=feature, y_label="mean prediction"))

    print(f"{X.shape[0]} train rows x {X.shape[1]} columns, {model_key} "
          f"{model.task}, fastest of {args.repeats} runs")
    for name, best in timings:
        print(f"{name:<40} {best * 1e3:9.2f} ms")


if __name__ == "__main__":
    main()
