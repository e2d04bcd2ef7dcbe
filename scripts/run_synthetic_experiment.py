#!/usr/bin/env python3
"""Full synthetic experiment: generate a corpus, benchmark every model in
both formulations, run both ablations, and emit explanation artifacts for
the boosted regressor. The dataset holds one matrix of raw features, so the
PDP grids and SHAP colours are in feature units (words per second, pause
counts).

Usage:
    python scripts/run_synthetic_experiment.py --out runs/demo --n 800 --seed 7
"""

import argparse
import json
from pathlib import Path

from speechscore import svg
from speechscore.corpus import default_resources
from speechscore.explain import gain_importance, pdp, shap_summary
from speechscore.features import ExtractorConfig
from speechscore.harness import (ablation_additive, ablation_leave_one_out,
                                 prepare_prompt, run_benchmark, tune, _train)
from speechscore.synth import SynthSpec, synth_corpus


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="runs/synthetic")
    ap.add_argument("--n", type=int, default=800)
    ap.add_argument("--grades", type=int, default=3)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--threads", type=int, default=1,
                    help="feature-extraction worker processes (forked)")
    ap.add_argument("--audio", action="store_true",
                    help="include the acoustic feature group (slower)")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    resources = default_resources()
    spec = SynthSpec(n=args.n, grade_levels=args.grades, seed=args.seed,
                     audio=args.audio, second_rater_disagreement=0.15)
    responses, audio = synth_corpus(spec, resources)
    groups = ("CF", "FF", "SPF", "GVF") + (("AF",) if args.audio else ())
    config = ExtractorConfig(groups=groups, max_terms=150, seed=args.seed)
    dataset = prepare_prompt(responses, resources, config,
                             audio_lookup=audio, threads=args.threads)
    print(f"extracted {dataset.matrix.values.shape} matrix "
          f"({len(set(dataset.matrix.groups))} groups)")

    best, cv = tune(dataset, {"max_depth": [3, 4], "n_stages": [100]},
                    "gbt", "regression", folds=5, seed=args.seed)
    print("grid search ->", best)

    benchmark = run_benchmark(dataset, seed=args.seed,
                              params={"gbt": best})
    (out / "benchmark.json").write_text(json.dumps(benchmark, indent=1,
                                                   sort_keys=True))
    for row in benchmark["rows"]:
        print(f"  {row['model']:>16s} {row['formulation']:<14s} "
              f"test qwk={row['test']['qwk']:.3f}")
    if "human_human" in benchmark:
        print(f"  {'HH':>16s} {'':14s} "
              f"test qwk={benchmark['human_human']['test']['qwk']:.3f}")

    for mode, fn in (("add", ablation_additive), ("drop", ablation_leave_one_out)):
        report = fn(dataset, seed=args.seed, params=best)
        (out / f"ablation_{mode}.json").write_text(
            json.dumps(report.to_json(), indent=1, sort_keys=True))
        for row in report.rows:
            print(f"  [{mode}] {row['configuration']:>20s} "
                  f"qwk={row['qwk']:.3f} ({row['pct_change']:+.1f}%)")

    model = _train(dataset, "gbt", "regression", best, seed=args.seed)
    ranking = gain_importance(model)
    top = ranking.entries[:20]
    svg.bar_chart([n for n, _ in top], [v for _, v in top],
                  "feature importance (gain)", out / "importance.svg")
    X_train, _, _, columns = dataset.design("train")
    for feature, _ in top[:3]:
        curve = pdp(model, X_train, columns, feature, n_grid=20)
        svg.line_chart(curve.grid, curve.mean_prediction,
                       f"partial dependence: {feature}",
                       out / f"pdp_{feature.replace('/', '_').replace(':', '_')}.svg",
                       x_label=feature, y_label="mean prediction")
    rows = X_train[:150]
    summary = shap_summary(model, rows)
    svg.beeswarm(summary.ranking, summary.phi, summary.feature_values,
                 summary.columns, "SHAP summary", out / "shap_summary.svg")
    print("top SHAP features:", [n for n, _ in summary.ranking[:5]])
    print(f"artifacts in {out}")


if __name__ == "__main__":
    main()
