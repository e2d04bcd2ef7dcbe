"""Command-line pipeline: extract | train | evaluate | explain | ablate |
synth | report.

Every command is deterministic given its inputs and ``--seed``;
``--threads`` sets the feature-extraction worker processes, forked (POSIX
``fork``) from a process that must be single-threaded, and never changes
results; training is serial.
Failures print a machine-readable JSON error to stderr and exit 1; argparse
rejects a malformed option with exit 2. A ``--config`` file of
``key = value`` lines is read as the chosen subcommand's options, placed
before the command line's own, so the command line wins.
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import sys
from dataclasses import fields
from pathlib import Path

from . import harness, svg
from .corpus import (RESOURCE_FILES, RESOURCES_DIR, SPLIT_RATIOS,
                     LexicalResources, load_corpus, split_shares,
                     write_float_csv)
from .explain import gain_importance, pdp, shap_summary
from .features import ExtractorConfig
from .grammar import LD_MODES
from .learners import load_model, save_model
from .synth import SCORE_FUNCTIONS, SynthSpec, synth_corpus, write_corpus
from .trees import TASKS


def _config_tokens(path: str) -> list[str]:
    """A config file's ``key = value`` lines as command-line tokens:
    ``--key=value``, a bare ``--key`` for ``true`` and nothing for ``false``."""
    tokens = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag, value = "--" + key.replace("_", "-"), value.strip("\"'")
        if value.lower() != "false":
            tokens.append(flag if value.lower() == "true" else f"{flag}={value}")
    return tokens


def _groups(text: str) -> tuple[str, ...]:
    return tuple(g.strip().upper() for g in text.split(",") if g.strip())


def _ratios(text: str) -> tuple[float, ...]:
    return tuple(float(r) for r in text.split(":"))


def _json_object(text: str | None, option: str) -> dict:
    """The JSON object an option holds; {} when the option is not given."""
    value = json.loads(text) if text else {}
    if not isinstance(value, dict):
        raise ValueError(f"{option} must be a JSON object (a mapping of "
                         f"names to values), got {text!r}")
    return value


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1),
                    encoding="utf-8")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_extract(args) -> int:
    config = ExtractorConfig(**{f.name: getattr(args, f.name)
                                for f in fields(ExtractorConfig)})
    split_shares(args.ratios)       # checked before any output is written
    resources = LexicalResources.load(args.resources)
    corpus = load_corpus(args.manifest)
    out = _out_dir(args)
    if corpus.rejected:
        _write_json(out / "rejects.json",
                    [{"source": s, "reason": r} for s, r in corpus.rejected])
    if not corpus.responses:
        raise ValueError("no valid responses in the corpus")
    by_prompt = corpus.by_prompt()
    for prompt_id, responses in sorted(by_prompt.items()):
        dataset = harness.prepare_prompt(responses, resources, config,
                                         ratios=args.ratios,
                                         threads=args.threads)
        target = out if len(by_prompt) == 1 else out / prompt_id
        harness.save_prompt_dataset(dataset, target)
        print(f"{prompt_id}: {len(responses)} responses, "
              f"{len(dataset.matrix.columns)} features -> {target}")
    return 0


def cmd_train(args) -> int:
    dataset = harness.load_prompt_dataset(args.features)
    task = args.task
    params = _json_object(args.params, "--params")
    cv_table = None
    if args.grid:
        # --params enter the grid as singleton axes, so the CV scores the
        # model that the refit below fits.
        grid = dict(_json_object(args.grid, "--grid"),
                    **{k: [v] for k, v in params.items()})
        params, cv_table = harness.tune(dataset, grid, args.model, task,
                                        folds=args.folds, seed=args.seed)
    model = harness._train(dataset, args.model, task, params, seed=args.seed)
    out = _out_dir(args)
    save_model(model, out / "model.json", extra={
        "model_key": args.model, "formulation": task,
        "params": params, "seed": args.seed,
        "n_grade_levels": dataset.n_classes})
    if cv_table is not None:
        _write_json(out / "cv_table.json", cv_table)
        _write_csv(out / "cv_table.csv",
                   ["params", "mean_qwk", "mean_mse", "flagged"],
                   ([json.dumps(row["params"], sort_keys=True),
                     repr(row["mean_qwk"]), repr(row["mean_mse"]),
                     row["flagged"]] for row in cv_table))
    print(f"trained {args.model} ({task}) -> {out / 'model.json'}")
    return 0


def cmd_evaluate(args) -> int:
    dataset = harness.load_prompt_dataset(args.features)
    model, payload = load_model(args.model, with_payload=True)
    out = _out_dir(args)
    model_key = harness.recorded_model_key(payload)
    report = {"prompt": dataset.prompt_id, "model": model_key,
              "formulation": model.task, "n_classes": dataset.n_classes,
              **harness.evaluation_entries(dataset, model, model_key)}
    _write_json(out / "report.json", report)
    print(json.dumps({s: round(report[s]["qwk"], 4) for s in harness.SPLITS}))
    return 0


def cmd_explain(args) -> int:
    dataset = harness.load_prompt_dataset(args.features)
    model, payload = load_model(args.model, with_payload=True)
    out = _out_dir(args)
    X, _, columns = harness._inputs(dataset, harness.recorded_model_key(payload),
                                    "train", model=model)
    kind = args.kind
    if kind == "importance":
        ranking = gain_importance(model)
        _write_csv(out / "importance.csv", ["feature", "importance"],
                   ([name, repr(value)] for name, value in ranking.entries))
        top = ranking.entries[:25]
        svg.bar_chart([n for n, _ in top], [v for _, v in top],
                      "feature importance (gain)", out / "importance.svg")
    elif kind == "pdp":
        if not args.feature:
            raise ValueError("explain pdp requires --feature")
        curve = pdp(model, X, columns, args.feature, n_grid=args.n_grid)
        _write_csv(out / f"pdp_{_slug(args.feature)}.csv",
                   ["grid", "mean_prediction"],
                   ([repr(float(g)), repr(float(v))]
                    for g, v in zip(curve.grid, curve.mean_prediction)))
        svg.line_chart(curve.grid, curve.mean_prediction,
                       f"partial dependence: {args.feature}",
                       out / f"pdp_{_slug(args.feature)}.svg",
                       x_label=args.feature, y_label="mean prediction")
    else:                       # shap: argparse allows only the three kinds
        if args.max_samples < 1:
            raise ValueError(f"--max-samples must be at least 1, "
                             f"got {args.max_samples}")
        summary = shap_summary(model, X[:args.max_samples])
        write_float_csv(out / "shap_values.csv", [summary.columns], summary.phi)
        _write_csv(out / "shap_ranking.csv", ["feature", "mean_abs_phi"],
                   ([name, repr(value)] for name, value in summary.ranking))
        svg.beeswarm(summary.ranking, summary.phi, summary.feature_values,
                     summary.columns, "SHAP summary", out / "shap_summary.svg")
    print(f"wrote {kind} artifacts to {out}")
    return 0


def _slug(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)


def cmd_ablate(args) -> int:
    dataset = harness.load_prompt_dataset(args.features)
    out = _out_dir(args)
    params = _json_object(args.params, "--params")
    if args.mode == "add":
        order = _groups(args.order) if args.order else None
        report = harness.ablation_additive(dataset, order=order, seed=args.seed,
                                           params=params)
    else:                       # drop: argparse allows only add and drop
        report = harness.ablation_leave_one_out(dataset, seed=args.seed,
                                                params=params)
    _write_json(out / f"ablation_{args.mode}.json", report.to_json())
    _write_csv(out / f"ablation_{args.mode}.csv",
               ["configuration", "qwk", "r", "mse", "pct_change"],
               ([row["configuration"], repr(row["qwk"]), repr(row["r"]),
                 repr(row["mse"]), repr(row["pct_change"])]
                for row in report.rows))
    svg.bar_chart([r["configuration"] for r in report.rows],
                  [r["qwk"] for r in report.rows],
                  f"ablation ({args.mode}): test QWK",
                  out / f"ablation_{args.mode}.svg")
    for row in report.rows:
        print(f"{row['configuration']:>24s}  qwk={row['qwk']:.4f} "
              f"({row['pct_change']:+.1f}%)")
    return 0


def cmd_synth(args) -> int:
    spec = SynthSpec(n=args.n, grade_levels=args.grades, seed=args.seed,
                     score_function=args.score_function, noise=args.noise,
                     second_rater_disagreement=args.second_rater,
                     prompt_id=args.prompt_id)
    responses = synth_corpus(spec)
    out = _out_dir(args)
    manifest = write_corpus(responses, out, args.seed if args.audio else None)
    resdir = out / "resources"
    resdir.mkdir(exist_ok=True)
    for name in RESOURCE_FILES:
        shutil.copyfile(RESOURCES_DIR / name, resdir / name)
    print(f"wrote {len(responses)} responses, manifest {manifest}")
    return 0


def cmd_report(args) -> int:
    dataset = harness.load_prompt_dataset(args.features)
    out = _out_dir(args)
    models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    formulations = tuple(f.strip() for f in args.formulations.split(",") if f.strip())
    report = harness.run_benchmark(dataset, models=models,
                                   formulations=formulations, seed=args.seed,
                                   params={})
    _write_json(out / "benchmark.json", report)
    _write_csv(out / "benchmark.csv",
               ["prompt", "model", "formulation", "split", "qwk", "r", "mse"],
               ([row["prompt"], row["model"], row["formulation"], split_name,
                 repr(row[split_name]["qwk"]), repr(row[split_name]["pearson_r"]),
                 repr(row[split_name]["mse"])]
                for row in report["rows"] for split_name in harness.SPLITS))
    if "human_human" in report:
        _write_json(out / "human_human.json", report["human_human"])
    for row in report["rows"]:
        target = out / row["prompt"] / row["model"] / row["formulation"]
        target.mkdir(parents=True, exist_ok=True)
        _write_json(target / "report.json", row)
        print(f"{row['model']:>16s} {row['formulation']:<14s} "
              f"test qwk={row['test']['qwk']:.4f} r={row['test']['pearson_r']:.4f} "
              f"mse={row['test']['mse']:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speechscore",
        description="Interpretable feature-based scoring of spoken responses")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        # Long options must be spelled out, so a misspelled config key is an
        # error, not a prefix of some option.
        p = sub.add_parser(name, help=summary, allow_abbrev=False,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--threads", type=int, default=1,
                       help="feature-extraction worker processes (POSIX "
                            "fork), >= 1 (never changes results; training "
                            "is serial)")
        p.add_argument("--config", default=None,
                       help="file of key = value lines, read as options "
                            "placed before the command line's")
        return p

    p = command("extract", "extract feature matrices from a corpus")
    p.add_argument("--manifest", required=True,
                   help="alignment manifest file or corpus directory")
    p.add_argument("--resources", required=True,
                   help="directory with frequency/complexity/stopword/filler lists")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--groups", type=_groups,
                   default=",".join(ExtractorConfig.groups),
                   help="comma-separated feature groups")
    p.add_argument("--ratios", type=_ratios,
                   default=":".join(map(str, SPLIT_RATIOS)),
                   help="train:valid:test")
    p.add_argument("--min-df", type=int, default=ExtractorConfig.min_df,
                   help="tf-idf min document frequency (>= 1)")
    p.add_argument("--max-terms", type=int, default=ExtractorConfig.max_terms,
                   help="tf-idf vocabulary cap (>= 1)")
    p.add_argument("--rank-threshold", type=int,
                   default=ExtractorConfig.rank_threshold,
                   help="frequency rank beyond which a word is sophisticated "
                        "(>= 1)")
    p.add_argument("--ld-mode", choices=LD_MODES,
                   default=ExtractorConfig.ld_mode,
                   help="lexical-diversity reading of the ld feature")
    p.add_argument("--include-secondary-stress", action="store_true",
                   help="count secondary stress as stressed")
    p.add_argument("--fmin", type=float, default=ExtractorConfig.fmin,
                   help="pitch floor, Hz (0 < fmin < fmax)")
    p.add_argument("--fmax", type=float, default=ExtractorConfig.fmax,
                   help="pitch ceiling, Hz")
    p.add_argument("--frame", type=float, default=ExtractorConfig.frame,
                   help="analysis frame, s (> 0)")
    p.add_argument("--hop", type=float, default=ExtractorConfig.hop,
                   help="frame hop, s (> 0)")
    p.set_defaults(func=cmd_extract)

    p = command("train", "train one model on extracted features")
    p.add_argument("--features", required=True, help="extract-stage directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--model", default="gbt",
                   choices=harness.MODEL_KEYS, help="model family")
    p.add_argument("--task", default="regression",
                   choices=TASKS, help="formulation")
    p.add_argument("--grid", default=None,
                   help='JSON hyperparameter grid, e.g. {"max_depth": [3, 6]}')
    p.add_argument("--folds", type=int, default=5, help="cross-validation folds")
    p.add_argument("--params", default=None,
                   help="JSON model parameters, fixed during grid search "
                        "and the refit")
    p.set_defaults(func=cmd_train)

    p = command("evaluate", "score a trained model on the splits")
    p.add_argument("--features", required=True, help="extract-stage directory")
    p.add_argument("--model", required=True, help="model.json path")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = command("explain", "importance, PDP or SHAP artifacts")
    p.add_argument("--features", required=True, help="extract-stage directory")
    p.add_argument("--model", required=True, help="model.json path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--kind", required=True, choices=("importance", "pdp", "shap"),
                   help="explanation artifact to produce")
    p.add_argument("--feature", default=None, help="feature name for PDP")
    p.add_argument("--n-grid", type=int, default=20, help="PDP grid points")
    p.add_argument("--max-samples", type=int, default=200,
                   help="train rows explained by SHAP")
    p.set_defaults(func=cmd_explain)

    p = command("ablate", "additive or leave-one-out group ablation")
    p.add_argument("--features", required=True, help="extract-stage directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--mode", required=True, choices=("add", "drop"),
                   help="add groups one by one, or drop one at a time")
    p.add_argument("--order", default=None,
                   help="comma-separated group order for additive mode")
    p.add_argument("--params", default=None, help="JSON model parameters")
    p.set_defaults(func=cmd_ablate)

    p = command("synth", "generate a synthetic graded corpus")
    p.add_argument("--n", type=int, required=True, help="number of responses")
    p.add_argument("--grades", type=int, default=3, help="grade levels (2-5)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--score-function", default="rate_ttr_pause",
                   choices=sorted(SCORE_FUNCTIONS), help="grade driver")
    p.add_argument("--noise", type=float, default=0.25,
                   help="grading noise (>= 0) relative to unit signal spread")
    p.add_argument("--audio", action="store_true", help="also synthesize WAVs")
    p.add_argument("--second-rater", type=float, default=None,
                   help="simulated second-rater disagreement probability "
                        "in [0, 1]")
    p.add_argument("--prompt-id", default="synth-1", help="prompt identifier")
    p.set_defaults(func=cmd_synth)

    p = command("report", "benchmark every model and formulation")
    p.add_argument("--features", required=True, help="extract-stage directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--models", default=",".join(harness.MODEL_KEYS),
                   help="comma-separated model keys")
    p.add_argument("--formulations", default=",".join(TASKS),
                   help="comma-separated formulations")
    p.set_defaults(func=cmd_report)

    parser.speechscore_subcommands = sub.choices
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = parser.parse_args(
                argv[:1] + _config_tokens(args.config) + argv[1:])
        if args.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        return args.func(args)
    except Exception as exc:    # contract: JSON error channel, nonzero exit
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
