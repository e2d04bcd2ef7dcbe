"""The benchmark's workloads: the corpus set-up builds and the timed CLI steps.

Every step is a `speechscore` subcommand line. `$name` placeholders are
filled per run: `corpus` (the synthetic corpus directory), `manifest`,
`out` (this iteration's output directory), `seed` and `threads`. Every step
also gets `--seed` and `--threads`.

After each chain, the chain's steps whose command is in `repeat` run again,
in order and into the same directories, until the iteration has made
`passes` passes over them. A short step is then sampled several times per
iteration, spread over the run, instead of once in a few seconds of it. On
a shared 2-vCPU virtual machine the speed of a fixed loop swings by up to
15 % from one few-second stretch to the next.

Each workload's reason is recorded in BENCHMARK.json, and the measured share
of each step in perfbench/README.md.

Sizes are chosen so that one run, set-up included, stays near a minute on
2 cores; the ROADMAP acceptance corpus (n=800) is too large for that. At
n=200 held-out QWK varies from seed to seed, so text-train checks a floor of
0.4 on the model named by `test_qwk_report`, which a learner that lost its
signal (QWK near 0) fails.
"""

from __future__ import annotations

import copy
import json

TEXT_GROUPS = "CF,FF,SPF,GVF"
ALL_GROUPS = "CF,FF,SPF,GVF,AF"
PDP_FEATURES = ("speaking_rate", "SilenceRate1", "SilenceRate2",
                "general_silence", "ttr")


def _extract(groups: str, out: str) -> list[str]:
    return ["extract", "--manifest", "$manifest", "--resources", "$corpus/resources",
            "--groups", groups, "--max-terms", "120", "--out", out]


def _shap(model: str) -> list[str]:
    """SHAP on every train row: the default `--max-samples` of 200 exceeds
    the 140 train rows of an n=200 corpus."""
    return ["explain", "--features", "$out/features", "--model", model,
            "--out", "$out/shap", "--kind", "shap"]


def _explain_all(model: str, n_grid: int = 20) -> list[list[str]]:
    """SHAP, PDP on the five features that drive the synthetic grade, and
    gain importance."""
    common = ["explain", "--features", "$out/features", "--model", model]
    return [_shap(model),
            *[common + ["--out", "$out/pdp", "--kind", "pdp", "--feature", name,
                        "--n-grid", str(n_grid)] for name in PDP_FEATURES],
            common + ["--out", "$out/importance", "--kind", "importance"]]


def _json(value) -> str:
    return json.dumps(value, sort_keys=True)


WORKLOADS = {
    "text-train": {
        "synth": {"n": 200, "audio": False},
        "per_grade": None,
        "threads": 1,
        "qwk_floor": 0.4,
        # The grid varies the learning rate, not the depth, so the refit
        # model and the cost of explaining it do not depend on the seed.
        # At 8 stages the two train steps are ~78 % of wall_s, and a run
        # holds three chains.
        "steps": [
            _extract(TEXT_GROUPS, "$out/features"),
            ["train", "--features", "$out/features", "--out", "$out/reg",
             "--model", "gbt", "--folds", "3", "--grid",
             _json({"max_depth": [4], "n_stages": [8], "learning_rate": [0.2, 0.3]})],
            ["train", "--features", "$out/features", "--out", "$out/cls",
             "--model", "gbt", "--task", "classification",
             "--params", _json({"n_stages": 8, "learning_rate": 0.3})],
            ["evaluate", "--features", "$out/features",
             "--model", "$out/reg/model.json", "--out", "$out/reg"],
            ["evaluate", "--features", "$out/features",
             "--model", "$out/cls/model.json", "--out", "$out/cls"],
            _shap("$out/reg/model.json"),
        ],
        "repeat": ["evaluate", "explain"],
        "passes": 5,
        "test_qwk_report": "reg/report.json",
    },
    "audio-extract": {
        "synth": {"n": 50, "audio": True},
        "per_grade": 8,
        "threads": 2,
        "qwk_floor": None,
        "steps": [
            _extract(ALL_GROUPS, "$out/features"),
            # Boosted stumps: every tree has 3 nodes whatever the seed, so
            # the cost of training and explaining them does not depend on it.
            # Deeper residual trees on 15 rows stop splitting at a
            # seed-dependent size (280-360 nodes at depth 3 over 5 seeds).
            # The fine PDP grid gives the explain steps about a second of work.
            ["train", "--features", "$out/features", "--out", "$out/model",
             "--model", "gbt", "--params",
             _json({"max_depth": 1, "n_stages": 60})],
            ["evaluate", "--features", "$out/features",
             "--model", "$out/model/model.json", "--out", "$out/model"],
            *_explain_all("$out/model/model.json", n_grid=200),
        ],
        # Three passes keep an iteration near 15 s, so that a 45 s run
        # always holds three of them.
        "repeat": ["train", "evaluate", "explain"],
        "passes": 3,
        "test_qwk_report": "model/report.json",
    },
}


def get(name: str) -> dict:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    spec = copy.deepcopy(WORKLOADS[name])
    spec["name"] = name
    return spec


def tiny(spec: dict) -> dict:
    """A quick variant of a workload for the smoke tests: the smallest corpus
    the synthesizer allows and fewer audio responses (6 per grade is the
    fewest that leaves every split non-empty)."""
    spec = copy.deepcopy(spec)
    spec["synth"]["n"] = 50
    if spec["per_grade"]:
        spec["per_grade"] = 6
    spec["qwk_floor"] = None     # 10 test rows are too few for a floor
    spec["passes"] = min(spec["passes"], 2)
    return spec
