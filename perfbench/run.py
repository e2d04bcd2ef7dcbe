"""speechscore benchmark: times the CLI subcommand chain of one workload.

    python3 perfbench/run.py --workload text-train --seed 7 --seconds 45 --trace 0

Run from the root of a source checkout. The run synthesizes its corpus from
`--seed` in a set-up process, then repeats the workload's timed subcommands
in a second process for `--seconds` seconds, checks every output and prints
one metric per line followed by a JSON summary as the last line. With
`--trace 0` the summary holds the end-to-end metrics; with `--trace 1` it
holds the per-layer metrics of a traced run, whose untraced iterations give
the tracing overhead. Scratch files go under `.perfbench_work/` in the
checkout; what must repeat across runs of one source tree (artifact digests
and output counts) is kept there in `digests.json`.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads                                 # noqa: E402

SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0
DIGESTED = ("features.csv", "model.json", "cv_table.json", "report.json",
            "shap_values.csv")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "extract_responses_per_s": "1/s",
    "train_s": "s", "predict_explain_s": "s", "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, source, key). "self" is the summed self time of
# the spans named `key` in the timed steps and "setup" the same in set-up;
# "calls" is their call count; "count" is a count read from the outputs;
# "derived" is computed in `layer_metrics`.
PER_LAYER = {
    "cli.self_s": ("s", "self", "cli"),
    "corpus.load_corpus_s": ("s", "self", "corpus.load_corpus"),
    "corpus.responses": ("count", "count", "responses"),
    "corpus.rejected": ("count", "count", "rejected"),
    "corpus.stratified_split_s": ("s", "self", "corpus.stratified_split"),
    "corpus.fit_standardizer_s": ("s", "self", "corpus.fit_standardizer"),
    "corpus.to_csv_s": ("s", "self", "corpus.to_csv"),
    "corpus.from_csv_s": ("s", "self", "corpus.from_csv"),
    "content.fit_vocabulary_s": ("s", "self", "content.fit_vocabulary"),
    "content.vectorize_s": ("s", "self", "content.vectorize"),
    "content.vocabulary_terms": ("count", "count", "vocabulary_terms"),
    "fluency.fluency_features_s": ("s", "self", "fluency.fluency_features"),
    "prosody.prosody_features_s": ("s", "self", "prosody.prosody_features"),
    "grammar.grammar_features_s": ("s", "self", "grammar.grammar_features"),
    "features.extract_matrix_s": ("s", "self", "features.extract_matrix"),
    "features.flags": ("count", "count", "flags"),
    "features.thread_utilization": ("ratio", "derived", None),
    "acoustic.read_wav_s": ("s", "self", "acoustic.read_wav"),
    "acoustic.pitch_track_s": ("s", "self", "acoustic.pitch_track"),
    "acoustic.acoustic_features_s": ("s", "self", "acoustic.acoustic_features"),
    "acoustic.audio_seconds": ("s", "count", "audio_seconds"),
    "acoustic.ms_per_audio_s": ("ms/s", "derived", None),
    "trees.fit_tree_s": ("s", "self", "trees.fit_tree"),
    "trees.fit_tree_calls": ("count", "calls", "trees.fit_tree"),
    "trees.nodes": ("count", "count", "nodes"),
    "trees.predict_s": ("s", "self", "trees.predict"),
    "trees.predict_calls": ("count", "calls", "trees.predict"),
    "learners.fit_gbt_s": ("s", "self", "learners.fit_gbt"),
    "learners.grid_search_s": ("s", "self", "learners.grid_search"),
    "learners.cv_fits": ("count", "count", "cv_fits"),
    "learners.save_model_s": ("s", "self", "learners.save_model"),
    "learners.load_model_s": ("s", "self", "learners.load_model"),
    "learners.model_bytes": ("bytes", "count", "model_bytes"),
    "explain.tree_shap_ms_p50": ("ms", "derived", None),
    "explain.tree_shap_ms_p98": ("ms", "derived", None),
    "explain.shap_summary_s": ("s", "self", "explain.shap_summary"),
    "explain.pdp_s": ("s", "self", "explain.pdp"),
    "explain.gain_importance_s": ("s", "self", "explain.gain_importance"),
    "harness.prepare_prompt_s": ("s", "self", "harness.prepare_prompt"),
    "harness.evaluate_s": ("s", "self", "harness.evaluate"),
    "harness.load_prompt_dataset_s": ("s", "self", "harness.load_prompt_dataset"),
    "harness.load_prompt_dataset_calls": ("count", "calls", "harness.load_prompt_dataset"),
    "harness.save_prompt_dataset_s": ("s", "self", "harness.save_prompt_dataset"),
    "metrics.metric_report_s": ("s", "self", "metrics.metric_report"),
    "metrics.test_qwk": ("kappa", "derived", None),
    "svg.render_s": ("s", "self", "svg.render"),
    "synth.synth_corpus_s": ("s", "setup", "synth.synth_corpus"),
    "synth.write_corpus_s": ("s", "setup", "synth.write_corpus"),
    "trace.overhead_s": ("s", "derived", None),
    "trace.top_level_share": ("ratio", "derived", None),
}


class BenchError(RuntimeError):
    """The run cannot produce metrics (missing source tree, crashed worker)."""


# ---------------------------------------------------------------------------
# Outputs: digests and counts


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_digest(directory: Path) -> str:
    """One digest over every file below `directory`, by relative path,
    leaving out Python's bytecode caches."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(sha256(path).encode())
    return digest.hexdigest()


def artifact_digests(directory: Path) -> dict[str, str]:
    return {str(p.relative_to(directory)): sha256(p)
            for p in sorted(directory.rglob("*")) if p.name in DIGESTED}


def output_counts(directory: Path) -> dict:
    """Counts read from one iteration's outputs."""
    counts = {"responses": 0, "rejected": 0, "vocabulary_terms": 0,
              "flags": 0, "flag_histogram": {}, "audio_seconds": 0.0,
              "nodes": 0, "cv_fits": 0, "model_bytes": 0}
    features = directory / "features"
    if (features / "features.csv").exists():
        with open(features / "features.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        columns = rows[1]
        counts["responses"] = len(rows) - 2
        if "total_duration" in columns:
            j = columns.index("total_duration")
            counts["audio_seconds"] = sum(float(r[j]) for r in rows[2:])
    if (features / "rejects.json").exists():
        counts["rejected"] = len(json.loads((features / "rejects.json").read_text()))
    if (features / "vocabulary.tsv").exists():
        counts["vocabulary_terms"] = sum(
            1 for line in (features / "vocabulary.tsv").read_text().splitlines()
            if line.strip())
    if (features / "flags.json").exists():
        histogram: dict[str, int] = {}
        for names in json.loads((features / "flags.json").read_text()).values():
            for name in names:
                histogram[name] = histogram.get(name, 0) + 1
        counts["flag_histogram"] = dict(sorted(histogram.items()))
        counts["flags"] = sum(histogram.values())
    for path in sorted(directory.rglob("model.json")):
        counts["model_bytes"] += path.stat().st_size
        payload = json.loads(path.read_text())
        counts["nodes"] += sum(len(t["feature"]) for t in payload.get("trees", []))
    for path in sorted(directory.rglob("cv_table.json")):
        counts["cv_fits"] += sum(len(r["fold_qwk"]) for r in json.loads(path.read_text()))
    return counts


class Checks:
    """Counts attempted and failed operations and remembers what failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# One run


def source_digest() -> str:
    return tree_digest(ROOT / "src" / "speechscore")


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_worker(mode: str, work: Path, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), mode, str(work)],
                              cwd=ROOT, env=env, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the time limit") from exc
    if done.returncode != 0:
        raise BenchError(f"{mode} worker exited with {done.returncode}")
    return json.loads((work / f"{mode}.json").read_text(encoding="utf-8"))


def load_state(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        return {}


def save_state(path: Path, state: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, sort_keys=True, indent=1), encoding="utf-8")
    tmp.replace(path)


def run(spec: dict, seed: int, seconds: float, trace: bool, workroot: Path) -> dict:
    """Set up, time and check one workload; returns the result record."""
    if not (ROOT / "src" / "speechscore" / "__init__.py").is_file():
        raise BenchError(f"no speechscore source tree under {ROOT / 'src'}")
    deadline = time.monotonic() + TIME_LIMIT_S
    workroot.mkdir(parents=True, exist_ok=True)
    work = workroot / f"{spec['name']}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = dict(spec, seed=seed, seconds=seconds, trace=trace,
                    repeats=1 if trace else SETUP_REPEATS)
        (work / "spec.json").write_text(json.dumps(plan), encoding="utf-8")
        setup = run_worker("setup", work, deadline)
        timed = run_worker("timed", work, deadline)
        return check_and_measure(spec, plan, work, setup, timed, workroot)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_and_measure(spec, plan, work, setup, timed, workroot) -> dict:
    checks = Checks()
    for record in setup["repeats"]:
        for command, code, _ in record["steps"]:
            checks.check(code == 0, f"set-up {command} exited {code}")
    for it in timed["iterations"]:
        for command, code, _ in it["steps"] + sum(it["passes"], []):
            checks.check(code == 0, f"{it['dir']}: {command} exited {code}")

    # Set-up is deterministic: every repeat builds the same corpus and outputs.
    setup_digests = [tree_digest(work / r["dir"]) for r in setup["repeats"]]
    for r, digest in enumerate(setup_digests[1:], start=1):
        checks.check(digest == setup_digests[0], f"set-up repeat {r} differs from repeat 0")

    iterations = timed["iterations"]
    first = work / iterations[0]["dir"]
    digests = artifact_digests(first)
    counts = output_counts(first)
    for it in iterations[1:]:
        directory = work / it["dir"]
        other = artifact_digests(directory)
        for name in sorted(set(digests) | set(other)):
            checks.check(other.get(name) == digests.get(name),
                         f"{it['dir']}: {name} differs from {iterations[0]['dir']}")
        checks.check(output_counts(directory) == counts,
                     f"{it['dir']}: output counts differ")

    test_qwk = None
    report = first / spec["test_qwk_report"]
    if report.exists():
        test_qwk = json.loads(report.read_text())["test"]["qwk"]
    if spec["qwk_floor"] is not None:
        for it in iterations:
            path = work / it["dir"] / spec["test_qwk_report"]
            qwk = json.loads(path.read_text())["test"]["qwk"] if path.exists() else None
            checks.check(qwk is not None and qwk >= spec["qwk_floor"],
                         f"{it['dir']}: test QWK {qwk} in {spec['test_qwk_report']} "
                         f"below {spec['qwk_floor']}")

    # Runs of one source tree with one seed must produce the same outputs.
    state_path = workroot / "digests.json"
    state = load_state(state_path)
    source = source_digest()
    # The key names the package source, the benchmark's own files and the
    # workload, so an edit to either starts a fresh record.
    key = ":".join([source[:16], tree_digest(HERE)[:16], spec["name"],
                    str(plan["seed"]),
                    hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:16]])
    expected = {"digests": digests, "counts": counts, "setup": setup_digests[0]}
    if key in state:
        stored = state[key]
        for name in sorted(set(digests) | set(stored["digests"])):
            checks.check(stored["digests"].get(name) == digests.get(name),
                         f"{name} differs from an earlier run with this seed")
        checks.check(stored["counts"] == counts,
                     "output counts differ from an earlier run with this seed")
        checks.check(stored["setup"] == setup_digests[0],
                     "set-up differs from an earlier run with this seed")
    elif not checks.failures:
        state[key] = expected
        save_state(state_path, state)

    attempted = checks.attempted
    failed = len(checks.failures)
    result = {
        "workload": spec["name"], "trace": plan["trace"],
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "failures": checks.failures,
        "test_qwk": test_qwk,
        "counts": counts,
        "record": {
            "git_sha": git_sha(), "source_sha256": source,
            "nproc": os.cpu_count(), "python": setup["python"],
            "numpy": setup["numpy"], "seed": plan["seed"],
            "threads": plan["threads"], "traced": plan["trace"],
            "seconds": plan["seconds"], "iterations": len(iterations),
            "passes": plan["passes"],
            "setup_repeats": len(setup["repeats"]),
        },
    }
    result["step_shares"] = step_shares(iterations)
    if plan["trace"]:
        result["metrics"] = layer_metrics(setup, iterations, counts, test_qwk, plan)
    else:
        result["metrics"] = end_to_end(setup, iterations, timed, counts)
    return result


# ---------------------------------------------------------------------------
# Metrics


def _step_seconds(steps, commands) -> float:
    return sum(seconds for command, _, seconds in steps if command in commands)


def step_shares(iterations) -> dict:
    """Median seconds of each subcommand kind per untraced iteration, and
    its share of the median iteration wall time."""
    plain = [it for it in iterations if not it["traced"]]
    wall = statistics.median(it["wall_s"] for it in plain)
    commands = sorted({c for it in plain for c, _, _ in it["steps"]})
    out = {}
    for command in commands:
        seconds = statistics.median(_step_seconds(it["steps"], {command}) for it in plain)
        out[command] = {"seconds": seconds, "share": seconds / wall}
    return out


def _pass_seconds(iterations, commands) -> list[float]:
    """Seconds of `commands` in each pass (the chain and every extra pass)
    that ran any of them."""
    return [_step_seconds(steps, commands)
            for it in iterations for steps in [it["steps"], *it["passes"]]
            if any(command in commands for command, _, _ in steps)]


def end_to_end(setup, iterations, timed, counts) -> dict:
    plain = [it for it in iterations if not it["traced"]]
    extract = statistics.median(
        next(s for c, _, s in it["steps"] if c == "extract") for it in plain)
    values = {
        "setup_s": statistics.median(r["seconds"] for r in setup["repeats"]),
        "wall_s": statistics.median(it["wall_s"] for it in plain),
        "extract_responses_per_s": counts["responses"] / extract,
        "train_s": statistics.median(_pass_seconds(plain, {"train"})),
        "predict_explain_s": statistics.median(
            _pass_seconds(plain, {"evaluate", "explain"})),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def layer_metrics(setup, iterations, counts, test_qwk, plan) -> dict:
    traced = [it["layers"] for it in iterations if it["traced"]]
    plain_wall = statistics.median(it["wall_s"] for it in iterations if not it["traced"])
    setup_layers = setup["repeats"][0]["layers"]

    def med(fn) -> float:
        return statistics.median(fn(layers) for layers in traced)

    derived = {
        "features.thread_utilization": med(
            lambda t: t["extract_busy_s"] / (t["extract_matrix_s"] * plan["threads"])
            if t["extract_matrix_s"] else 0.0),
        "acoustic.ms_per_audio_s": med(
            lambda t: 1000.0 * t["acoustic_s"] / counts["audio_seconds"]
            if counts["audio_seconds"] else 0.0),
        "explain.tree_shap_ms_p50": med(lambda t: t.get("tree_shap_ms_p50", 0.0)),
        "explain.tree_shap_ms_p98": med(lambda t: t.get("tree_shap_ms_p98", 0.0)),
        "metrics.test_qwk": test_qwk if test_qwk is not None else 0.0,
        "trace.overhead_s": med(lambda t: t["wall_s"]) - plain_wall,
        "trace.top_level_share": med(lambda t: t["top_level_s"] / t["wall_s"]),
    }
    out = {}
    for name, (unit, source, key) in PER_LAYER.items():
        if source == "self":
            value = med(lambda t: sum(v for k, v in t["self_s"].items()
                                      if k == key or k.startswith(key + ".")))
        elif source == "calls":
            value = med(lambda t: t["calls"].get(key, 0))
        elif source == "count":
            value = counts[key]
        elif source == "setup":
            value = setup_layers["self_s"].get(key, 0.0)
        else:
            value = derived[name]
        out[name] = {"value": value, "unit": unit}
    return out


# ---------------------------------------------------------------------------
# Entry point


def print_result(result: dict) -> None:
    print(f"workload {result['workload']}  trace={int(result['trace'])}  "
          f"record {json.dumps(result['record'], sort_keys=True)}")
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:14.6f} {metric['unit']}")
    print(f"{'failed_ratio':36s} {result['failed_ratio']:14.6f} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    qwk = result["test_qwk"]
    print(f"{'test_qwk':36s} {qwk if qwk is not None else float('nan'):14.6f} kappa")
    print("step shares of wall_s  " + "  ".join(
        f"{command} {share['seconds']:.3f}s ({100 * share['share']:.1f}%)"
        for command, share in result["step_shares"].items()))
    hist = result["counts"]["flag_histogram"]
    print(f"flags histogram {json.dumps(hist, sort_keys=True)}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7,
                        help="corpus seed (7 is the acceptance corpus; hold claims out on 13)")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="how long the timed steps repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    spec = workloads.get(args.workload)
    if spec["threads"] > 1:
        spec["threads"] = min(spec["threads"], os.cpu_count() or 1)
    try:
        result = run(spec, args.seed, args.seconds, bool(args.trace),
                     ROOT / ".perfbench_work")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    with open(ROOT / ".perfbench_work" / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(result["record"], workload=spec["name"],
                                 metrics=result["metrics"],
                                 step_shares=result["step_shares"],
                                 failed=result["failed"])) + "\n")
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
