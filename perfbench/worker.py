"""Child process of the benchmark: runs set-up or the timed steps.

    python3 perfbench/worker.py setup WORKDIR
    python3 perfbench/worker.py timed WORKDIR

Both read WORKDIR/spec.json, written by run.py, and write their result to
WORKDIR/<mode>.json. Set-up runs in its own process so that its memory (audio
synthesis alone peaks at several hundred MB) never counts towards the peak
resident memory of the timed steps, which this process reports from
getrusage. The `speechscore` package is imported before any clock starts.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import wave
from pathlib import Path
from string import Template

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np                               # noqa: E402
from speechscore import cli                      # noqa: E402

import spans                                     # noqa: E402


def fill(argv: list[str], values: dict) -> list[str]:
    return [Template(a).substitute(values) for a in argv] + [
        "--seed", str(values["seed"]), "--threads", str(values["threads"])]


def run_step(argv: list[str], tracer=None) -> tuple[int, float]:
    """One subcommand in this process; returns (exit code, wall seconds)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.span(f"cli.{argv[0]}"):
                code = cli.main(argv)
        seconds = time.perf_counter() - start
    if code != 0:
        print(f"step failed ({code}): {' '.join(argv)}\n{sink.getvalue()}",
              file=sys.stderr)
    return code, seconds


def manifest_path(corpus: Path, per_grade: int | None) -> Path:
    return corpus / ("subset.txt" if per_grade else "manifest.txt")


def write_manifest(corpus: Path, per_grade: int | None) -> Path:
    """The synthesizer's manifest, or, of each grade, the `per_grade`
    responses whose audio durations lie closest to the grade's median, in
    manifest order. With two extraction threads, peak memory is set by the
    longest responses processed at once; leaving out each grade's longest
    and shortest responses keeps it, and extraction time, from hinging on
    the extremes a seed happens to draw (over six seeds the first eight
    responses of each grade peaked at 886-1201 MB, these at 877-1061 MB)."""
    manifest = corpus / "manifest.txt"
    if not per_grade:
        return manifest
    names = manifest.read_text(encoding="utf-8").split()
    by_grade: dict[str, list[tuple[float, str]]] = {}
    for name in names:
        payload = json.loads((corpus / name).read_text(encoding="utf-8"))
        with wave.open(str((corpus / name).parent / payload["wav"]), "rb") as fh:
            seconds = fh.getnframes() / fh.getframerate()
        by_grade.setdefault(payload["grade"], []).append((seconds, name))
    picked = set()
    for items in by_grade.values():
        middle = statistics.median(seconds for seconds, _ in items)
        nearest = sorted(items, key=lambda item: (abs(item[0] - middle), item[1]))
        picked.update(name for _, name in nearest[:per_grade])
    subset = manifest_path(corpus, per_grade)
    subset.write_text("\n".join(n for n in names if n in picked) + "\n", encoding="utf-8")
    return subset


def setup(work: Path, spec: dict) -> dict:
    """Build the corpus `repeats` times into setup<i>."""
    records = []
    for r in range(spec["repeats"]):
        base = work / f"setup{r}"
        shutil.rmtree(base, ignore_errors=True)
        tracer = spans.Tracer() if spec["trace"] else None
        uninstall = tracer.install() if tracer else None
        synth = spec["synth"]
        argv = ["synth", "--n", str(synth["n"]), "--grades", "3",
                "--out", str(base / "corpus"), "--seed", str(spec["seed"])]
        if synth["audio"]:
            argv.append("--audio")
        start = time.perf_counter()
        steps = [(argv[0], *run_step(argv, tracer))]
        write_manifest(base / "corpus", spec["per_grade"])
        seconds = time.perf_counter() - start
        if uninstall:
            uninstall()
        records.append({"dir": base.name, "seconds": seconds, "steps": steps,
                        "layers": summarize(tracer) if tracer else None})
    return {"repeats": records, "numpy": np.__version__,
            "python": sys.version.split()[0]}


def timed(work: Path, spec: dict) -> dict:
    """Repeat the timed steps for the whole number of iterations whose total
    time comes closest to `seconds`: another iteration starts only while the
    time left exceeds half the mean iteration so far. After each chain the
    steps named in `repeat` run `passes - 1` more times; `wall_s` is the
    chain alone. In a traced run the iterations alternate untraced and
    traced, so both are measured under the same conditions and their
    difference is the tracing overhead. Traced iterations skip the extra
    passes, so that their spans cover one chain."""
    corpus = work / "setup0" / "corpus"
    values = {"corpus": corpus, "manifest": manifest_path(corpus, spec["per_grade"]),
              "seed": spec["seed"], "threads": spec["threads"]}
    iterations = []
    start = time.perf_counter()
    minimum = 2 if spec["trace"] else 1
    while len(iterations) < minimum or (
            time.perf_counter() - start) * (1 + 0.5 / len(iterations)) < spec["seconds"]:
        i = len(iterations)
        out = work / f"iter{i}"
        shutil.rmtree(out, ignore_errors=True)
        values["out"] = out
        tracer = spans.Tracer() if spec["trace"] and i % 2 == 1 else None
        uninstall = tracer.install() if tracer else None
        steps = []
        t0 = time.perf_counter()
        for template in spec["steps"]:
            argv = fill(template, values)
            steps.append((argv[0], *run_step(argv, tracer)))
        wall = time.perf_counter() - t0
        if uninstall:
            uninstall()
        repeated = [t for t in spec["steps"] if t[0] in spec["repeat"]]
        passes = [] if tracer else [
            [(argv[0], *run_step(argv)) for argv in (fill(t, values) for t in repeated)]
            for _ in range(spec["passes"] - 1)]
        iterations.append({"dir": out.name, "wall_s": wall, "steps": steps,
                           "passes": passes,
                           "traced": tracer is not None,
                           "layers": summarize(tracer, wall) if tracer else None})
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"iterations": iterations, "peak_rss_mb": peak_kb / 1024.0}


def summarize(tracer, wall: float | None = None) -> dict:
    """Per-layer self times, call counts and the figures derived from spans."""
    recorded = tracer.spans
    own = spans.self_times(recorded)
    self_s, calls = {}, {}
    for span, seconds in zip(recorded, own):
        self_s[span.name] = self_s.get(span.name, 0.0) + seconds
        calls[span.name] = calls.get(span.name, 0) + 1
    out = {"self_s": self_s, "calls": calls}
    shap_ms = [1000.0 * (s.end - s.start) for s in recorded if s.name == "explain.tree_shap"]
    if shap_ms:
        cuts = statistics.quantiles(shap_ms, n=100, method="inclusive")
        out["tree_shap_ms_p50"] = statistics.median(shap_ms)
        out["tree_shap_ms_p98"] = cuts[97]
    acoustic = sum(s.end - s.start for s in recorded if s.name == "acoustic.extract_acoustic")
    out["acoustic_s"] = acoustic
    busy = sum(s.end - s.start for s in recorded if s.name == "features.extract_one")
    extract = sum(s.end - s.start for s in recorded if s.name == "features.extract_matrix")
    out["extract_busy_s"], out["extract_matrix_s"] = busy, extract
    top = [s for s in recorded if s.parent is None and s.name.startswith("cli.")]
    out["top_level_s"] = sum(s.end - s.start for s in top)
    if wall is not None:
        out["wall_s"] = wall
    return out


def main(argv: list[str]) -> int:
    mode, work = argv[0], Path(argv[1])
    spec = json.loads((work / "spec.json").read_text(encoding="utf-8"))
    result = setup(work, spec) if mode == "setup" else timed(work, spec)
    (work / f"{mode}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
