"""Smoke tests of the benchmark on tiny variants of its workloads.

    PYTHONPATH=src python3 -m pytest -q perfbench/smoke.py
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run                                       # noqa: E402
import spans                                     # noqa: E402
import workloads                                 # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny_run(name: str, trace: bool, workroot: Path) -> dict:
    return run.run(workloads.tiny(workloads.get(name)), seed=7, seconds=0.0,
                   trace=trace, workroot=workroot)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: unit for name, (unit, _, _) in run.PER_LAYER.items()}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_named_metric_is_emitted(name, trace, tmp_path, capsys):
    result = _tiny_run(name, trace, tmp_path)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    run.print_result(result)
    lines = capsys.readouterr().out.strip().splitlines()
    for metric in wanted + [{"name": "failed_ratio"}, {"name": "test_qwk"}]:
        assert any(line.split()[0] == metric["name"] for line in lines[:-1])
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    if not trace:
        assert all(m["value"] > 0 for m in summary["metrics"].values())


def test_tracer_keeps_every_span_under_thread_contention():
    tracer = spans.Tracer()
    work = tracer.wrap("work", lambda: None)

    def worker():
        for _ in range(2000):
            with tracer.span("outer"):
                work()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(tracer.spans) == 8 * 2000 * 2
    # A span closed through the wrong index would keep end == 0.
    assert all(span.end >= span.start > 0 for span in tracer.spans)
    for span in tracer.spans:
        if span.name == "work":
            assert tracer.spans[span.parent].name == "outer"
            assert tracer.spans[span.parent].thread == span.thread


def test_corrupted_digest_raises_failed_ratio(tmp_path):
    first = _tiny_run("text-train", False, tmp_path)
    assert first["failed_ratio"] == 0.0
    state_path = tmp_path / "digests.json"
    state = json.loads(state_path.read_text())
    (key, entry), = state.items()
    name = sorted(entry["digests"])[0]
    entry["digests"][name] = "0" * 64
    state_path.write_text(json.dumps(state))

    second = _tiny_run("text-train", False, tmp_path)
    assert second["failed"] >= 1
    assert second["failed_ratio"] > first["failed_ratio"]
    assert any(name in failure for failure in second["failures"])
