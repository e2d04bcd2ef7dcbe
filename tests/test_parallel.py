"""`parallel.parallel_map`: the loop's results and first error, from forked
workers that never outlive the call."""

import dataclasses
import multiprocessing
import os
import subprocess
import sys
import time
import wave
from pathlib import Path

import numpy as np
import pytest
from conftest import make_response, make_word

from speechscore import parallel
from speechscore.acoustic import AudioBuffer, write_wav
from speechscore.features import ExtractorConfig, extract_matrix
from speechscore.parallel import parallel_map


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_in_input_order(workers):
    table = {i: np.full(i + 1, i) for i in range(7)}    # reached through fork
    got = parallel_map(lambda i: table[i].sum(), 7, workers)
    assert got == [i * (i + 1) for i in range(7)]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_first_error_in_input_order(workers):
    def task(i):
        if i == 1:
            time.sleep(0.3)     # fails after task 3 has failed
            raise ValueError("task 1")
        if i == 3:
            raise KeyError("task 3")
        return i

    with pytest.raises(ValueError, match="task 1"):
        parallel_map(task, 5, workers)
    assert multiprocessing.active_children() == []


class _SerialPool:
    """Stands in for the forked pool: runs the tasks in this process."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(i) for i in items]


_KILLED_WORKER = """
import multiprocessing, os, signal
from concurrent.futures.process import BrokenProcessPool
from speechscore.parallel import parallel_map

def task(i):
    if i == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return i

try:
    parallel_map(task, 4, 2)
except BrokenProcessPool:
    print("BrokenProcessPool", len(multiprocessing.active_children()))
"""


def test_a_killed_worker_breaks_the_map_instead_of_hanging_it():
    # A worker that dies mid-task (the OOM killer, say) must break the map,
    # not hang it; the run sits in a subprocess so that a hang fails this
    # test instead of stalling the suite.
    src = Path(parallel.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", _KILLED_WORKER], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.split() == ["BrokenProcessPool", "0"]


@pytest.mark.parametrize("workers, n, expected", [
    (10_000, 3, [3]), (2, 5, [2]), (3, 3, [3]), (1, 5, []), (4, 1, []), (4, 0, [])])
def test_worker_count_is_min_of_workers_and_items(monkeypatch, workers, n, expected):
    sizes = []

    def record(processes):
        sizes.append(processes)
        return _SerialPool()

    monkeypatch.setattr(parallel, "_fork_pool", record)
    assert parallel_map(lambda i: i * i, n, workers) == [i * i for i in range(n)]
    assert sizes == expected
    assert multiprocessing.active_children() == []


def _af_responses(tmp_path, bad):
    """Five one-word responses reading WAVs by path; those in `bad` hold a
    WAV too short for one analysis frame (index 1), have no WAV (index 2)
    or hold one with no samples at all."""
    responses = []
    for i in range(5):
        path = tmp_path / f"r{i}.wav"
        if i not in bad:
            t = np.arange(8000) / 16000
            write_wav(path, AudioBuffer(0.3 * np.sin(2 * np.pi * (110 + 20 * i) * t),
                                        16000))
        elif i == 1:
            write_wav(path, AudioBuffer(np.full(100, 0.1), 16000))
        elif i == 2:
            path = None
        else:
            with wave.open(str(path), "wb") as fh:
                fh.setnchannels(1)
                fh.setsampwidth(2)
                fh.setframerate(16000)
        response = make_response(
            [make_word("cat", 0.1, 0.4, [("k", "c", 0), ("ae", "v", 1)])],
            response_id=f"r{i}")
        responses.append(dataclasses.replace(response, audio_path=path))
    return responses


@pytest.mark.parametrize("bad, message", [
    ({1, 3}, "audio shorter than one analysis frame"),
    ({3, 4}, r"r3\.wav: no samples"),
    ({2, 3}, "acoustic features requested but response 'r2' has no audio")])
def test_extract_raises_the_first_bad_response_at_every_thread_count(
        tmp_path, resources, bad, message):
    responses = _af_responses(tmp_path, bad)
    config = ExtractorConfig(groups=("AF",))
    for threads in (1, 2, 3):
        with pytest.raises(ValueError, match=message):
            extract_matrix(responses, resources, config, threads=threads)
        assert multiprocessing.active_children() == []
