#!/usr/bin/env python3
"""Time and memory of acoustic (AF) extraction by audio duration.

For each duration it synthesises a speech-like signal (voiced tones at a
varying f0, quiet noise bursts and pauses) and writes it with `write_wav`.
A child process then reads the file with `read_wav` and runs
`extract_acoustic` on it with the default `ExtractorConfig`, as `extract`
does, and reports milliseconds per second of audio and peak RSS
(`ru_maxrss`): once after the input is read and once after extraction.
`input_mb` is what reading the input added to the peak after import,
`extract_mb` what extraction added on top. Each duration is written and
measured in processes of their own, so that no peak (the synthesis's
included) hides another.

Usage:
    PYTHONPATH=src python scripts/af_profile.py [--seconds 30 90 300]
        [--sample-rate 16000] [--repeats 3] [--seed 0]
"""

import argparse
import multiprocessing
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np


def _signal(seconds: float, sample_rate: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    samples = np.zeros(int(seconds * sample_rate))
    pos = 0
    while pos < samples.size:
        voiced = int(rng.uniform(0.08, 0.30) * sample_rate)
        t = np.arange(min(voiced, samples.size - pos)) / sample_rate
        f0 = rng.uniform(100.0, 200.0)
        samples[pos:pos + t.size] = rng.uniform(0.2, 0.5) * np.sin(2 * np.pi * f0 * t)
        pos += t.size
        noise = min(int(0.05 * sample_rate), max(0, samples.size - pos))
        samples[pos:pos + noise] = 0.03 * rng.standard_normal(noise)
        pos += noise + int(rng.uniform(0.0, 0.2) * sample_rate)
    return samples


def _write(wav: Path, seconds: float, sample_rate: int, seed: int) -> None:
    from speechscore.acoustic import AudioBuffer, write_wav

    write_wav(wav, AudioBuffer(_signal(seconds, sample_rate, seed), sample_rate))


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child(wav: str, seconds: float, repeats: int) -> None:
    from speechscore.acoustic import extract_acoustic, read_wav
    from speechscore.features import ExtractorConfig

    config = ExtractorConfig()
    import_rss = _maxrss_mb()
    audio = read_wav(wav)
    input_rss = _maxrss_mb()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        extract_acoustic(audio, config, set())
        best = min(best, time.perf_counter() - start)
    peak_rss = _maxrss_mb()
    print(f"{seconds:8.0f} {1000.0 * best / seconds:12.2f} "
          f"{input_rss - import_rss:10.1f} {input_rss:14.1f} "
          f"{peak_rss:13.1f} {peak_rss - input_rss:12.1f}", flush=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, nargs="+", default=[30, 90, 300])
    ap.add_argument("--sample-rate", type=int, default=16000)
    ap.add_argument("--repeats", type=int, default=3,
                    help="extractions per duration; the fastest is reported")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--child", metavar="WAV", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        _child(args.child, args.seconds[0], args.repeats)
        return
    print(f"{'audio_s':>8} {'ms/audio_s':>12} {'input_mb':>10} {'input_rss_mb':>14} "
          f"{'peak_rss_mb':>13} {'extract_mb':>12}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for seconds in args.seconds:
            wav = Path(tmp) / f"{seconds:g}.wav"
            # On Linux a child's ru_maxrss starts at its parent's peak, so
            # the parent stays small: the synthesis runs in a process of
            # its own.
            writer = multiprocessing.get_context("spawn").Process(
                target=_write, args=(wav, seconds, args.sample_rate, args.seed))
            writer.start()
            writer.join()
            if writer.exitcode != 0:
                raise SystemExit(f"writing the {seconds:g} s input failed")
            subprocess.run([sys.executable, __file__, "--child", str(wav),
                            "--seconds", str(seconds),
                            "--repeats", str(args.repeats)], check=True)


if __name__ == "__main__":
    main()
