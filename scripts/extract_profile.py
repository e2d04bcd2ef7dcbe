#!/usr/bin/env python3
"""In-process time of each layer of text feature extraction, and a digest
of the feature file it writes.

It synthesizes the corpus at ``--n``/``--seed`` in a temporary directory
and extracts it as the benchmark's text workload does (`synth`, then
`extract` of CF, FF, SPF and GVF at `--max-terms 120`). Then it times each
layer of that extraction over the whole corpus, ``--repeats`` times, and
prints the fastest run of each in seconds:

- ``read``: every alignment file's text;
- ``json``: `json.loads` of those texts;
- ``parse``: `corpus.parse_response` of the decoded payloads;
- ``fluency``, ``prosody``, ``grammar``: each feature family over the
  parsed responses;
- ``vectorize``: the content features of every transcript;
- ``csv``: `FeatureMatrix.to_csv` of the extracted matrix.

Last it prints the first 12 hex digits of the SHA-256 of the
``features.csv`` that `extract` wrote; equal digests from two checkouts
show that their features are byte-identical. The layers call each family
with one `ExtractorConfig` and a flags set, as `extract` does:

    PYTHONPATH=src python scripts/extract_profile.py [--n 200] [--seed 7]
        [--repeats 5]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
import time
from pathlib import Path

from speechscore import cli
from speechscore.content import vectorize
from speechscore.corpus import LexicalResources, parse_response
from speechscore.features import ExtractorConfig
from speechscore.fluency import fluency_features
from speechscore.grammar import grammar_features
from speechscore.harness import load_prompt_dataset
from speechscore.prosody import NoNuclei, prosody_features


def _prosody(response, config: ExtractorConfig) -> None:
    try:
        prosody_features(response, config, set())
    except NoNuclei:
        pass


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=200, help="corpus size (>= 50)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--repeats", type=int, default=5,
                    help="runs per layer; the fastest is reported")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        corpus, features = Path(tmp) / "corpus", Path(tmp) / "features"
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["synth", "--n", str(args.n), "--out", str(corpus)],
                         ["extract", "--manifest", str(corpus),
                          "--resources", str(corpus / "resources"),
                          "--out", str(features), "--groups", "CF,FF,SPF,GVF",
                          "--max-terms", "120"]):
                if cli.main(argv + ["--seed", str(args.seed)]) != 0:
                    raise SystemExit(f"speechscore {argv[0]} failed")
        digest = hashlib.sha256((features / "features.csv").read_bytes())
        dataset = load_prompt_dataset(features)
        resources = LexicalResources.load(corpus / "resources")
        config = ExtractorConfig(seed=args.seed)
        files = sorted(corpus.glob("*.json"))
        texts = [fp.read_text(encoding="utf-8") for fp in files]
        payloads = [json.loads(text) for text in texts]
        responses = [parse_response(p, base_dir=corpus) for p in payloads]

        layers = {
            "read": lambda: [fp.read_text(encoding="utf-8") for fp in files],
            "json": lambda: [json.loads(text) for text in texts],
            "parse": lambda: [parse_response(p, base_dir=corpus) for p in payloads],
            "fluency": lambda: [fluency_features(r, resources, set())
                                for r in responses],
            "prosody": lambda: [_prosody(r, config) for r in responses],
            "grammar": lambda: [grammar_features(r, resources, config, set())
                                for r in responses],
            "vectorize": lambda: [vectorize(dataset.vocabulary, r.transcript, set())
                                  for r in responses],
            "csv": lambda: dataset.matrix.to_csv(Path(tmp) / "profile.csv"),
        }
        print(f"{'layer':>10} {'best_s':>8}  (n={args.n}, seed={args.seed}, "
              f"{len(responses)} responses, fastest of {args.repeats})")
        for name, run in layers.items():
            best = float("inf")
            for _ in range(args.repeats):
                start = time.perf_counter()
                run()
                best = min(best, time.perf_counter() - start)
            print(f"{name:>10} {best:8.3f}")
        print(f"features.csv sha256 {digest.hexdigest()[:12]}")


if __name__ == "__main__":
    main()
