"""The benchmark tracer (perfbench/spans.py) patches package names in place.

A refactor that renames or drops one of those names breaks traced benchmark
runs, so every lookup site must resolve here, in the tier-1 suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest
from conftest import synth_audio_subset

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses resolve the module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_function_sites_resolve(spans):
    assert spans.FUNCTION_SITES
    for module_name, attr, _ in spans.FUNCTION_SITES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_method_sites_resolve(spans):
    assert spans.METHOD_SITES
    for module_name, cls_name, attr, _, is_classmethod in spans.METHOD_SITES:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        assert cls is not None, f"{module_name}.{cls_name}"
        member = cls.__dict__.get(attr)
        assert member is not None, f"{module_name}.{cls_name}.{attr}"
        assert isinstance(member, classmethod) == is_classmethod, attr


def test_traced_grid_search_records_its_span(spans, tmp_path):
    # A call site that binds grid_search before the tracer installs would
    # leave learners.grid_search_s reading 0 with the run still passing.
    from speechscore.cli import main

    corpus, feats = tmp_path / "corpus", tmp_path / "features"
    assert main(["synth", "--n", "60", "--seed", "3", "--out", str(corpus)]) == 0
    assert main(["extract", "--manifest", str(corpus / "manifest.txt"),
                 "--resources", str(corpus / "resources"), "--out", str(feats),
                 "--groups", "FF,SPF", "--seed", "3"]) == 0
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        assert main(["train", "--features", str(feats),
                     "--out", str(tmp_path / "run"), "--seed", "3",
                     "--folds", "2", "--grid",
                     '{"max_depth": [2], "n_stages": [3]}']) == 0
    finally:
        uninstall()
    names = [span.name for span in tracer.spans]
    assert names.count("learners.grid_search") == 1
    assert names.count("learners.fit_gbt") == 2 + 1      # folds + refit


def test_traced_extraction_records_each_family_per_response(spans, tmp_path):
    # A family that `_extract_one` reads from anywhere but the `features`
    # module globals (a table bound at import time, say) escapes the tracer,
    # and its per-family self time reads 0 with the run still passing.
    from speechscore.cli import main

    corpus = tmp_path / "corpus"
    assert main(["synth", "--n", "50", "--seed", "3", "--out", str(corpus)]) == 0
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        assert main(["extract", "--manifest", str(corpus / "manifest.txt"),
                     "--resources", str(corpus / "resources"),
                     "--out", str(tmp_path / "features"),
                     "--groups", "CF,FF,SPF,GVF", "--seed", "3"]) == 0
    finally:
        uninstall()
    names = [span.name for span in tracer.spans]
    for name in ("features.extract_one", "content.vectorize",
                 "fluency.fluency_features", "prosody.prosody_features",
                 "grammar.grammar_features"):
        assert names.count(name) == 50, name


def test_traced_af_extraction_reads_and_extracts_each_response(spans, tmp_path):
    # AF reads each response's WAV by path through the `features` module
    # globals; a call that bypasses them would leave the acoustic layers
    # reading 0 in a traced run.
    from speechscore.cli import main

    corpus = tmp_path / "corpus"
    subset = synth_audio_subset(corpus)
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        assert main(["extract", "--manifest", str(subset),
                     "--resources", str(corpus / "resources"),
                     "--out", str(tmp_path / "features"),
                     "--groups", "AF", "--threads", "1", "--seed", "3"]) == 0
    finally:
        uninstall()
    names = [span.name for span in tracer.spans]
    for name in ("acoustic.read_wav", "acoustic.extract_acoustic"):
        assert names.count(name) == 6, name
