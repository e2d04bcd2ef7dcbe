"""The benchmark tracer (perfbench/spans.py) patches package names in place.

A refactor that renames or drops one of those names breaks traced benchmark
runs, so every lookup site must resolve here, in the tier-1 suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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
