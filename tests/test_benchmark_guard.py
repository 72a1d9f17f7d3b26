"""The benchmark wraps pipeline functions by name (``perfbench/spans.py``).

A renamed builder, solver or stage would make every benchmark run fail its
coverage check; these tests catch it in the test suite instead.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it loads; load
    # without leaving a bytecode cache in perfbench/
    sys.modules[spec.name] = module
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    yield module
    del sys.modules[spec.name]


def test_every_wrapped_name_exists(spans):
    spans.check_targets()


def test_a_renamed_builder_fails_the_check(spans, monkeypatch):
    from demers import cli

    monkeypatch.delattr(cli, "build_single_lp")
    with pytest.raises(spans.CoverageError, match="build_single_lp"):
        spans.check_targets()
