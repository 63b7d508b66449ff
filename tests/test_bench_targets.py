"""The benchmark's span recorder (bench/spans.py) wraps program functions
by name.  Installing it here makes a rename or deletion of a wrapped name
fail this suite instead of every benchmark iteration."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("tetrasym_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(name):
    layer, *owner, attr = name.split(".")
    mod = importlib.import_module("tetrasym." + layer)
    return vars(getattr(mod, owner[0]))[attr] if owner else getattr(mod, attr)


def test_span_recorder_installs_on_every_named_target():
    spans = _load_spans()
    names = set(spans.EXTRA) | spans.CONSTRUCTORS | spans.EXPLORERS | spans.CHAIN
    originals = {name: _resolve(name) for name in names}
    recorder = spans.Recorder()
    try:
        recorder.install()
        for name in names:
            assert hasattr(_resolve(name), "__wrapped__"), name
    finally:
        recorder.uninstall()
    assert {name: _resolve(name) for name in names} == originals
