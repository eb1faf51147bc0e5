"""The engine still has every name the benchmark's tracer rebinds.

`perfbench/spans.py` wraps each `(module, attribute)` of its `TARGETS` by
name, so removing or renaming one of them in `src/` makes `Tracer.install()`
raise `AttributeError` and every traced benchmark run fail.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_spans()
    assert spans.TARGETS
    missing = [
        f"{path}.{attr}"
        for path, attr, *_ in spans.TARGETS
        if not hasattr(spans._resolve(path), attr)
    ]
    assert missing == []
