"""The traced benchmark (perfbench/run.py --trace 1) wraps the functions
that perfbench/spans.py lists in LAYERS; each must exist in the package,
or the traced run and the smoke run fail before they start."""

import importlib
import importlib.util
from pathlib import Path

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, func_name, _extra in spans.LAYERS:
        module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
        if not callable(getattr(module, func_name, None)):
            missing.append(f"{module_name}.{func_name}")
    assert missing == []
