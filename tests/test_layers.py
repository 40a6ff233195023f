"""The traced benchmark (perfbench/run.py --trace 1) wraps the functions
that perfbench/spans.py lists in LAYERS; each must exist in the package,
or the traced run and the smoke run fail before they start, and each must
keep the call shape its extra reads."""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

from twobridge.cli import run

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_layer_resolves():
    spans = _load_spans()
    missing = []
    for module_name, func_name, _extra in spans.LAYERS:
        module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
        if not callable(getattr(module, func_name, None)):
            missing.append(f"{module_name}.{func_name}")
    assert missing == []


def test_root_of_unity_span_reads_p_prime():
    # the check's extra is its second positional argument, p'; casson at
    # 30/1 has p' = 15, and 9_27 (genus 3) has no order d | 15 with
    # phi(d) <= 6 that is not a prime power, so casson builds no Delta;
    # `alexander` reads Delta's coefficients from alexander._coefficients,
    # which alexander_poly also calls, with no LaurentPolynomial, so
    # neither call makes an alexander_poly span
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["casson", "9_27", "30/1", "--json"]) == 0
            assert run(["alexander", "9_27", "--json"]) == 0
    finally:
        tracer.uninstall()
    checks = [span for span in tracer.spans if span[1] == "casson.root_of_unity_check"]
    assert [span[6] for span in checks] == [15]
    assert sum(1 for span in tracer.spans if span[1] == "alexander.alexander_poly") == 0
