"""The benchmark's span tracer (perfbench/spans.py) still finds every
function, method and counter it wraps, and puts every one of them back."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_installs_and_restores_every_binding():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        restored = tracer.uninstall()
    assert restored is True
