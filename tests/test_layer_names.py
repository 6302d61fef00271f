"""Every layer the benchmark's tracer wraps still exists under its name.

``perfbench/layers.py`` looks its span targets up by module and attribute
path, so a rename in ``src/`` would otherwise break only the traced
benchmark run.  The file is loaded read-only; no wrapper is installed.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _spans():
    spec = importlib.util.spec_from_file_location("_perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.SPANS


def test_every_span_target_resolves():
    spans = _spans()
    assert spans
    for name, module_name, attr, _ in spans:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(target, part), f"{name}: {module_name}.{attr} is gone"
            target = getattr(target, part)
        assert callable(target), name
