"""Every layer the benchmark traces must exist in the package.

perfbench/layers.py names the functions it wraps; a name that disappears
is reported there as an absent layer instead of failing.  This test fails
at once instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _traced_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    layers = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = layers  # its dataclasses look the module up
    try:
        spec.loader.exec_module(layers)
    finally:
        del sys.modules[spec.name]
    return layers.LAYERS


def test_every_traced_layer_resolves():
    traced = _traced_layers()
    assert traced
    missing = [
        f"{mod}.{fn}" for mod, fn, _ in traced
        if not callable(getattr(importlib.import_module(f"shadowlab.{mod}"), fn, None))
    ]
    assert missing == []
