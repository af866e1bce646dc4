"""The benchmark's tracer finds every package name it wraps.

perfbench/tracing.py patches named functions of ucf from outside; a name
that disappears from the package silently drops the per-layer metrics that
depend on it.  This fails on such a rename in the fast tier instead.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_pinned_name():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pinned = {f"{path}.{key}" for path, key, *_ in tracing._specs()}
        assert pinned - tracer.installed == set()
    finally:
        tracer.uninstall()
