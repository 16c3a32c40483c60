"""The benchmark tracer looks up topinv functions by name; constructing it
resolves every one, so a rename or removal fails here and not in a run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_resolves_every_traced_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert mod.Tracer().names
