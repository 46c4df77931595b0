"""Public names resolve, and so does every attribute the benchmark's span tracer wraps.

The tracer in ``perfbench/spans.py`` replaces functions at the module
attributes their callers look them up by; a refactor that renames or stops
calling one of them would silently drop its spans from the trace.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import bloch_braids
from bloch_braids import ModelSpec, topology

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_exported_name_resolves():
    modules = [bloch_braids] + [importlib.import_module(f"bloch_braids.{info.name}")
                                for info in pkgutil.iter_modules(bloch_braids.__path__)]
    assert len(modules) > 8
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_span_tracer_attributes_resolve_and_are_called():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()        # looks up every attribute it wraps, by name
    try:
        topology.total_braid_index(ModelSpec.trimer(1.0, 0.8, 0.3, 0.2, 0.7))
        topology.phase_diagram(ModelSpec.dimer(1.0, 1.5, 0.3, 1.0), ("beta", 1.4, 1.6, 2),
                               ("gamma", -1.0, 1.0, 3), samples=128, threads=1)
        # the one-trajectory reader, which calls evaluate_raw with arrays
        topology.extract_braid_word(topology.track_bands(ModelSpec.dimer(1.0, 1.5, 0.3, 1.0)))
    finally:
        tracer.uninstall()
    names = {span[1] for span in tracer.spans}
    assert {"topology.winding_number", "topology.gamma_axis_references", "topology.classify",
            "sweep.dimer_row_classify", "braid.extract_braid_word"} <= names
    assert tracer.counts["topology.winding_samples"] == 1024
    assert tracer.counts["braid.evaluations"] > 0
