"""Public names resolve, and so does every attribute the benchmark's span tracer wraps.

The tracer in ``perfbench/spans.py`` replaces functions at the module
attributes their callers look them up by; a refactor that renames or stops
calling one of them would silently drop its spans from the trace.
"""

import ast
import importlib
import importlib.util
import json
import pkgutil
from pathlib import Path

import bloch_braids
from bloch_braids import ModelSpec, cli, io, topology

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans, spans.Tracer()


def test_every_exported_name_resolves():
    modules = [bloch_braids] + [importlib.import_module(f"bloch_braids.{info.name}")
                                for info in pkgutil.iter_modules(bloch_braids.__path__)]
    assert len(modules) > 8
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_span_tracer_attributes_resolve_and_are_called():
    _, tracer = _tracer()
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


def test_span_tracer_sees_the_cli_writers_and_uninstalls(tmp_path, capsys):
    # the CLI calls each writer as an attribute of bloch_braids.io, where the
    # tracer wraps it; io.write_s and cli.self_s are read from these spans
    spans, tracer = _tracer()
    attrs = [(cli, "main")] + [(io, fn) for fn in spans.IO_FUNCS]
    before = [getattr(owner, attr) for owner, attr in attrs]
    model = tmp_path / "dimer.json"
    model.write_text(json.dumps(ModelSpec.dimer(1.0, 1.5, 0.3, 1.0).to_json_dict()))
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(attrs, before))
        for command, *args in (["bands", "--samples", "64"],
                               ["riemann", "--samples", "64", "--format", "json"], ["eps"],
                               ["phase-diagram", "--axis1", "beta:1.4:1.6:2",
                                "--axis2", "gamma:-1:1:3", "--samples", "128"]):
            assert cli.main([command, "--model", str(model), *args,
                             "--out", str(tmp_path / command),
                             "--dump-config", str(tmp_path / f"{command}.json")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert all(getattr(owner, attr) is original for (owner, attr), original in zip(attrs, before))
    seen = {span[1] for span in tracer.spans}
    assert {"cli.main", "io.trajectory_to_csv", "io.trajectory_to_json_dict",
            "io.eps_to_json_dict", "io.phase_diagram_to_csv", "io.dumps_json",
            "io.write_text"} <= seen
    metrics = tracer.metrics()
    assert metrics["io.write_s"] > 0 and metrics["cli.self_s"] > 0
    assert metrics["io.bytes_written"] == sum(p.stat().st_size for p in tmp_path.iterdir()
                                              if p.name != "dimer.json")


def _from_json_callers(path: Path) -> set[str]:
    """``file:function`` of each call of ``ModelSpec``/``RunConfig.from_json_dict`` in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scopes = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            scopes += [(f"{node.name}.{f.name}", f) for f in node.body
                       if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        else:
            scopes.append((getattr(node, "name", "<module>"), node))
    return {f"{path.name}:{name}" for name, scope in scopes for call in ast.walk(scope)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "from_json_dict" and isinstance(call.func.value, ast.Name)
            and call.func.value.id in ("ModelSpec", "RunConfig")}


def test_json_documents_are_read_in_one_place():
    # a model or config document crosses the JSON boundary in the CLI or in
    # models.model_from_json; inside the package a model travels as a ModelSpec,
    # never as a dict sent back through the JSON reader
    callers = set().union(*(_from_json_callers(path) for path in
                            sorted(Path(bloch_braids.__file__).parent.glob("*.py"))))
    assert "models.py:model_from_json" in callers and "cli.py:run" in callers
    assert {c for c in callers if not c.startswith("cli.py:")} == {"models.py:model_from_json"}
