import ast
import importlib
from pathlib import Path

import pytest

from stereoscene import acoustics, pipeline, render

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wrap_points_resolve(monkeypatch):
    # the benchmark's tracer wraps functions by name and raises
    # WrapPointMissing for a name that does not resolve, so a renamed wrap
    # point fails here, not only in a traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert render.stereo_rir_for.__wrapped__ is acoustics.stereo_rir_for
        assert pipeline.render_moving.__wrapped__ is render.render_moving
    finally:
        tracer.uninstall()
    assert render.stereo_rir_for is acoustics.stereo_rir_for
    assert pipeline.render_moving is render.render_moving


def _benchmark_imports():
    """(file, module, name) for each ``from stereoscene... import name`` in perfbench."""
    found = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "stereoscene":
                found.update((path.name, node.module, alias.name) for alias in node.names)
    return sorted(found)


@pytest.mark.parametrize("source,module,name", _benchmark_imports())
def test_benchmark_imports_resolve(source, module, name):
    # the benchmark runs the program through these names, so removing one
    # fails here, not only in a benchmark run
    owner = importlib.import_module(module)
    if not hasattr(owner, name):
        importlib.import_module(f"{module}.{name}")  # raises if no such submodule
