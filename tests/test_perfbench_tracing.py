import ast
import importlib
from pathlib import Path

import numpy as np
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


def test_rir_taps_counter_is_full_response_length(monkeypatch):
    # the tracer reports RirKernel.length as acoustics.rir_taps_mean: the
    # full response, leading zeros included, not the stored taps
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    fs, c, taps = 16000, acoustics.SPEED_OF_SOUND, acoustics.FRAC_DELAY_TAPS
    mics = np.array([[5.0, 5.0 - 0.085, 1.5], [5.0, 5.0 + 0.085, 1.5]])
    for dims, absorption, src in [((100.0, 100.0, 100.0), None, [5.0, 50.0, 1.5]),
                                  ((10.0, 8.0, 3.0), 0.4, [9.0, 1.0, 2.0])]:
        rir = acoustics.compute_rir(dims, absorption, src, mics, fs)
        dists = np.linalg.norm(mics - np.asarray(src), axis=1)
        if absorption is None:
            full = int(np.ceil(dists.max() / c * fs)) + taps
        else:
            end_s = dists.min() / c + 1.3 * acoustics.eyring_rt60(absorption, dims)
            full = int(np.round(end_s * fs)) + taps
        span = {}
        tracing._rir_taps(span, (), {}, rir)
        assert span["taps"] == rir.length == full == rir.samples.shape[1]
        assert rir.start > 0 and rir.taps.shape[1] == full - rir.start


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
