from pathlib import Path

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
