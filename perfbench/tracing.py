"""Spans around calls into each stereoscene layer, recorded from outside.

The tracer replaces module attributes with timing wrappers for the duration
of a traced pass and puts the originals back afterwards; nothing under
``src/`` changes. A wrap point is resolved where the caller looks it up:
``pipeline`` imports ``read_wav``, ``crop_pad`` and friends by name, so those
are wrapped in the ``pipeline`` namespace, and ``render`` imports
``stereo_rir_for`` by name, so that one is wrapped in ``render``. A wrap
point that does not resolve is an error, never a silent zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from pathlib import Path

import numpy as np


class WrapPointMissing(RuntimeError):
    pass


def _bytes_of(span, args, kwargs, result):
    span["bytes"] = os.path.getsize(args[0])


def _matrix_bytes(span, args, kwargs, result):
    path = Path(args[1])
    span["bytes"] = os.path.getsize(path) + os.path.getsize(path.with_suffix(path.suffix + ".json"))


def _render_counts(span, args, kwargs, result):
    from stereoscene.render import MOVING_HOP_S

    mono, scene, source = args[:3]
    span["movement"] = source.movement
    if source.movement == "moving":
        hop = int(round(MOVING_HOP_S * scene.sample_rate))
        span["grains"] = math.ceil(mono.n_samples / hop)


def _rir_taps(span, args, kwargs, result):
    span["taps"] = result.length


def _tdoa_windows(span, args, kwargs, result):
    span["windows"] = len(result.windows)
    span["valid"] = result.n_valid


def _entry_clip(args):
    return args[0].clip_id


# (module, attribute path, span name, counter hook, clip-id getter)
WRAP_POINTS = (
    ("pipeline", "synthesize", "pipeline.synthesize", None, None),
    ("pipeline", "validate", "pipeline.validate", None, None),
    ("pipeline", "evaluate", "pipeline.evaluate", None, None),
    ("pipeline", "synthesize_entry", "pipeline.entry", None, _entry_clip),
    ("pipeline", "read_wav", "audio_io.read", _bytes_of, None),
    ("pipeline", "write_wav", "audio_io.write", _bytes_of, None),
    ("pipeline", "resolve_attributes", "scene.resolve", None, None),
    ("pipeline", "sample_scene", "scene.sample", None, None),
    ("pipeline", "crop_pad", "render.crop_pad", None, None),
    ("pipeline", "render_moving", "render.render_moving", _render_counts, None),
    ("pipeline", "mix_scene", "render.mix", None, None),
    ("render", "stereo_rir_for", "acoustics.stereo_rir", _rir_taps, None),
    ("guidance", "matrices_for_scene", "guidance.matrices", None, None),
    ("guidance", "AzimuthStateMatrix.save", "guidance.save", _matrix_bytes, None),
    ("guidance", "AzimuthStateMatrix.load", "guidance.load", None, None),
    ("captions", "parse_caption", "captions.parse", None, None),
    ("captions", "generate_caption", "captions.generate", None, None),
    ("metrics", "tdoa_series", "metrics.tdoa_series", _tdoa_windows, None),
    ("metrics", "gcc_phat_correlation", "metrics.gcc", None, None),
    ("metrics", "default_embed", "metrics.embed", None, None),
    ("metrics", "frechet_distance", "metrics.frechet", None, None),
)


def _resolve(module_name: str, attr_path: str):
    """(owner object, attribute name, raw attribute) for a dotted path."""
    try:
        owner = importlib.import_module(f"stereoscene.{module_name}")
    except ImportError as exc:
        raise WrapPointMissing(f"stereoscene.{module_name}: {exc}") from exc
    *parents, name = attr_path.split(".")
    for part in parents:
        if not hasattr(owner, part):
            raise WrapPointMissing(f"stereoscene.{module_name}.{attr_path}: no {part!r}")
        owner = getattr(owner, part)
    try:
        raw = inspect.getattr_static(owner, name)
    except AttributeError as exc:
        raise WrapPointMissing(f"stereoscene.{module_name}.{attr_path} does not exist") from exc
    if not callable(getattr(owner, name)):
        raise WrapPointMissing(f"stereoscene.{module_name}.{attr_path} is not callable")
    return owner, name, raw


class Tracer:
    """In-memory spans: name, start, end, parent index and clip id.

    Counters a hook reads from arguments or results (bytes, grains, taps,
    windows) are stored on the span after its end time is taken, so they
    count as tracing overhead, not as layer time.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self._t0 = time.perf_counter()

    def _wrap(self, fn, span_name, hook, clip_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            clip = clip_of(args) if clip_of else (
                self.spans[parent]["clip"] if parent is not None else None)
            span = {"name": span_name, "parent": parent, "clip": clip}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span["start"] = time.perf_counter() - self._t0
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter() - self._t0
                self._stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        resolved = [(_resolve(m, a), name, hook, clip) for m, a, name, hook, clip in WRAP_POINTS]
        for (owner, attr, raw), span_name, hook, clip_of in resolved:
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, span_name, hook, clip_of))
            else:
                new = self._wrap(raw, span_name, hook, clip_of)
            setattr(owner, attr, new)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)


def layer_metrics(spans: list[dict], flow_wall_s: float, clips_scored: int) -> dict:
    """Per-layer figures from one traced pass.

    A span's self time is its duration minus the durations of its direct
    children. ``clips_scored`` is the number of clips (both sides of every
    pair) the pass's evaluate call embedded, 0 when it did not evaluate.
    """
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += dur[i]

    def select(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def total(*names):
        return float(sum(dur[i] for n in names for i in select(n)))

    def summed(name, key):
        return float(sum(spans[i].get(key, 0) for i in select(name)))

    rirs = select("acoustics.stereo_rir")
    renders = select("render.render_moving")
    moving = {i for i in renders if spans[i].get("movement") == "moving"}
    grains = summed("render.render_moving", "grains")
    windows = summed("metrics.tdoa_series", "windows")
    valid = summed("metrics.tdoa_series", "valid")
    gcc = len(select("metrics.gcc"))
    pipeline_spans = [i for i, s in enumerate(spans) if s["name"].startswith("pipeline.")]

    def ratio(a, b):
        return float(a / b) if b else 0.0

    return {
        "acoustics.rir_builds": float(len(rirs)),
        "acoustics.rir_s": total("acoustics.stereo_rir"),
        "acoustics.rir_ms_p50": float(np.median([dur[i] for i in rirs]) * 1e3) if rirs else 0.0,
        "acoustics.rir_taps_mean": ratio(summed("acoustics.stereo_rir", "taps"), len(rirs)),
        "acoustics.rir_share": ratio(total("acoustics.stereo_rir"), flow_wall_s),
        "render.crop_pad_s": total("render.crop_pad"),
        "render.moving_self_s": float(sum(dur[i] - child[i] for i in renders)),
        "render.grains": grains,
        "render.rir_builds_per_grain": ratio(
            sum(1 for i in rirs if spans[i]["parent"] in moving), grains),
        "render.mix_s": total("render.mix"),
        "guidance.matrices_s": total("guidance.matrices"),
        "guidance.save_s": total("guidance.save"),
        "guidance.load_s": total("guidance.load"),
        "guidance.bytes_written": summed("guidance.save", "bytes"),
        "audio_io.read_s": total("audio_io.read"),
        "audio_io.write_s": total("audio_io.write"),
        "audio_io.bytes_read": summed("audio_io.read", "bytes"),
        "audio_io.bytes_written": summed("audio_io.write", "bytes"),
        "metrics.tdoa_s": total("metrics.tdoa_series"),
        "metrics.tdoa_calls": float(len(select("metrics.tdoa_series"))),
        "metrics.windows": windows,
        "metrics.windows_valid_ratio": ratio(valid, windows),
        "metrics.gcc_calls": float(gcc),
        "metrics.gcc_per_valid_window": ratio(gcc, valid),
        "metrics.embed_share": ratio(total("metrics.embed"), flow_wall_s),
        "metrics.embeds_per_clip": ratio(len(select("metrics.embed")), clips_scored),
        "metrics.frechet_share": ratio(total("metrics.frechet"), flow_wall_s),
        "metrics.frechet_calls": float(len(select("metrics.frechet"))),
        "scene.sample_s": total("scene.sample", "scene.resolve"),
        "captions.parse_s": total("captions.parse"),
        "captions.generate_s": total("captions.generate"),
        "pipeline.synthesize_s": total("pipeline.synthesize"),
        "pipeline.validate_s": total("pipeline.validate"),
        "pipeline.evaluate_share": ratio(total("pipeline.evaluate"), flow_wall_s),
        "pipeline.self_s": float(sum(dur[i] - child[i] for i in pipeline_spans)),
    }
