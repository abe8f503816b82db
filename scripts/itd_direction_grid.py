#!/usr/bin/env python3
"""Direction-grid experiment: render anechoic noise at a grid of azimuths and
compare windowed GCC-PHAT TDOA against the far-field geometric prediction."""

import argparse
import math

import numpy as np

from stereoscene.acoustics import render_static, stereo_rir_for
from stereoscene.audio_io import AudioBuffer
from stereoscene.metrics import tdoa_series
from stereoscene.scene import MicArray, SceneSpec, SourceSpec


def render_at(theta_deg: float, distance: float, spacing: float, seed: int):
    mic = MicArray(center=(50.0, 50.0, 50.0), half_spacing=spacing / 2.0)
    th = math.radians(theta_deg)
    pos = (50.0 + distance * math.sin(th), 50.0 + distance * math.cos(th), 50.0)
    src = SourceSpec(start_pos=pos, end_pos=pos, angle=theta_deg, distance=distance,
                     movement="still")
    scene = SceneSpec(room_dims=(100.0, 100.0, 100.0), rt60=None, mic_array=mic,
                      sources=(src,))
    rng = np.random.default_rng(seed)
    mono = AudioBuffer(rng.standard_normal(16000 * 10) * 0.3, 16000)
    rir = stereo_rir_for(scene, np.asarray(pos))
    out = render_static(mono, rir)
    rms = float(np.sqrt(np.mean(out.data ** 2)))
    return AudioBuffer(out.data / rms * 10 ** (-8 / 20), 16000)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--step", type=float, default=15.0, help="grid step in degrees")
    ap.add_argument("--distance", type=float, default=30.0)
    ap.add_argument("--spacing", type=float, default=0.17)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"{'theta':>6} {'geo ITD (ms)':>13} {'measured (ms)':>14} "
          f"{'err (us)':>9} {'valid':>6}")
    thetas = np.arange(0.0, 180.0 + 1e-9, args.step)
    worst = 0.0
    for i, theta in enumerate(thetas):
        out = render_at(theta, args.distance, args.spacing, args.seed + i)
        series = tdoa_series(out)
        vals = series.valid_values()
        geo = args.spacing * math.cos(math.radians(theta)) / 343.0
        med = float(np.median(vals))
        err_us = abs(med - geo) * 1e6
        worst = max(worst, err_us)
        print(f"{theta:6.1f} {geo * 1e3:13.4f} {med * 1e3:14.4f} "
              f"{err_us:9.2f} {vals.size:6d}")
    print(f"worst median error: {worst:.2f} us "
          f"(one interpolated lag bin = {1e6 / (16 * 16000):.2f} us)")


if __name__ == "__main__":
    main()
