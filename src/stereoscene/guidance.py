"""Azimuth state matrices: per-source azimuth-over-time guidance tensors.

Bin conventions: azimuth bin l runs 1..L_AZI with l = 1 at the right
(0 deg) and l = L_AZI at the left (180 deg). Time bin t covers
[t * T / D_TIME, (t+1) * T / D_TIME) seconds of a T-second clip.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import replace_file
from .scene import SceneSpec, SourceSpec

L_AZI = 64
D_TIME = 768
COARSE_SIGMA = 4.0  # standard deviation, in bin units


class GuidanceError(ValueError):
    pass


@dataclass(frozen=True)
class BinTrajectory:
    """Azimuth-bin motion of one source on the matrix grid.

    ``duration_bins == 0`` encodes a step (instant jump) at ``start_bin_t``.
    """

    mu_start: float
    mu_end: float
    start_bin_t: int
    duration_bins: int

    def __post_init__(self):
        for mu in (self.mu_start, self.mu_end):
            if not (1.0 <= mu <= L_AZI):
                raise GuidanceError(f"azimuth bin {mu} outside [1, {L_AZI}]")
        if not (0 <= self.start_bin_t <= D_TIME):
            raise GuidanceError("start time bin out of range")
        if self.duration_bins < 0 or self.start_bin_t + self.duration_bins > D_TIME:
            raise GuidanceError("motion window exceeds the time axis")


@dataclass(frozen=True)
class AzimuthStateMatrix:
    data: np.ndarray  # (K, L_AZI, D_TIME), float64 in memory
    kind: str  # "coarse" | "fine"
    sigma: float | None = None

    def save(self, path) -> None:
        """Row-major float32 binary plus a JSON sidecar describing the layout."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        replace_file(path, np.ascontiguousarray(self.data, np.float32))
        sidecar = {
            "shape": list(self.data.shape),
            "dtype": "float32",
            "order": "C",
            "kind": self.kind,
            "sigma": self.sigma,
            "azimuth_bins": self.data.shape[1],
            "time_bins": self.data.shape[2],
            "bin_convention": "l=1 right (0 deg), l=L left (180 deg); row-major (source, azimuth, time)",
        }
        replace_file(f"{path}.json", json.dumps(sidecar, indent=2).encode())

    @staticmethod
    def load(path) -> "AzimuthStateMatrix":
        path = Path(path)
        sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
        data = np.fromfile(path, dtype=np.float32).reshape(sidecar["shape"]).astype(np.float64)
        return AzimuthStateMatrix(data=data, kind=sidecar["kind"], sigma=sidecar.get("sigma"))


def angle_to_bin(theta_deg: float) -> float:
    """Linear map from azimuth degrees to a real-valued bin in [1, L_AZI]."""
    if not (0.0 <= theta_deg <= 180.0):
        raise GuidanceError(f"angle {theta_deg} outside [0, 180]")
    return 1.0 + (L_AZI - 1) * theta_deg / 180.0


def interp_center(traj: BinTrajectory, t: float) -> float:
    """Azimuth-bin center at time bin ``t``: constant before the motion
    window, linear inside it, constant after."""
    if t < traj.start_bin_t:
        return traj.mu_start
    if traj.duration_bins <= 0 or t >= traj.start_bin_t + traj.duration_bins:
        return traj.mu_end
    # scale before dividing: on integer bins the product is exact and the
    # quotient correctly rounded, so an integer center mirrors exactly
    step = (t - traj.start_bin_t) * (traj.mu_end - traj.mu_start) / traj.duration_bins
    return traj.mu_start + step


def centers_over_time(traj: BinTrajectory) -> np.ndarray:
    """``interp_center`` at every time bin, bit for bit."""
    t = np.arange(D_TIME)
    t0, dur = traj.start_bin_t, traj.duration_bins
    step = (t - t0) * (traj.mu_end - traj.mu_start) / max(dur, 1)
    moving = traj.mu_start + step
    return np.where(t < t0, traj.mu_start, np.where(t < t0 + dur, moving, traj.mu_end))


def coarse_density(traj: BinTrajectory, sigma: float = COARSE_SIGMA) -> np.ndarray:
    """Unnormalized Gaussian density over integer azimuth bins, (L, T)."""
    if sigma <= 0:
        raise GuidanceError("sigma must be positive")
    mu = centers_over_time(traj)  # (T,)
    l_grid = np.arange(1, L_AZI + 1, dtype=np.float64)[:, None]  # (L, 1)
    diff = l_grid - mu[None, :]
    return np.exp(-(diff ** 2) / (2.0 * sigma ** 2)) / math.sqrt(2.0 * math.pi * sigma ** 2)


def coarse_matrix(trajs, sigma: float = COARSE_SIGMA) -> AzimuthStateMatrix:
    """Gaussian guidance, azimuth-normalized so every time column sums to 1."""
    slabs = []
    for traj in trajs:
        dens = coarse_density(traj, sigma)
        # summing in sorted order keeps normalization invariant under
        # azimuth reflection (same multiset, same rounding)
        sums = np.sort(dens, axis=0).sum(axis=0, keepdims=True)
        slabs.append(dens / sums)
    return AzimuthStateMatrix(data=np.stack(slabs), kind="coarse", sigma=sigma)


def fine_matrix(trajs) -> AzimuthStateMatrix:
    """One-hot guidance at floor(center), clamped to the bin range."""
    slabs = []
    for traj in trajs:
        mu = centers_over_time(traj)
        hot = np.clip(np.floor(mu).astype(int), 1, L_AZI)
        slab = np.zeros((L_AZI, D_TIME))
        slab[hot - 1, np.arange(D_TIME)] = 1.0
        slabs.append(slab)
    return AzimuthStateMatrix(data=np.stack(slabs), kind="fine", sigma=None)


def bin_trajectory_for_source(src: SourceSpec, t_total: float) -> BinTrajectory:
    """Quantize a SourceSpec's angles and motion timing onto the matrix grid."""
    mu_start = angle_to_bin(src.angle)
    if src.movement == "still":
        return BinTrajectory(mu_start=mu_start, mu_end=mu_start, start_bin_t=0, duration_bins=0)
    end_angle = src.end_angle if src.end_angle is not None else src.angle
    mu_end = angle_to_bin(end_angle)
    if src.movement == "instant":
        t0 = int(np.clip(round(src.instant_time / t_total * D_TIME), 0, D_TIME))
        return BinTrajectory(mu_start=mu_start, mu_end=mu_end, start_bin_t=t0, duration_bins=0)
    t0 = int(np.clip(round(src.move_start / t_total * D_TIME), 0, D_TIME))
    dur = int(round(src.move_interval / t_total * D_TIME))
    dur = min(dur, D_TIME - t0)
    return BinTrajectory(mu_start=mu_start, mu_end=mu_end, start_bin_t=t0, duration_bins=dur)


def matrices_for_scene(scene: SceneSpec):
    """Coarse and fine matrices for every source in a scene."""
    trajs = [bin_trajectory_for_source(s, scene.duration) for s in scene.sources]
    return coarse_matrix(trajs), fine_matrix(trajs)
