import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stereoscene.guidance import (
    AzimuthStateMatrix,
    BinTrajectory,
    COARSE_SIGMA,
    D_TIME,
    GuidanceError,
    L_AZI,
    angle_to_bin,
    centers_over_time,
    coarse_density,
    coarse_matrix,
    fine_matrix,
    interp_center,
    matrices_for_scene,
)
from stereoscene.rng import SeededRng
from stereoscene.scene import AttributeRecord, SourceAttributes, sample_scene

from conftest import moving_source, open_field_scene, still_source


def test_angle_to_bin_anchors():
    assert angle_to_bin(0.0) == 1.0       # right
    assert angle_to_bin(180.0) == 64.0    # left
    assert angle_to_bin(90.0) == 32.5
    with pytest.raises(GuidanceError):
        angle_to_bin(-1.0)
    with pytest.raises(GuidanceError):
        angle_to_bin(181.0)


def test_interp_center_piecewise():
    traj = BinTrajectory(mu_start=10.0, mu_end=50.0, start_bin_t=100, duration_bins=200)
    assert interp_center(traj, 99) == 10.0
    assert interp_center(traj, 100) == 10.0
    assert interp_center(traj, 200) == 30.0
    assert interp_center(traj, 300) == 50.0
    assert interp_center(traj, 500) == 50.0


def test_interp_center_step_for_zero_duration():
    traj = BinTrajectory(mu_start=5.0, mu_end=60.0, start_bin_t=384, duration_bins=0)
    assert interp_center(traj, 383) == 5.0
    assert interp_center(traj, 384) == 60.0


def test_coarse_static_column_properties():
    traj = BinTrajectory(mu_start=32.0, mu_end=32.0, start_bin_t=0, duration_bins=0)
    mat = coarse_matrix([traj]).data[0]
    sums = mat.sum(axis=0)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)
    assert np.all(mat >= 0)
    # peak at bin 32 and symmetric around it
    assert np.argmax(mat[:, 0]) == 31
    np.testing.assert_allclose(mat[31 - 5: 31, 0], mat[32 + 4: 31: -1, 0][: 5])


def test_coarse_prenormalization_peak_value():
    traj = BinTrajectory(mu_start=32.0, mu_end=32.0, start_bin_t=0, duration_bins=0)
    dens = coarse_density(traj, sigma=4.0)
    expected = 1.0 / math.sqrt(2.0 * math.pi * 16.0)
    assert abs(dens.max() - expected) < 1e-12
    assert abs(expected - 0.09973557) < 1e-7


def test_coarse_sigma_to_zero_approaches_one_hot():
    traj = BinTrajectory(mu_start=32.0, mu_end=32.0, start_bin_t=0, duration_bins=0)
    mat = coarse_matrix([traj], sigma=1e-3).data[0]
    hot = fine_matrix([traj]).data[0]
    np.testing.assert_allclose(mat, hot, atol=1e-12)


def test_fine_floor_semantics():
    traj = BinTrajectory(mu_start=32.9, mu_end=32.9, start_bin_t=0, duration_bins=0)
    hot = fine_matrix([traj]).data[0]
    assert np.all(np.argmax(hot, axis=0) == 31)  # bin 32, floor of 32.9

    edge = BinTrajectory(mu_start=1.0, mu_end=1.0, start_bin_t=0, duration_bins=0)
    hot = fine_matrix([edge]).data[0]
    assert np.all(np.argmax(hot, axis=0) == 0)


def test_fine_full_sweep_is_nondecreasing_staircase():
    traj = BinTrajectory(mu_start=1.0, mu_end=64.0, start_bin_t=0, duration_bins=D_TIME)
    hot_bins = np.argmax(fine_matrix([traj]).data[0], axis=0) + 1
    brute = np.array([
        min(max(int(math.floor(interp_center(traj, t))), 1), L_AZI) for t in range(D_TIME)
    ])
    np.testing.assert_array_equal(hot_bins, brute)
    assert np.all(np.diff(hot_bins) >= 0)


def test_coarse_argmax_tracks_center_with_low_tie():
    traj = BinTrajectory(mu_start=10.25, mu_end=50.75, start_bin_t=64, duration_bins=512)
    mat = coarse_matrix([traj]).data[0]
    centers = np.array([interp_center(traj, t) for t in range(D_TIME)])
    arg = np.argmax(mat, axis=0) + 1
    # argmax equals the nearest grid bin; exact half ties go to the lower bin
    frac = centers - np.floor(centers)
    expected = np.where(frac > 0.5, np.ceil(centers), np.floor(centers))
    np.testing.assert_array_equal(arg, expected.astype(int))


@settings(max_examples=50, deadline=None)
@given(
    mu0=st.integers(1 * 16, 64 * 16).map(lambda v: v / 16.0),
    mu1=st.integers(1 * 16, 64 * 16).map(lambda v: v / 16.0),
    t0=st.integers(0, D_TIME),
    frac=st.floats(0.0, 1.0),
)
def test_reflection_symmetry_coarse(mu0, mu1, t0, frac):
    dur = int((D_TIME - t0) * frac)
    traj = BinTrajectory(mu_start=mu0, mu_end=mu1, start_bin_t=t0, duration_bins=dur)
    mirror = BinTrajectory(mu_start=65.0 - mu0, mu_end=65.0 - mu1,
                           start_bin_t=t0, duration_bins=dur)
    a = coarse_matrix([traj]).data[0]
    b = coarse_matrix([mirror]).data[0]
    if dur == 0:
        # constant centers mirror bitwise
        np.testing.assert_array_equal(a, b[::-1, :])
    else:
        # interpolated centers round differently at the two ends of the axis
        np.testing.assert_allclose(a, b[::-1, :], rtol=0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@example(mu0=12.0, mu1=50.0, t0=117, frac=0.9929173213532467)
@given(
    mu0=st.integers(1, 64).map(float),
    mu1=st.integers(1, 64).map(float),
    t0=st.integers(0, D_TIME),
    frac=st.floats(0.0, 1.0),
)
def test_reflection_symmetry_fine_integer_centers(mu0, mu1, t0, frac):
    # the floor in the one-hot rule is only mirror-exact on integer centers
    # (floor(65 - mu) = 64 - floor(mu) off the grid); restrict accordingly
    dur = int((D_TIME - t0) * frac)
    traj = BinTrajectory(mu_start=mu0, mu_end=mu1, start_bin_t=t0, duration_bins=dur)
    mirror = BinTrajectory(mu_start=65.0 - mu0, mu_end=65.0 - mu1,
                           start_bin_t=t0, duration_bins=dur)
    a = fine_matrix([traj]).data[0]
    b = fine_matrix([mirror]).data[0]
    hot_a = np.argmax(a, axis=0) + 1
    hot_b = np.argmax(b, axis=0) + 1
    interp_exact = np.array([
        float(interp_center(traj, t)).is_integer() for t in range(D_TIME)
    ])
    np.testing.assert_array_equal(hot_a[interp_exact], 65 - hot_b[interp_exact])
    # off-grid columns reflect within the one-bin floor asymmetry
    assert np.all(np.abs(hot_a + hot_b - 65) <= 1)


def test_centers_over_time_equals_interp_center_loop():
    rng = np.random.default_rng(768)
    for i in range(400):
        if i % 2:
            mu0, mu1 = (float(m) for m in rng.integers(1, L_AZI + 1, 2))
        else:
            mu0, mu1 = rng.uniform(1.0, L_AZI, 2)
        t0 = int(rng.integers(0, D_TIME + 1))
        dur = 0 if i % 5 == 0 else int(rng.integers(0, D_TIME - t0 + 1))
        traj = BinTrajectory(mu_start=mu0, mu_end=mu1, start_bin_t=t0, duration_bins=dur)
        want = np.array([interp_center(traj, t) for t in range(D_TIME)])
        assert np.array_equal(centers_over_time(traj), want), traj


def test_matrix_save_load_roundtrip(tmp_path):
    traj = BinTrajectory(mu_start=4.0, mu_end=60.0, start_bin_t=77, duration_bins=600)
    mat = coarse_matrix([traj, traj])
    path = tmp_path / "clip.coarse.bin"
    mat.save(path)
    back = AzimuthStateMatrix.load(path)
    assert back.kind == "coarse"
    assert back.sigma == COARSE_SIGMA
    assert back.data.shape == (2, L_AZI, D_TIME)
    np.testing.assert_allclose(back.data, mat.data, atol=1e-7)  # float32 storage


def test_scene_to_matrices_shapes_and_motion_window():
    scene = open_field_scene([moving_source(30.0, 150.0, 20.0,
                                            move_start=1.0, move_interval=5.0),
                              still_source(90.0, 10.0)])
    coarse, fine = matrices_for_scene(scene)
    assert coarse.data.shape == (2, L_AZI, D_TIME)
    assert fine.data.shape == (2, L_AZI, D_TIME)
    hot = np.argmax(fine.data[0], axis=0) + 1
    t0 = round(1.0 / 10.0 * D_TIME)
    t1 = round(6.0 / 10.0 * D_TIME)
    assert np.all(hot[:t0] == hot[0])
    assert np.all(hot[t1 + 1:] == hot[-1])
    # 30 deg -> bin 11.5 (floor 11); 150 deg -> bin 53.5 (floor 53)
    assert hot[0] == 11 and hot[-1] == 53


def test_instant_source_matrix_steps():
    rng = SeededRng(3)
    record = AttributeRecord(
        scene_size_label="outdoors",
        sources=(SourceAttributes(event="e", direction_label="left",
                                  distance_label="far", movement="instant",
                                  speed_label="instant"),),
    )
    scene = sample_scene(record, rng)
    _, fine = matrices_for_scene(scene)
    hot = np.argmax(fine.data[0], axis=0)
    assert len(np.unique(hot)) <= 2
    changes = np.nonzero(np.diff(hot))[0]
    assert len(changes) <= 1
