"""Shared fixtures for the test suite."""

import pytest

from rangesr.config import make_radar_config


@pytest.fixture(scope="session")
def tiny_cfg():
    # 64 fast-time samples, 4 elements; unambiguous out to ~96 m
    return make_radar_config(
        carrier_hz=10e9,
        bandwidth_hz=50e6,
        chirp_s=12.8e-6,
        sample_rate_hz=5e6,
        n_elements=4,
    )


@pytest.fixture(scope="session")
def tiny_cfg_1ch():
    return make_radar_config(
        carrier_hz=10e9,
        bandwidth_hz=50e6,
        chirp_s=12.8e-6,
        sample_rate_hz=5e6,
        n_elements=1,
    )
