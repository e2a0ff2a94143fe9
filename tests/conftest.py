"""Shared fixtures for the test suite."""

import pytest

from rangesr import sdp
from rangesr.config import make_radar_config


@pytest.fixture()
def admm_budget(monkeypatch):
    """Sets the SDP's budget constants for one test, by name:
    admm_budget(_MAX_OUTER=2, _INNER_ITERS=40)."""

    def patch(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(sdp, name, value)

    return patch


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
