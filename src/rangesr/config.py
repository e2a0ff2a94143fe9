"""Radar parameters, scene truths, and the JSON codec of every artifact.

`RadarConfig` holds the six raw LFMCW/array parameters and derives the rest
(range cell, chirp rate, wavelength, fast-time sample count) on access.
`to_json`/`from_json` turn any record of the package into its JSON form and
back, and `dump_json` writes that form with canonical bytes.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from dataclasses import dataclass

import numpy as np

# exact SI value; docs quote the usual 3e8 round numbers (good to 0.07%)
C_LIGHT = 299_792_458.0


class ConfigError(ValueError):
    """Raised when a configuration value violates its contract."""


def _require_positive_finite(name: str, value) -> None:
    # NaN fails both comparisons
    if not 0 < value < np.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class RadarConfig:
    """LFMCW waveform and uniform-linear-array geometry.

    Construction validates the parameters (all positive and finite, at
    least 8 fast-time samples per chirp) and sets a missing element spacing
    to half the carrier wavelength. Derived quantities are properties.
    """

    carrier_hz: float                        # f_c
    bandwidth_hz: float                      # B, swept per chirp
    chirp_s: float                           # T, one modulation period
    sample_rate_hz: float                    # 1 / fast-time sample interval
    n_elements: int                          # L
    element_spacing_m: float | None = None   # d; None means half the wavelength

    def __post_init__(self) -> None:
        for name in ("carrier_hz", "bandwidth_hz", "chirp_s", "sample_rate_hz", "n_elements"):
            _require_positive_finite(name, getattr(self, name))
        object.__setattr__(self, "n_elements", int(self.n_elements))
        if self.element_spacing_m is None:
            object.__setattr__(self, "element_spacing_m", self.wavelength_m / 2.0)
        _require_positive_finite("element_spacing_m", self.element_spacing_m)
        # two finite factors can overflow, and n_fast cannot round inf
        _require_positive_finite("chirp_s * sample_rate_hz", self.chirp_s * self.sample_rate_hz)
        if self.n_fast < 8:
            raise ConfigError(f"chirp_s * sample_rate_hz gives n_fast={self.n_fast}, need >= 8")

    @property
    def n_fast(self) -> int:
        """N = round(T * fs) fast-time samples per chirp."""
        return int(round(self.chirp_s * self.sample_rate_hz))

    @property
    def chirp_rate_hz_per_s(self) -> float:
        """gamma = B / T."""
        return self.bandwidth_hz / self.chirp_s

    @property
    def range_res_m(self) -> float:
        """Range cell c / (2 B)."""
        return C_LIGHT / (2.0 * self.bandwidth_hz)

    @property
    def wavelength_m(self) -> float:
        """Carrier wavelength c / f_c."""
        return C_LIGHT / self.carrier_hz

    @property
    def dt(self) -> float:
        """Fast-time sample interval (s)."""
        return 1.0 / self.sample_rate_hz

    def beat_freq(self, range_m: float) -> float:
        """Normalized fast-time beat frequency of a target at `range_m`."""
        return 2.0 * self.chirp_rate_hz_per_s * range_m / C_LIGHT * self.dt

    def keystone_scale(self, n: np.ndarray) -> np.ndarray:
        """Keystone scale alpha_n = 1 + gamma n dt / f_c of the fast-time
        index n (centred, as `axis_values` gives it)."""
        return 1.0 + self.chirp_rate_hz_per_s * n * self.dt / self.carrier_hz

    def range_of_freq(self, freq: float) -> float:
        """Inverse of :meth:`beat_freq`: range (m) of a normalized frequency."""
        return freq * C_LIGHT / (2.0 * self.chirp_rate_hz_per_s * self.dt)

    def doppler_freq(self, velocity_mps: float) -> float:
        """Normalized slow-time frequency of a radial velocity (cycles/chirp)."""
        return 2.0 * self.carrier_hz * velocity_mps / C_LIGHT * self.chirp_s


# the factory name callers use; RadarConfig validates and derives on its own
make_radar_config = RadarConfig


@dataclass(frozen=True)
class UavTruth:
    """One point target: initial radial range, radial velocity (positive =
    receding), arrival angle, and complex scattering amplitude."""

    range0_m: float
    velocity_mps: float = 0.0
    angle_rad: float = 0.0
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        if not self.range0_m > 0:
            raise ConfigError(f"range0_m must be positive, got {self.range0_m!r}")
        if not abs(self.angle_rad) < np.pi / 2:
            raise ConfigError(f"|angle_rad| must be < pi/2, got {self.angle_rad!r}")

    def advanced(self, gap_s: float) -> "UavTruth":
        """Truth after `gap_s` seconds of constant radial motion."""
        return dataclasses.replace(self, range0_m=self.range0_m + self.velocity_mps * gap_s)


def to_json(record):
    """JSON form of a record.

    A dataclass becomes a dict of its fields by name, a tuple or list a
    list, and a complex number `[re, im]`, recursively; any other value is
    kept as it is. :func:`from_json` reads the form back.
    """
    if dataclasses.is_dataclass(record):
        return {f.name: to_json(getattr(record, f.name)) for f in dataclasses.fields(record)}
    if isinstance(record, (tuple, list)):
        return [to_json(v) for v in record]
    if isinstance(record, complex):
        return [record.real, record.imag]
    return record


def from_json(cls, raw: dict):
    """The dataclass `cls` built from its JSON form.

    Each value is decoded by its field's declared type: records, tuples and
    optionals recursively, a complex number from `[re, im]` or a scalar, and
    any other value by calling the type on it (so 10 becomes 10.0 in a float
    field, and 2.0 becomes 2 in an int field). Missing keys take the field
    defaults. At any depth `ConfigError` is raised for a key that names no
    field (so a misspelled key is not read as its field's default), a
    missing key whose field has no default, a record that is not a JSON
    object, a null in a field that is not optional, a fractional number or a
    bool in an int field (so 2.5 is not truncated to 2), a NaN or infinity
    in a float or complex field (`json.load` reads both; null is the
    noise-free SNR) and a value its field's type cannot take.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {raw!r}")
    fields = dataclasses.fields(cls)
    unknown = set(raw) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} key(s): {', '.join(sorted(unknown))}")
    hints = typing.get_type_hints(cls)
    values = {
        f.name: _decode(hints[f.name], raw[f.name], f"{cls.__name__}.{f.name}")
        for f in fields if f.name in raw
    }
    missing = [
        f.name for f in fields
        if f.name not in raw
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ConfigError(f"missing {cls.__name__} key(s): {', '.join(missing)}")
    return cls(**values)


def _decode(tp, value, key: str):
    """`value` read as type `tp`; `key` ("Class.field") names it in errors."""
    args = typing.get_args(tp)
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):   # X | None
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _decode(tp, value, key)
    if value is None:
        raise ConfigError(f"{key} must not be null")
    if origin is tuple:                             # tuple[X, ...]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return tuple(_decode(args[0], v, key) for v in value)
    if dataclasses.is_dataclass(tp):
        return from_json(tp, value)
    if tp is int and (
        isinstance(value, bool) or (isinstance(value, float) and not value.is_integer())
    ):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    try:
        out = complex(*value) if tp is complex and isinstance(value, (list, tuple)) else tp(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} cannot be read as {tp.__name__}: {value!r}") from None
    if tp in (float, complex) and not np.isfinite(out):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return out


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(obj, path) -> None:
    """Canonical JSON writer: sorted keys, fixed separators, trailing newline.

    Used for every serialized artifact so identical inputs yield identical
    bytes. NaN and infinity are not JSON, so writing one raises ValueError.
    """
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
