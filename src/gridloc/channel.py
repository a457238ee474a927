"""Log-distance radio channel: RSS from distance, inverse ranging, shadowing, quantization."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional, Sequence

import numpy as np

DEFAULT_A_DBM = -45.0
DEFAULT_RSSI_OFFSET_DBM = -45.0

# Inverse-ranging clamp. Noisy RSS above the 1 m reference power would map to
# sub-reference distances; RSS far below it would map to absurd ranges.
D_MIN_M = 0.1
D_MAX_FACTOR = 4.0


@dataclass(frozen=True)
class ChannelParams:
    """Propagation constants.

    a_dbm is the power received 1 m from the transmitter, n_exp the
    path-loss exponent, sigma_dbm the shadowing standard deviation.
    Packets sent from beyond reception_radius_m are never received.
    """

    a_dbm: float = DEFAULT_A_DBM
    n_exp: float = 2.0
    sigma_dbm: float = 0.0
    rssi_offset_dbm: float = DEFAULT_RSSI_OFFSET_DBM
    reception_radius_m: float = 30.0

    def __post_init__(self) -> None:
        # JSON may spell NaN and Infinity, which pass the range checks below.
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.n_exp <= 0:
            raise ValueError("n_exp must be positive")
        if self.sigma_dbm < 0:
            raise ValueError("sigma_dbm must be >= 0")
        if self.reception_radius_m <= 0:
            raise ValueError("reception_radius_m must be positive")

    @property
    def d_max_m(self) -> float:
        """Upper clamp for inverse ranging."""
        return D_MAX_FACTOR * self.reception_radius_m


class RssMeasurement(NamedTuple):
    rss_dbm: float
    register_dbm: int


class RangeEstimate(NamedTuple):
    distance_m: float
    clamped: bool


def distance_to_rss(d: float, params: ChannelParams) -> float:
    """Deterministic received power in dBm at distance d, strictly decreasing in d."""
    if d <= 0:
        raise ValueError("distance must be positive")
    return params.a_dbm - 10.0 * params.n_exp * math.log10(d)


def rss_to_distance(rss: float, a_dbm: float, n_exp: float,
                    d_max: float = D_MAX_FACTOR * 30.0) -> RangeEstimate:
    """Invert the log-distance model; result clamped to [D_MIN_M, d_max].

    The clamped flag records whether the raw inverse fell outside the window.
    """
    if n_exp <= 0:
        raise ValueError("n_exp must be positive")
    d = 10.0 ** ((a_dbm - rss) / (10.0 * n_exp))
    if d < D_MIN_M:
        return RangeEstimate(D_MIN_M, True)
    if d > d_max:
        return RangeEstimate(d_max, True)
    return RangeEstimate(d, False)


def round_half_away(value: float) -> int:
    """Round to the nearest integer with halves away from zero."""
    if value >= 0:
        return int(math.floor(value + 0.5))
    return int(math.ceil(value - 0.5))


def round_half_away_array(values: np.ndarray) -> np.ndarray:
    """round_half_away over an array, as floats.

    Adding 0.0 turns the -0.0 that ceil gives on (-0.5, 0) into the 0 that
    round_half_away returns there.
    """
    return np.where(values >= 0, np.floor(values + 0.5), np.ceil(values - 0.5)) + 0.0


def link_rss(d: float, params: ChannelParams) -> Optional[float]:
    """Mean RSS in dBm over a link of length d, or None beyond the reception radius."""
    if d <= 0:
        raise ValueError("distance must be positive")
    if d > params.reception_radius_m:
        return None
    return distance_to_rss(d, params)


def sample_rss(d: float, params: ChannelParams,
               rng: np.random.Generator) -> Optional[RssMeasurement]:
    """One shadowed RSS draw at distance d, or None beyond the reception radius.

    The Gaussian term is drawn even when sigma_dbm is zero so a scenario
    consumes the same stream positions regardless of noise level.
    """
    mean = link_rss(d, params)
    if mean is None:
        return None
    rss = mean + rng.normal(0.0, params.sigma_dbm)
    return RssMeasurement(rss, round_half_away(rss))


def receive(means: Sequence[float], params: ChannelParams,
            rng: np.random.Generator, quantize: bool) -> list[float]:
    """Level each receiver measures of one packet, given each link's mean RSS.

    The shadowing terms come from one draw of len(means) normals, in the
    order given, which takes the same stream positions and values as that
    many sample_rss calls. With quantize, a level is the integer register
    reading; otherwise it is the dBm value.
    """
    noise = rng.normal(0.0, params.sigma_dbm, len(means)).tolist()
    levels = [mean + z for mean, z in zip(means, noise)]
    if quantize:
        return [float(round_half_away(rss)) for rss in levels]
    return levels


def receive_block(means: Sequence[float], rows: int, params: ChannelParams,
                  rng: np.random.Generator, quantize: bool) -> np.ndarray:
    """Levels of rows successive packets over the same links, as a rows x
    len(means) array.

    Row i holds what the i-th of rows successive receive(means, ...) calls
    would return: the shadowing terms come from one draw of
    rows * len(means) normals, which takes the same stream positions and
    values as those calls, and quantization rounds as they do.
    """
    levels = (np.asarray(means, dtype=float)
              + rng.normal(0.0, params.sigma_dbm, (rows, len(means))))
    return round_half_away_array(levels) if quantize else levels


def register_to_rss(register_val: float, params: ChannelParams) -> float:
    """Raw register reading to dBm: value plus the radio's fixed offset."""
    return register_val + params.rssi_offset_dbm
