"""Log-distance radio channel: RSS from distance, inverse ranging, shadowing, quantization."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .geometry import ScenarioError, _check_kinds

DEFAULT_A_DBM = -45.0
DEFAULT_RSSI_OFFSET_DBM = -45.0

# Inverse-ranging clamp. Noisy RSS above the 1 m reference power would map to
# sub-reference distances; RSS far below it would map to absurd ranges.
D_MIN_M = 0.1
D_MAX_FACTOR = 4.0
# localize's shortest range in lattice spacings (LocalizerConfig.range_d_min).
D_MIN_SPACINGS = 0.025

# Physical ranges of the propagation constants: a received power at 1 m in
# dBm, measured path-loss exponents (about 1.5 to 6) and shadowing spreads
# (about 2 to 14 dB), with room to spare. Within them a level is under 1e5
# dBm in size at any link length a float holds, so the sum of a round's
# tests, and every average, stays finite.
A_DBM_RANGE = (-200.0, 100.0)
N_EXP_MAX = 10.0
SIGMA_DBM_MAX = 30.0
# Far beyond any radio's reach, and small enough that a sum of squared
# ranges up to d_max_m (4 radii) stays finite in the in-cell solve.
RECEPTION_RADIUS_MAX_M = 1e150

# Most a screened mean, from numpy's hypot and log10, may be from link_rss,
# in dB; tests/test_channel.py checks a hundredth of it on the host.
SCREEN_DB = 1e-6


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
        _check_kinds(self)
        low, high = A_DBM_RANGE
        if not low <= self.a_dbm <= high:
            raise ScenarioError("a_dbm", f"must be in [{low:g}, {high:g}]")
        if self.n_exp <= 0:
            raise ScenarioError("n_exp", "must be positive")
        if self.n_exp > N_EXP_MAX:
            raise ScenarioError("n_exp", f"must be at most {N_EXP_MAX:g}")
        if self.sigma_dbm < 0:
            raise ScenarioError("sigma_dbm", "must be >= 0")
        if self.sigma_dbm > SIGMA_DBM_MAX:
            raise ScenarioError("sigma_dbm", f"must be at most {SIGMA_DBM_MAX:g}")
        if self.reception_radius_m <= 0:
            raise ScenarioError("reception_radius_m", "must be positive")
        if self.reception_radius_m > RECEPTION_RADIUS_MAX_M:
            raise ScenarioError("reception_radius_m",
                                f"must be at most {RECEPTION_RADIUS_MAX_M:g}")

    @property
    def d_max_m(self) -> float:
        """Upper clamp for inverse ranging."""
        return D_MAX_FACTOR * self.reception_radius_m


class RangeEstimate(NamedTuple):
    distance_m: float
    clamped: bool


def distance_to_rss(d: float, params: ChannelParams) -> float:
    """Deterministic received power in dBm at distance d, strictly decreasing in d."""
    if d <= 0:
        raise ValueError("distance must be positive")
    return params.a_dbm - 10.0 * params.n_exp * math.log10(d)


def _inverse_ranges(levels: Iterable[float], a_dbm: float, n_exp: float,
                    d_max: float, d_min: float = D_MIN_M) -> tuple[list[float], int]:
    """Each level's distance by the inverted log-distance model, clamped to
    [d_min, d_max], and how many of them the clamp changed. Every range in
    gridloc is computed here, or, for a step of rounds, by
    estimator.localize_step's arithmetic on arrays."""
    if n_exp <= 0:
        raise ValueError("n_exp must be positive")
    scale = 10.0 * n_exp
    out, clamped = [], 0
    for rss in levels:
        try:
            d = 10.0 ** ((a_dbm - rss) / scale)
        except OverflowError:
            # A level far below a_dbm at a small n_exp: beyond any d_max.
            d, clamped = d_max, clamped + 1
        else:
            if d < d_min:
                d, clamped = d_min, clamped + 1
            elif d > d_max:
                d, clamped = d_max, clamped + 1
        out.append(d)
    return out, clamped


def rss_to_distance(rss: float, a_dbm: float, n_exp: float,
                    d_max: float = D_MAX_FACTOR * ChannelParams.reception_radius_m
                    ) -> RangeEstimate:
    """Invert the log-distance model; result clamped to [min(D_MIN_M, d_max), d_max].

    The clamped flag records whether the raw inverse fell outside the window.
    """
    (d,), clamped = _inverse_ranges((rss,), a_dbm, n_exp, d_max, min(D_MIN_M, d_max))
    return RangeEstimate(d, clamped > 0)


def round_half_away_array(values: np.ndarray) -> np.ndarray:
    """Each value rounded to the nearest integer with halves away from
    zero, as floats.

    Adding 0.0 turns the -0.0 that ceil gives on (-0.5, 0) into 0.
    """
    return np.where(values >= 0, np.floor(values + 0.5), np.ceil(values - 0.5)) + 0.0


def link_rss(d: float, params: ChannelParams) -> Optional[float]:
    """Mean RSS in dBm over a link of length d, or None beyond the reception radius."""
    if d <= 0:
        raise ValueError("distance must be positive")
    if d > params.reception_radius_m:
        return None
    return distance_to_rss(d, params)


def _links(beacon_xy: np.ndarray, positions: np.ndarray, params: ChannelParams,
           candidates: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, list[int], Callable[[np.ndarray], np.ndarray]]:
    """The links of consecutive rounds, the blind node at each (x, y) row of
    positions in turn: the index in beacon_xy, an array of beacon (x, y)
    rows in lattice order, of each beacon in range and its screened mean
    RSS, as flat arrays, round after round in lattice order; each round's
    count of links; and exact(links), the exact means of the links at those
    indices. Only the beacons of candidates[i], a row of increasing indices
    per position, are measured at position i.

    An exact mean is link_rss(geometry.dist(p, b.pos), params), with both
    calls' arithmetic done in the same order: the differences as array
    operations, which round each value as Python floats do, and hypot and
    log10 through math; a screened one takes numpy's, within SCREEN_DB. math
    makes the cut, measuring again each length within 1e-9 of the radius.
    """
    xy = np.asarray(positions, float).reshape(-1, 2)
    # A length past the largest float is inf, as in math, and never heard.
    with np.errstate(over="ignore"):
        dx = (xy[:, :1] - beacon_xy[candidates, 0]).ravel()
        dy = (xy[:, 1:] - beacon_xy[candidates, 1]).ravel()
        d, r = np.hypot(dx, dy), params.reception_radius_m
    heard = d <= r
    edge = np.flatnonzero(abs(d - r) <= 1e-9 * r)
    heard[edge] = [math.hypot(x, y) <= r for x, y in zip(dx[edge].tolist(), dy[edge].tolist())]
    flat = np.flatnonzero(heard)
    dx, dy, d = dx[flat], dy[flat], d[flat]
    if d.size and d.min() <= 0:
        raise ValueError("distance must be positive")

    def exact(links: np.ndarray) -> np.ndarray:
        lengths = map(math.hypot, dx[links].tolist(), dy[links].tolist())
        log_d = np.fromiter(map(math.log10, lengths), float, len(links))
        return params.a_dbm - 10.0 * params.n_exp * log_d

    counts = np.count_nonzero(heard.reshape(candidates.shape), axis=1).tolist()
    return (candidates.ravel()[flat], params.a_dbm - 10.0 * params.n_exp * np.log10(d),
            counts, exact)


def sample_rss(d: float, params: ChannelParams, rng: np.random.Generator,
               quantize: bool = False) -> Optional[float]:
    """One shadowed level at distance d, as receive_rounds draws it, or None
    beyond the reception radius.

    The Gaussian term is drawn even when sigma_dbm is zero so a scenario
    consumes the same stream positions regardless of noise level.
    """
    mean = link_rss(d, params)
    if mean is None:
        return None
    rss = mean + rng.normal(0.0, params.sigma_dbm)
    return float(round_half_away_array(rss)) if quantize else rss


def receive_rounds(counts: Sequence[int], accum_count: int, cal_mean: Optional[float],
                   params: ChannelParams, rng: np.random.Generator, quantize: bool
                   ) -> tuple[list[float], np.ndarray]:
    """Each round's calibration level, and each link's test draws, a column
    of accum_count rows, for consecutive rounds of counts[r] links each,
    from one draw; average_levels forms the test averages of chosen links.

    A round takes one level on a calibration link of mean cal_mean, unless
    that is None, then accum_count + 4 packets over its links, row by row:
    the start broadcast, the acks, the tests, the request, the responses.
    The draw takes the same stream positions and values as that many
    sample_rss calls in that order. Only calibration levels and test draws
    are kept; with quantize, a calibration level is the integer register
    reading, as a float.
    """
    n, cal = accum_count, int(cal_mean is not None)
    starts = list(accumulate((cal + k * (n + 4) for k in counts), initial=0))
    firsts = list(accumulate(counts, initial=0))
    draws = rng.normal(0.0, params.sigma_dbm, starts[-1])
    # The i-th link of round r hears packet row j at starts[r] + cal + j·k_r + i.
    base = (np.repeat(np.subtract(starts[:-1], firsts[:-1]) + cal, counts)
            + np.arange(firsts[-1]))
    cals = draws[starts[:-1]] + cal_mean if cal else draws[:0]
    return ((round_half_away_array(cals) if quantize else cals).tolist(),
            draws[base + np.arange(2, n + 2)[:, None] * np.repeat(counts, counts)])


def average_levels(tests: np.ndarray, means: np.ndarray, quantize: bool) -> np.ndarray:
    """Each link's test average from its column of test draws and its mean,
    each level the integer register reading, as a float, with quantize; the
    levels are added left to right, as a beacon machine adds them: np.sum
    may add pairwise, and sum() of floats is compensated from Python 3.12 on."""
    levels = tests + means
    if quantize:
        levels = round_half_away_array(levels)
    total = levels[0]
    for row in levels[1:]:
        total = total + row
    return total / len(levels)
