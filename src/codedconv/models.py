"""Compute-time, radio-link and straggler-behaviour models for the fleet.

Mobility and the effect of each behaviour live in the event engine.
"""

import math
from dataclasses import dataclass

# Distances below one metre are clamped; the far-field path-loss model has
# no meaning there and would produce unbounded rates.
MIN_DISTANCE_M = 1.0


@dataclass(frozen=True)
class CommParams:
    """Radio link parameters shared by all master-worker links."""

    bandwidth_hz: float = 1e6
    noise_w: float = 1e-12
    payload_bytes: int = 8      # bytes per transmitted number
    # Received-power model: S(d) = rx_offset_dbm - 20 log10(d).
    rx_offset_dbm: float = 6.0

    def __post_init__(self):
        if not (0 < self.bandwidth_hz < math.inf
                and 0 < self.noise_w < math.inf
                and math.isfinite(self.rx_offset_dbm)
                and self.payload_bytes >= 1):
            raise ValueError("need finite rx_offset_dbm, finite positive "
                             "bandwidth_hz and noise_w, payload_bytes >= 1")
        try:
            data_rate(MIN_DISTANCE_M, self)
        except OverflowError:
            raise ValueError(f"rx_offset_dbm = {self.rx_offset_dbm} overflows "
                             f"the signal at {MIN_DISTANCE_M} m") from None


# Straggler modes a scenario can ask for, in the order the CLI lists them.
# Both failure modes take the worker away at t=0; only their names differ.
FAILURE_MODES = ("fail", "leave")
STRAGGLER_MODES = ("delayed",) + FAILURE_MODES


@dataclass(frozen=True)
class Behavior:
    """What one worker does in one episode; the defaults are a normal worker.

    A worker is a straggler when its behaviour differs from `Behavior()`.
    """

    slowdown: float = 1.0       # multiplies compute and return-transfer times
    joins: float = 0.0          # the master can reach it from this time on
    departs: float = math.inf   # no result arrives after this time

    def __post_init__(self):
        if not self.slowdown >= 1.0:
            raise ValueError(f"slowdown must be >= 1, got {self.slowdown}")
        if not (self.joins >= 0.0 and self.departs >= 0.0):
            raise ValueError("join and departure times must be >= 0, got "
                             f"{self.joins} and {self.departs}")


def compute_load(n1: int, n2: int, coeff: float = 1.0) -> float:
    """Cost of convolving vectors of lengths n1 and n2 via FFT.

    load = coeff * (n1 + n2) * log2(n1 + n2)
    """
    if n1 < 1 or n2 < 1:
        raise ValueError(f"lengths must be >= 1, got {n1}, {n2}")
    if coeff <= 0:
        raise ValueError("coeff must be positive")
    n = n1 + n2
    return coeff * n * math.log2(n)


def sample_compute_time(std_exp: float, load: float, mu: float) -> float:
    """Shifted-exponential compute time for a job of size `load` on a
    worker of rate scale `mu` (a worker's whole compute profile).

    T = alpha * load + Exp(rate = mu / load), with alpha = 1 / mu the
    seconds per unit load and the exponential part given as `load / mu`
    times the standard-exponential draw `std_exp` (on Philox that is bit
    for bit `rng.exponential(load / mu)`).  The mean is alpha * load +
    load / mu and no sample falls below the shift.  Arrays of draws give
    arrays of times.
    """
    if load <= 0:
        raise ValueError("load must be positive")
    return (1.0 / mu) * load + (load / mu) * std_exp


def signal_power_dbm(distance_m: float, comm: CommParams) -> float:
    """Received signal power in dBm at the given link distance."""
    d = max(float(distance_m), MIN_DISTANCE_M)
    return comm.rx_offset_dbm - 20.0 * math.log10(d)


def data_rate(distance_m: float, comm: CommParams) -> float:
    """Shannon-capacity link rate in bits/s at the given distance."""
    s_dbm = signal_power_dbm(distance_m, comm)
    signal_w = 10.0 ** ((s_dbm - 30.0) / 10.0)
    return comm.bandwidth_hz * math.log2(1.0 + signal_w / comm.noise_w)


def comm_time(n_numbers: int, rate_bps: float, payload_bytes: int = 8) -> float:
    """Transfer time for n_numbers values of payload_bytes each."""
    if n_numbers < 0:
        raise ValueError("number count cannot be negative")
    if rate_bps <= 0:
        raise ValueError("rate must be positive")
    return n_numbers * payload_bytes * 8.0 / rate_bps
