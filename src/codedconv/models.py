"""Compute-time, radio-link and straggler-behaviour models for the fleet.

Compute time for a convolution job follows a shifted exponential whose
shift and rate both scale with the job size; link rate follows a
log-distance path-loss model fed into the Shannon capacity formula.
Mobility and the effect of each behaviour live in the event engine.
"""

import math
from dataclasses import dataclass

import numpy as np

# Distances below one metre are clamped; the far-field path-loss model has
# no meaning there and would produce unbounded rates.
MIN_DISTANCE_M = 1.0


@dataclass
class WorkerProfile:
    """Per-worker compute parameters for the shifted-exponential model."""

    mu: float                   # exponential rate scale (straggling)
    alpha: float                # deterministic seconds per unit load

    def __post_init__(self):
        if self.mu <= 0 or self.alpha < 0:
            raise ValueError(f"invalid profile mu={self.mu} alpha={self.alpha}")


@dataclass
class CommParams:
    """Radio link parameters shared by all master-worker links."""

    bandwidth_hz: float = 1e6
    noise_w: float = 1e-12
    payload_bytes: int = 8      # bytes per transmitted number
    # Received-power model: S(d) = rx_offset_dbm - 20 log10(d).
    rx_offset_dbm: float = 6.0

    def __post_init__(self):
        if self.bandwidth_hz <= 0 or self.noise_w <= 0 or self.payload_bytes < 1:
            raise ValueError("bandwidth, noise power and payload size must be positive")


# Straggler behaviour kinds, applied per worker per episode.
NORMAL = "normal"
DELAYED = "delayed"             # work and return transfers slowed by `factor`
FAILED = "failed"               # returns nothing from `time` onward
LEAVES = "leaves"               # departs (out of range) at `time`
JOINS = "joins"                 # invisible before `time`, then a normal worker


@dataclass
class Behavior:
    """Straggler behaviour assignment for one worker in one episode."""

    kind: str = NORMAL
    factor: float = 15.0        # slowdown for DELAYED
    time: float = 0.0           # effect time for FAILED / LEAVES / JOINS

    def __post_init__(self):
        if self.kind not in (NORMAL, DELAYED, FAILED, LEAVES, JOINS):
            raise ValueError(f"unknown behaviour kind {self.kind!r}")
        if self.kind == DELAYED and self.factor < 1.0:
            raise ValueError("delay factor must be >= 1")


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


def sample_compute_time(rng: np.random.Generator, load: float,
                        profile: WorkerProfile) -> float:
    """Draw a shifted-exponential compute time for a job of size `load`.

    T = alpha * load + Exp(rate = mu / load); the mean is
    alpha * load + load / mu and no sample falls below the shift.
    """
    if load <= 0:
        raise ValueError("load must be positive")
    return profile.alpha * load + rng.exponential(load / profile.mu)


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
