"""The engine's fixed-code completion times against the model's own law.

A fixed code sends every piece at t=0, so each transfer is priced at the
second-0 link rate.  On the fleet here each worker gets one piece of load
L and returns its result at

    T_w = t_in + L / mu + t_out + (L / mu) * E,

the shifted-exponential model of Lee et al. (2018) with alpha = 1 / mu,
where E is a standard exponential draw (an Erlang draw of shape 1).
Given a rep's mus (`Draws.profiles`) and second-0 rates, the completion
time T then has a known CDF F: for the uncoded strategy, which waits for
every result, the product of the workers' CDFs; for the traditional
code, with one row per worker and k rows needed, the Poisson-binomial
probability that at least k workers are back.  So F(T)
over many seeds must be uniform (a probability integral transform), and
a Kolmogorov-Smirnov statistic tests it.  F is built from the model's
formulas (`compute_load`, `comm_time`), never from `SimEngine.send`.
"""

import functools
import math

import pytest

from codedconv.engine import Draws, run_episode
from codedconv.models import comm_time, compute_load
from codedconv.scenarios import ScenarioConfig

# Fixed before any statistic was read: the 1% critical value of the
# Kolmogorov distribution, sqrt(-ln(0.005) / 2) = 1.628.  An oracle whose
# mus are 5% off, either way, reads 1.8 to 3.3 on these seeds.
KS_BOUND = 1.63
SEEDS = range(1000)
FLEET = ScenarioConfig("oracle", n1=512, n2=256, n_workers=8)
# Per strategy: the chunk length s and the results k a success needs.
# Uncoded cuts 512 x 256 into 4 x 2 chunk pairs of 128, one per worker.
# The traditional code keeps s = 256 (the settled pick of a fleet of mus
# in the millions): 8 coded rows, one per worker, of which any 2 decode
# the one column.
PLANS = {"uncoded": (128, 8), "traditional": (256, 2)}


def at_least(k: int, probs) -> float:
    """P(at least k of independent events with chances `probs` happen)."""
    dist = [1.0]                    # dist[j]: P(exactly j so far)
    for prob in probs:
        dist = [a * (1.0 - prob) + b * prob
                for a, b in zip(dist + [0.0], [0.0] + dist)]
    return sum(dist[k:])


def completion_cdf(strategy: str, draws: Draws, t: float) -> float:
    """F(t) for one rep: the model's chance that the episode ends by t."""
    s, k = PLANS[strategy]
    fleet = draws.fleet
    load = compute_load(s, s, fleet.compute_coeff)
    probs = []
    for w, mu in enumerate(draws.profiles):
        rate = draws.rates[w, 0]
        t_in = comm_time(2 * s, rate, fleet.comm.payload_bytes)
        t_out = comm_time(2 * s - 1, rate, fleet.comm.payload_bytes)
        x = (t - (t_in + load / mu + t_out)) / (load / mu)
        probs.append(1.0 - math.exp(-x) if x > 0.0 else 0.0)
    # At k = p, uncoded's, that is the product of the workers' CDFs.
    return at_least(k, probs)


def ks_statistic(u) -> float:
    """sqrt(n) times the largest gap between the sample's and U(0, 1)'s
    CDFs."""
    u = sorted(u)
    n = len(u)
    gap = max(max((i + 1) / n - x, x - i / n) for i, x in enumerate(u))
    return gap * math.sqrt(n)


@functools.cache
def transforms() -> dict:
    """F(T) on every seed, by strategy, over one `Draws` per seed."""
    u = {strategy: [] for strategy in PLANS}
    for seed in SEEDS:
        draws = Draws(seed, FLEET)
        for strategy, (s, _) in PLANS.items():
            out = run_episode(FLEET, strategy, seed, keep_result=False,
                              draws=draws)
            assert out.success and out.params["s"] == s
            assert out.pieces_dispatched == 8
            u[strategy].append(completion_cdf(strategy, draws,
                                              out.completion_time))
    return u


@pytest.mark.parametrize("strategy", sorted(PLANS))
def test_fixed_code_completion_times_follow_the_model(strategy):
    u = transforms()[strategy]
    assert len(u) == len(SEEDS)
    assert ks_statistic(u) < KS_BOUND
