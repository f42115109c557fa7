"""Analytic success probabilities under a uniform failure count 0..P.

The oracle of acceptance criterion 7: P workers of which a count drawn
uniformly from 0..P fail at t=0.
"""

import math


def uncoded_success_probability(p: int) -> float:
    """Succeeds only with zero failures."""
    return 1.0 / (p + 1)


def traditional_tolerated_failures(n1: int, n2: int, s: int, p: int) -> int:
    """Largest failure count the fixed-redundancy code survives."""
    return min(p, max(-1, math.floor(p - n1 * n2 / s ** 2)))


def traditional_success_probability(n1: int, n2: int, s: int, p: int) -> float:
    tolerated = traditional_tolerated_failures(n1, n2, s, p)
    return (tolerated + 1) / (p + 1)


def dynamic_success_probability(p: int) -> float:
    """Succeeds whenever at least one worker survives."""
    return p / (p + 1)
