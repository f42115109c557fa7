"""Simulator and coding library for distributed vector convolution.

Three work-distribution strategies (`strategies`) run against a
deterministic discrete-event model of a mobile master/worker fleet
(`engine`).
"""

__version__ = "0.1.0"
