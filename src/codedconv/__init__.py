"""Simulator and coding library for distributed vector convolution.

Three work-distribution strategies run against a deterministic
discrete-event model of a mobile master/worker fleet: plain splitting
(uncoded), fixed-redundancy erasure coding, and an adaptive scheme that
grows redundancy on demand while pacing dispatches per worker.
"""

__version__ = "0.1.0"
