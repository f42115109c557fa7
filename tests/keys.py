"""Generators built from a substream's key, the reference its draws must match."""

import numpy as np

from codedconv.engine import substream


def philox_key(seed, *tags) -> np.ndarray:
    """128-bit Philox key of `substream(seed, *tags)`, as two uint64 words."""
    return np.array(substream(seed, *tags).key, dtype=np.uint64)


def built_from_key(seed, *tags) -> np.random.Generator:
    """A fresh `Generator(Philox(key=...))` for `substream(seed, *tags)`."""
    return np.random.Generator(np.random.Philox(key=philox_key(seed, *tags)))
