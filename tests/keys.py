"""Generators built from a substream's key, the reference its draws must match."""

import numpy as np

from codedconv.engine import substream


def built_from_key(seed, node, purpose) -> np.random.Generator:
    """A fresh `Generator(Philox(key=...))` for `substream(seed, node, purpose)`."""
    key = np.array(substream(seed, node, purpose).key, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
