"""Fixtures and hypothesis profiles shared by the test modules.

The `ci` profile (`pytest --hypothesis-profile=ci`) derandomizes the
property tests, so a CI failure reproduces on rerun, and prints the blob
that replays a failing example; local runs keep the default profile.
"""

import pytest
from hypothesis import settings

from codedconv import engine

settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture
def streams_opened(monkeypatch):
    """(seed, node, purpose) of every stream opened through `engine.substream`.

    The engine opens streams through its module global, so replacing it
    sees every stream an episode or experiment opens, in order.
    """
    opened = []
    original = engine.substream

    def recording(seed, node, purpose):
        opened.append((seed, node, purpose))
        return original(seed, node, purpose)

    monkeypatch.setattr(engine, "substream", recording)
    return opened
