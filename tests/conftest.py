"""Fixtures shared by the test modules."""

import pytest

from codedconv import engine


@pytest.fixture
def streams_opened(monkeypatch):
    """(seed, *tags) of every stream opened through `engine.substream`.

    The engine opens streams through its module global, so replacing it
    sees every stream an episode or experiment opens, in order.
    """
    opened = []
    original = engine.substream

    def recording(seed, *tags):
        opened.append((seed, *tags))
        return original(seed, *tags)

    monkeypatch.setattr(engine, "substream", recording)
    return opened
