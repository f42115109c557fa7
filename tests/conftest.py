"""Fixtures and hypothesis profiles shared by the test modules.

The `ci` profile (`pytest --hypothesis-profile=ci`) derandomizes the
property tests, so a CI failure reproduces on rerun, and prints the blob
that replays a failing example; local runs keep the default profile.
"""

import pytest
from hypothesis import settings

from codedconv import coding, engine

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


@pytest.fixture
def rcond_limit(monkeypatch):
    """Set `coding.RCOND_LIMIT` for one test: call the fixture with the limit.

    No square system up to the piece-count cap fails the shipped limit, so
    a test that needs a failing verdict raises the limit.  The verdict
    memo is cleared when the limit is set and again at teardown, so no
    verdict judged under the test's limit outlives it.
    """
    def set_limit(limit):
        monkeypatch.setattr(coding, "RCOND_LIMIT", limit)
        coding._decode_failure.cache_clear()

    yield set_limit
    coding._decode_failure.cache_clear()
