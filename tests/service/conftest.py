"""The live server the serving-layer test modules share."""

import pytest

from repro.service import ServiceConfig, ServiceThread


@pytest.fixture(scope="module")
def server():
    # One per test module.  Tiny linger: sequential requests each flush
    # as a batch of one after it expires.
    config = ServiceConfig(port=0, linger_ms=0.5, queue_depth=256)
    with ServiceThread(config) as thread:
        yield thread
