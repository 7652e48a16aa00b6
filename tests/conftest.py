"""Pytest configuration: make tests/helpers importable everywhere, and
read ``REPRO_SANITIZE`` once for the session.

With ``REPRO_SANITIZE=1`` (or ``true``/``yes``/``on``) in the environment
the whole session runs under one strict-gate stream sanitizer, installed
here and removed when the session ends; the engine itself never reads the
variable.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True, scope="session")
def _sanitizer_from_environment():
    if os.environ.get("REPRO_SANITIZE", "").lower() not in ("1", "true", "yes", "on"):
        yield None
        return
    from repro.analysis.sanitizer import StreamSanitizer, sanitized

    with sanitized(StreamSanitizer(strict_gate=True)) as sanitizer:
        yield sanitizer
