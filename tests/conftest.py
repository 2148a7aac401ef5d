"""Test-wide hypothesis settings.

Property tests draw their examples from a fixed derandomized stream, so
every run checks the same examples and a failure replays as it was seen.
Per-test ``@settings`` still set their own example counts and deadlines.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
