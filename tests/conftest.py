"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every
run checks the same examples, and with a bounded example count, so the
suite's wall time stays flat.  No example database is written.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, max_examples=150, database=None)
settings.load_profile("tier1")
