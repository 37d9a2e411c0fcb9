"""Shared test settings.

Property tests run under one derandomized hypothesis profile with a bounded
example count, so every run of the suite, at any thread count, checks the
same examples in about the same time.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "cdkit", derandomize=True, database=None, max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("cdkit")
