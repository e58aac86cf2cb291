"""Shared test settings: one derandomized hypothesis profile for every
property test, so runs are reproducible and leave no example database."""

from hypothesis import settings

settings.register_profile("triblock", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("triblock")
