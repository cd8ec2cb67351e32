"""Test configuration: property tests run derandomized and without deadlines,
so they replay the same examples on every run and do not flake when a slow
host stretches one example past hypothesis's default 200 ms deadline."""
from hypothesis import settings

settings.register_profile("sigmasum", derandomize=True, deadline=None)
settings.load_profile("sigmasum")
