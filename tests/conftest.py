"""Hypothesis profiles for the test suite.

`deep` runs a property at 20,000 examples where it takes its count from
the profile, as the run loop's oracle-agreement property does:

    pytest tests/test_runner.py -k agrees --hypothesis-profile=deep
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=20_000)
